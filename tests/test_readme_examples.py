"""The README's CLI examples, run in-process, against a golden transcript.

Each `halphen ...` line of the README's CLI block is run through
halphen.cli.main and recorded as

    $ <the README line, comment included>
    <stdout, byte for byte>
    [exit <code>]

tests/readme_examples.golden holds the transcript; CI builds the same
transcript from the installed console script and diffs it against that
file.
"""

import pathlib
import shlex

from halphen.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "readme_examples.golden"


def readme_examples() -> list[str]:
    """The `halphen ...` lines between the README's CLI and Conventions headings."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("\n## Conventions\n", 1)[0]
    return [line for line in block.splitlines() if line.startswith("halphen ")]


def transcript(capsys) -> str:
    parts = []
    for line in readme_examples():
        code = main(shlex.split(line, comments=True)[1:])
        parts.append("$ %s\n%s[exit %d]\n" % (line, capsys.readouterr().out, code))
    return "".join(parts)


def test_readme_has_fifteen_examples():
    assert len(readme_examples()) == 15


def test_readme_examples_match_golden_transcript(capsys):
    # the CSV reports end their rows in \r\n; newline="" keeps them
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        assert transcript(capsys) == fh.read()
