"""The README's CLI examples, run in-process, against golden transcripts.

Each `halphen ...` line of the README's CLI block is run through
halphen.cli.main and recorded as

    $ <the README line, comment included>
    <stdout, byte for byte>
    [exit <code>]

tests/readme_examples.golden holds the transcript.
tests/readme_examples_json.golden holds the same for the JSON form of the
three commands that print CSV by default: their README lines with the
comment cut and `--format json` appended.  CI builds both transcripts from
the installed console script and diffs them against these files.
"""

import pathlib
import shlex

import pytest

from halphen import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "readme_examples.golden"
GOLDEN_JSON = ROOT / "tests" / "readme_examples_json.golden"
CSV_COMMANDS = ("halphen dh integrate ", "halphen bianchi flow ", "halphen bianchi flat-family ")


def readme_examples() -> list[str]:
    """The `halphen ...` lines between the README's CLI and Conventions headings."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("\n## Conventions\n", 1)[0]
    return [line for line in block.splitlines() if line.startswith("halphen ")]


def json_forms() -> list[str]:
    """The README lines of the CSV commands, comment cut, with `--format json`."""
    return [line.partition("#")[0].rstrip(" ") + " --format json"
            for line in readme_examples() if line.startswith(CSV_COMMANDS)]


def transcript(capsys, lines) -> str:
    parts = []
    for line in lines:
        code = cli.main(shlex.split(line, comments=True)[1:])
        parts.append("$ %s\n%s[exit %d]\n" % (line, capsys.readouterr().out, code))
    return "".join(parts)


def read_golden(path) -> str:
    # the CSV reports end their rows in \r\n; newline="" keeps them
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_readme_has_sixteen_examples():
    assert len(readme_examples()) == 16
    assert len(json_forms()) == 4


def test_readme_examples_match_golden_transcript(capsys):
    assert transcript(capsys, readme_examples()) == read_golden(GOLDEN)


def test_readme_csv_examples_match_json_golden_transcript(capsys):
    assert transcript(capsys, json_forms()) == read_golden(GOLDEN_JSON)


def test_a_command_offers_csv_if_and_only_if_its_handler_returns_columns(capsys):
    commands = set()
    for line in readme_examples():
        argv = shlex.split(line, comments=True)[1:]
        args = cli.build_parser().parse_args(argv)
        commands.add((args.group, args.command))
        columns = args.handler(args)[2]
        if columns is None:
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv + ["--format", "csv"])
        else:
            assert cli.build_parser().parse_args(argv + ["--format", "csv"]).format == "csv"
    assert len(commands) == 14
