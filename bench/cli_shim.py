"""Run one halphen CLI invocation with the tracer installed.

    python bench/cli_shim.py AGGREGATES_PATH ARG...

behaves as ``python -m halphen.cli ARG...`` (same stdout, stderr and exit
code) and writes the tracer's per-name aggregates to AGGREGATES_PATH as
JSON.  cli.import_s is the time of ``import halphen.cli`` in this fresh
interpreter; cli.parse, cli.handler and cli.render are spans around the
argparse work, the command handler and the JSON/CSV rendering.
"""

import time

_t0 = time.perf_counter()
import halphen.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def install_cli(tracer: Tracer):
    build = cli.build_parser

    def build_parser():
        parser = build()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = tracer.wrap("cli.parse", build_parser)
    # build_parser looks the handlers up by global name when it runs
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            setattr(cli, attr, tracer.wrap("cli.handler", getattr(cli, attr)))
    cli.render_csv = tracer.wrap("cli.render", cli.render_csv)
    cli.json = types.SimpleNamespace(dumps=tracer.wrap("cli.render", json.dumps))


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    install_cli(tracer)
    tracer.counters["cli.import_s"] = IMPORT_S
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main, root=True)(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        aggregates = tracer.aggregates()
        aggregates["covered_s"] = IMPORT_S + sum(tracer.self_s.values())
        with open(out_path, "w") as fh:
            json.dump(aggregates, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
