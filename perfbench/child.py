"""Child processes that the benchmark times from outside.

    child.py setup  graph:G.json | cellular:P.json:C.json ...
        Start, import orbitcoh.cli, parse the workload's inputs through
        orbitcoh.jsonio, and exit.  Its wall time is the set-up time.

    child.py trace SPANS_FILE INVOCATION_ID CLI_ARG...
        Run one orbitcoh.cli.main(argv) in-process under the span tracer,
        then write the spans to SPANS_FILE.  Exits with the CLI's code.

The orbitcoh package is found on PYTHONPATH, which the benchmark sets to
the checkout's ``src``.
"""

import sys


def setup(specs):
    import orbitcoh.cli  # noqa: F401  (the import is part of set-up)
    from orbitcoh.jsonio import load_json, parse_copresheaf, parse_graph, parse_poset

    for spec in specs:
        kind, *paths = spec.split(":")
        if kind == "graph":
            parse_graph(load_json(paths[0]))
        else:
            poset = parse_poset(load_json(paths[0]))
            parse_copresheaf(load_json(paths[1]), poset)
    return 0


def trace(spans_file, invocation, argv):
    import orbitcoh.cli as cli
    from layers import tracer_targets
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed(tracer_targets()):
        code = cli.main(argv)
    tracer.dump(spans_file, invocation=int(invocation), exit_code=code)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    sys.exit(trace(rest[0], rest[1], rest[2:]))
