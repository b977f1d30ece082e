"""Command-line interface: betti, ring, verify, cellular.

Exit codes: 0 success, 1 verification or form failure, 2 malformed
input, 3 unsupported parameters.  Identical inputs produce
byte-identical output.  With ``--out`` each command builds its JSON
document and streams it to the file in parts (``jsonio.dump``); without
it, the command builds no document and prints a text table.

Each command imports the modules it runs, so a child process loads only
those.  ``betti`` and ``ring`` load ``cli``, ``jsonio``, ``orbit``,
``osalg``, ``posets`` and ``ring``; ``verify`` adds ``intlinalg``,
``sheaves``, ``oracle`` and ``verify``, but not ``cellular``; ``cellular``
loads ``cli``, ``jsonio``, ``intlinalg``, ``posets``, ``sheaves`` and
``cellular``.  No command loads ``morphisms``, the form-morphism product
route.  The value classes are ``typing.NamedTuple``s, so no command
loads ``inspect`` or ``ast``.  Without a bytecode cache a child compiles
every module it loads, which for small inputs costs more than the
command's own work.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .jsonio import BadInput, dump, load_json, parse_copresheaf, parse_graph, parse_poset

if TYPE_CHECKING:
    from .orbit import Graph

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3


def _graph_from_args(args) -> Graph:
    from .orbit import Graph

    if args.complete is not None:
        if args.complete < 1:
            raise BadInput("--complete expects a positive integer")
        return Graph.complete(args.complete)
    if args.graph is None:
        raise BadInput("one of --graph FILE or --complete N is required")
    return parse_graph(load_json(args.graph))


def _check_km(args):
    if args.k < 1 or args.m < 1:
        raise BadInput("k and m must be positive integers")
    if args.mode == "real" and args.k != 2:
        raise BadInput("real mode forces k = 2")


def _emit(args, payload, text: str):
    """Write ``payload()`` as JSON to ``--out``, or else ``text`` to stdout.

    ``payload`` is called only when ``--out`` is given, so text output
    never builds the JSON document.  The document is streamed to the
    file by ``jsonio.dump``, with no joined copy of its text.
    """
    if args.out:
        try:
            with open(args.out, "w") as fh:
                dump(payload(), fh)
        except OSError as exc:
            raise BadInput(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _poincare_string(coeffs: list[int]) -> str:
    terms = []
    for d, c in enumerate(coeffs):
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(f"t^{d}" if d > 1 else "t")
        else:
            terms.append(f"{c}*t^{d}" if d > 1 else f"{c}*t")
    return " + ".join(terms) if terms else "0"


def cmd_betti(args) -> int:
    from .ring import graded_pieces

    _check_km(args)
    graph = _graph_from_args(args)
    _, pieces = graded_pieces(graph, args.k, args.m, args.mode)
    # the text names no grading, so only --out keeps the labels
    gradings: dict[str, int] | None = {} if args.out else None
    poincare = [0]
    for degree, lab, rank, _, _ in pieces:
        if degree >= len(poincare):
            poincare += [0] * (degree + 1 - len(poincare))
        poincare[degree] += rank
        if gradings is not None:
            gradings[lab] = rank
    betti = [[d, r] for d, r in enumerate(poincare) if r]
    warning = ("m = 1 output is additive only; the ring statement needs m > 1"
               if args.m == 1 else None)

    def payload():
        out = {
            "command": "betti",
            "graph": {"n": graph.n,
                      "edges": sorted([list(e) for e in graph.edges])},
            "k": args.k,
            "m": args.m,
            "mode": args.mode,
            "betti": betti,
            "poincare": poincare,
            "gradings": gradings,
        }
        if warning:
            out["warning"] = warning
        return out

    lines = ["degree  rank"]
    for d, r in betti:
        lines.append(f"{d:>6}  {r}")
    lines.append("poincare: " + _poincare_string(poincare))
    if warning:
        lines.append("warning: " + warning)
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ring(args) -> int:
    from .ring import RingPresentation, UnsupportedM

    _check_km(args)
    if args.m == 1:
        raise UnsupportedM("the ring presentation needs m > 1")
    pres = RingPresentation(_graph_from_args(args), args.k, args.m, args.mode)

    def payload():
        out = pres.to_json_dict()
        out["command"] = "ring"
        return out

    lines = [
        f"basis: {len(pres.basis)} elements over "
        f"{len(pres.matrices)} gradings ({pres.mode} mode)",
        "poincare: " + _poincare_string(pres.poincare_polynomial()),
        f"nonzero basis products: {len(pres.products)}",
        "idx  degree  grading",
    ]
    for i, e in enumerate(pres.basis):
        lines.append(f"{i:>3}  {e.degree:>6}  {e.theta}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import verify_full

    _check_km(args)
    if args.mode == "real":
        print("unsupported: verify has no real-mode oracle yet; "
              "use --mode complex", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.oracle_limit < 0:
        raise BadInput("--oracle-limit must be a non-negative integer")
    graph = _graph_from_args(args)
    report = verify_full(graph, args.k, args.m, oracle_limit=args.oracle_limit)

    def payload():
        return {
            "command": "verify",
            "k": args.k,
            "m": args.m,
            "ok": report.ok,
            "checks": report.lines,
            "rank_checks": report.rank_checks,
            "product_checks": report.product_checks,
        }

    _emit(args, payload, str(report) + "\n")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_cellular(args) -> int:
    from .cellular import CellularForm, construct_cellular_form

    poset = parse_poset(load_json(args.poset))
    g = parse_copresheaf(load_json(args.copresheaf), poset)
    result = construct_cellular_form(poset, g)
    if isinstance(result, CellularForm):
        def payload():
            return {"command": "cellular", "cellular": True, **result.to_json_dict()}

        lines = ["cellular form exists", "element  rank  piece"]
        for i, lab in enumerate(poset.labels):
            lines.append(f"{lab}  {poset.rank[i]}  {result.piece_ranks[i]}")
        _emit(args, payload, "\n".join(lines) + "\n")
        return EXIT_OK

    def verdict():
        return {
            "command": "cellular",
            "cellular": False,
            "element": str(result.element),
            "step": result.step,
            "detail": result.detail,
        }

    text = (f"not cellular: {result.step} fails at {result.element}"
            f" ({result.detail})\n")
    _emit(args, verdict, text)
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcoh",
        description="Cohomology rings of orbit configuration spaces of the "
                    "standard action, with brute-force verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--graph", help="graph JSON file")
        source.add_argument("--complete", type=int,
                            help="complete graph on N vertices")
        p.add_argument("--k", type=int, default=2, help="order of each cyclic factor")
        p.add_argument("--m", type=int, default=2, help="number of coordinates")
        p.add_argument("--mode", choices=["complex", "real"], default="complex")
        p.add_argument("--out", help="write JSON here instead of a text table")

    p_betti = sub.add_parser("betti", help="Betti table and Poincare polynomial")
    common(p_betti)
    p_betti.set_defaults(func=cmd_betti)

    p_ring = sub.add_parser("ring", help="full ring presentation")
    common(p_ring)
    p_ring.set_defaults(func=cmd_ring)

    p_verify = sub.add_parser("verify", help="verify the closed form against "
                                             "the brute-force oracle")
    common(p_verify)
    p_verify.add_argument("--oracle-limit", type=int, default=100,
                          dest="oracle_limit",
                          help="largest poset the brute-force oracle will accept")
    p_verify.set_defaults(func=cmd_verify)

    p_cell = sub.add_parser("cellular", help="run the cellular form "
                                             "construction on a poset")
    p_cell.add_argument("--poset", required=True, help="poset JSON file")
    p_cell.add_argument("--copresheaf", required=True,
                        help="copresheaf JSON file")
    p_cell.add_argument("--out", help="write JSON here instead of text")
    p_cell.set_defaults(func=cmd_cellular)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except _unsupported() as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def _unsupported() -> tuple[type[Exception], ...]:
    """The exceptions that exit 3.

    ``main`` calls this in an ``except`` clause, which is evaluated only
    when an exception reaches it, so a run that succeeds imports neither
    ``ring`` nor ``oracle`` for it.
    """
    from .oracle import OracleTooLarge
    from .ring import UnsupportedM

    return UnsupportedM, OracleTooLarge


if __name__ == "__main__":
    sys.exit(main())
