"""Correctness gate: decides whether one CLI invocation succeeded.

An invocation fails on a timeout, a nonzero exit code, unexpected
standard output, or an ``--out`` file whose relabeling-invariant facts
differ from those recorded in ``expected.json``.  For seed 0 the file's
sha256 must also equal the recorded digest, because output must stay
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def facts(command: str, payload: dict) -> dict:
    """Facts of one ``--out`` payload that no relabeling can change."""
    if command == "ring":
        return {"poincare": payload["poincare"],
                "basis_size": len(payload["basis"]),
                "gradings": len(payload["gradings"]),
                "nonzero_products": len(payload["products"])}
    if command == "betti":
        return {"poincare": payload["poincare"],
                "basis_size": sum(payload["gradings"].values()),
                "gradings": len(payload["gradings"])}
    if command == "verify":
        return {"ok": payload["ok"],
                "all_pass": all(line.startswith("PASS ") for line in payload["checks"]),
                "rank_checks": payload["rank_checks"],
                "product_checks": payload["product_checks"]}
    if command == "cellular":
        ranks = payload.get("piece_ranks", {})
        return {"cellular": payload["cellular"],
                "elements": len(ranks),
                "total_piece_rank": sum(ranks.values())}
    raise ValueError(f"no facts for command {command!r}")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def check(inv, out: Path, seed: int, exit_code, stdout: str, expected: dict) -> str:
    """'ok', or why the invocation that wrote ``out`` failed ('timeout' for a timeout)."""
    if exit_code == "timeout":
        return "timeout"
    if exit_code != 0:
        return f"exit code {exit_code}"
    if stdout != f"wrote {out}\n":
        return f"unexpected stdout {stdout[:80]!r}"
    want = expected[inv.key]
    if seed == 0 and sha256(out) != want["sha256_seed0"]:
        return "sha256 differs from the recorded seed-0 output"
    try:
        got = facts(inv.command, json.loads(out.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    for name, value in want["facts"].items():
        if got.get(name) != value:
            return f"{name} is {got.get(name)!r}, expected {value!r}"
    return "ok"
