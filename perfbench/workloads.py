"""The benchmark's workloads and their seeded input generator.

Each workload is a fixed list of ``orbitcoh`` CLI invocations.  The
seed only relabels: for a graph it permutes the vertices, for a poset it
renames the elements (and re-sorts the copresheaf ``ranks`` to follow).
Seed 0 is the identity relabeling.  Relabeling changes the bytes the
program reads and writes but none of the invariants the gate checks.
The program only ever receives the generated files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def complete(n):
    return n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def path(n):
    return n, [(i, i + 1) for i in range(1, n)]


def matching(n):
    return n, [(i, i + 1) for i in range(1, n, 2)]


def complete_minus_edge(n):
    return n, [e for e in complete(n)[1] if e != (n - 1, n)]


@dataclass(frozen=True)
class Spec:
    """One invocation: a CLI command on a graph (with k, m) or on a lattice file."""
    key: str
    command: str
    graph: tuple | None = None
    k: int = 2
    m: int = 2
    lattice: str | None = None


# Two workloads that stress different layers, so that a change to one
# layer shows on one workload and leaves the other as its control.  The
# two callers of intlinalg sit on different sides: verify solves a few
# large boundary matrices, cellular takes many small dense kernels.
WORKLOADS = {
    "ring-verify": [
        Spec("ring-K3-k2-m2", "ring", complete(3), 2, 2),
        Spec("ring-2K2-k2-m2", "ring", matching(4), 2, 2),
        Spec("verify-K2-k4-m2", "verify", complete(2), 4, 2),
        Spec("verify-P3-k2-m2", "verify", path(3), 2, 2),
    ],
    "betti-cellular": [
        Spec("betti-K4e-k4-m2", "betti", complete_minus_edge(4), 4, 2),
        Spec("cellular-LK3-k3-m2", "cellular", lattice="lkm-K3-k3-m2.json"),
        Spec("cellular-LP3-k4-m2", "cellular", lattice="lkm-P3-k4-m2.json"),
    ],
}


@dataclass(frozen=True)
class Invocation:
    key: str
    command: str
    args: list       # CLI arguments before --out
    inputs: list     # "graph:G" or "cellular:P:C" specs for the set-up child

    def argv(self, out: Path) -> list:
        return self.args + ["--out", str(out)]


def _rng(seed: int, key: str):
    return random.Random(f"{seed}:{key}")


def relabel_graph(n, edges, seed: int, key: str) -> dict:
    perm = list(range(1, n + 1))
    if seed:
        _rng(seed, key).shuffle(perm)
    moved = sorted(sorted((perm[i - 1], perm[j - 1])) for i, j in edges)
    return {"n": n, "edges": [list(e) for e in moved]}


def rename_lattice(data: dict, seed: int, key: str) -> tuple[dict, dict]:
    """Poset and delta-at-bottom copresheaf JSON, elements renamed by the seed."""
    labels = sorted(data["elements"])
    if seed:
        ids = list(range(len(labels)))
        _rng(seed, key).shuffle(ids)
        name = {lab: f"x{i:04d}" for lab, i in zip(labels, ids)}
    else:
        name = {lab: lab for lab in labels}
    rank = dict(zip(data["elements"], data["rank"]))
    elements = [name[lab] for lab in labels]
    if seed:
        _rng(seed, key + ":order").shuffle(elements)
    back = {v: k for k, v in name.items()}
    poset = {
        "elements": elements,
        "covers": sorted([name[lo], name[hi]] for lo, hi in data["covers"]),
        "rank": [rank[back[e]] for e in elements],
    }
    bottom = name[data["bottom"]]
    copresheaf = {"ranks": [int(e == bottom) for e in sorted(elements)]}
    return poset, copresheaf


def _write(path: Path, data) -> Path:
    path.write_text(json.dumps(data, sort_keys=True))
    return path


def generate(workload: str, seed: int, work: Path) -> list[Invocation]:
    """Write the inputs of ``workload`` for ``seed`` into ``work``."""
    out = []
    for spec in WORKLOADS[workload]:
        if spec.graph is not None:
            g = _write(work / f"{spec.key}.graph.json",
                       relabel_graph(*spec.graph, seed, spec.key))
            argv = [spec.command, "--graph", str(g), "--k", str(spec.k),
                    "--m", str(spec.m)]
            inputs = [f"graph:{g}"]
        else:
            data = json.loads((DATA / spec.lattice).read_text())
            poset, copresheaf = rename_lattice(data, seed, spec.key)
            p = _write(work / f"{spec.key}.poset.json", poset)
            c = _write(work / f"{spec.key}.copresheaf.json", copresheaf)
            argv = [spec.command, "--poset", str(p), "--copresheaf", str(c)]
            inputs = [f"cellular:{p}:{c}"]
        out.append(Invocation(spec.key, spec.command, argv, inputs))
    return out
