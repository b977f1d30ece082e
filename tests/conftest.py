"""Shared helpers: an independent partition-lattice builder used as an oracle.

Built directly from set partitions and refinement, with no imports from
the package's lattice code, so cross-checks against it are meaningful.
Also the environment for tests that run the CLI in a subprocess, a
reference shuffle cross product of formal K-chains, and the conversions
between dense matrices or vectors and the sparse columns, vectors and
rows that the linear algebra takes and returns.
"""

import os
from pathlib import Path

import orbitcoh
from orbitcoh.oracle import shuffle_push
from orbitcoh.posets import GradedPoset


def subprocess_env(**extra):
    """A copy of os.environ for a child that runs ``python -m orbitcoh.cli``.

    ``extra`` is applied on top. The absolute directory holding the imported
    orbitcoh package (``src`` in a checkout) goes first on PYTHONPATH, so the
    child imports the same orbitcoh as the tests whatever its working
    directory and however relative the inherited PYTHONPATH is.
    """
    env = dict(os.environ, **extra)
    root = str(Path(orbitcoh.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
    return env


def set_partitions(n: int):
    """All partitions of {1..n} as sorted tuples of sorted tuples."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        yield tuple(sorted(rest + ((n,),)))
        for i, block in enumerate(rest):
            merged = rest[:i] + (tuple(sorted(block + (n,))),) + rest[i + 1:]
            yield tuple(sorted(merged))


def refines(p, q) -> bool:
    """True when every block of p is contained in a block of q."""
    lookup = {}
    for block in q:
        for v in block:
            lookup[v] = block
    return all(set(b) <= set(lookup[b[0]]) for b in p)


def partition_lattice(n: int) -> GradedPoset:
    """The partition lattice Pi_n ordered by refinement."""
    parts = sorted(set(set_partitions(n)))
    rank = {p: n - len(p) for p in parts}
    covers = []
    for p in parts:
        for q in parts:
            if rank[q] == rank[p] + 1 and refines(p, q):
                covers.append((p, q))
    return GradedPoset(parts, covers, rank)


def bottom(n: int):
    return tuple((i,) for i in range(1, n + 1))


def top(n: int):
    return (tuple(range(1, n + 1)),)


def cross_formal(x: dict, y: dict, g2, f2) -> dict:
    """Shuffle cross product of formal K-chains over the product poset.

    ``g2`` and ``f2`` are the sheaves of the second factor, needed to
    flatten tensor-basis indices and element pairs row-major (first factor
    major), as ``product_poset`` and ``product_sheaf`` order them.
    """
    n2 = g2.base.n
    out: dict = {}
    for (ch1, g1i, f1i), c1 in x.items():
        for (ch2, g2i, f2i), c2 in y.items():
            gflat = g1i * g2.ranks[ch2[0]] + g2i
            fflat = f1i * f2.ranks[ch2[-1]] + f2i
            pushed = shuffle_push({ch1: c1}, {ch2: c2}, lambda a, b: a * n2 + b)
            for chain, c in pushed.items():
                key = (chain, gflat, fflat)
                out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def columns(m) -> list[dict]:
    """The sparse columns {row: entry} of a dense IntMatrix."""
    return [{i: row[j] for i, row in enumerate(m.data) if row[j]} for j in range(m.cols)]


def sparse(vec) -> dict:
    """A dense vector as {position: entry}."""
    return {i: x for i, x in enumerate(vec) if x}


def dense(rows, ncols: int) -> list[list[int]]:
    """Sparse rows {position: entry} written out as dense lists of length `ncols`."""
    out = []
    for row in rows:
        vec = [0] * ncols
        for i, x in row.items():
            vec[i] = x
        out.append(vec)
    return out
