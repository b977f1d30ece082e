"""A fixed pure-Python computation that measures the host's current speed.

    python3 perfbench/reference.py

The benchmark runs it as a child, next to the program's children, and
divides their times by its time.  It imports nothing from ``orbitcoh``,
so no change to the program moves it; only the host's speed does.  Its
mix follows the program's: a lattice of frozensets with a Möbius
function kept in dicts, dense elimination over Python ints, and a JSON
dump.  The same code runs every time and prints one checksum line; it
exits with 1 if that line is wrong.  The benchmark runs it with a fixed
``PYTHONHASHSEED``, because the iteration order of its sets changes how
much work the short-circuiting ``refines`` does.
"""

import json
import sys
from itertools import combinations

# what compute() returns; anything else means the host computed it wrongly
EXPECTED = (203, 0, 55440, 64, 1340554)


def partitions(items):
    """All set partitions of ``items`` as frozensets of frozensets."""
    if not items:
        return [frozenset()]
    first, rest = items[0], items[1:]
    out = []
    for p in partitions(rest):
        out.append(p | {frozenset([first])})
        for block in p:
            out.append((p - {block}) | {block | {first}})
    return out


def moebius_from_bottom(elements, leq):
    bottom = max(elements, key=len)
    mu = {bottom: 1}
    for x in sorted(elements, key=len, reverse=True):
        if x != bottom:
            mu[x] = -sum(mu[y] for y in mu if y != x and leq(y, x))
    return mu


def refines(p, q):
    return all(any(b <= c for c in q) for b in p)


def bareiss_rank(rows):
    a = [list(r) for r in rows]
    n, m = len(a), len(a[0])
    rank, prev = 0, 1
    for col in range(m):
        pivot = next((i for i in range(rank, n) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, n):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[rank])]
        prev = p
        rank += 1
    return rank


def compute():
    lattice = partitions(list(range(6)))
    mu = moebius_from_bottom(lattice, refines)
    quads = sorted(map(frozenset, combinations(range(12), 4)), key=sorted)
    meets = {(i, j): sorted(a | b) for (i, a), (j, b) in
             combinations(enumerate(quads), 2) if len(a & b) == 1}
    state = 1
    rows = []
    for _ in range(64):
        row = []
        for _ in range(64):
            state = (1103515245 * state + 12345) % 2**31
            row.append(state % 7 - 3)
        rows.append(row)
    rank = bareiss_rank(rows)
    blob = json.dumps({"mu": sorted(mu.values()), "meets": list(meets.values()),
                       "rank": rank})
    return len(lattice), sum(mu.values()), len(meets), rank, len(blob)


def main():
    result = compute()
    print(*result)
    return 0 if result == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
