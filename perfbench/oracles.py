"""Output checks computed apart from chooselab.

Each check raises Mismatch with a one-line reason.  None of them imports
the package under test: they work on the benchmark's own graph JSON and on
the program's printed output.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction


class Mismatch(Exception):
    """A program output disagrees with an independent computation."""


def has_triangle(edges) -> bool:
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(adj[u] & adj[v] for u, v in edges)


# -- colourings -------------------------------------------------------------


def check_coloring(vertices, edges, lists, demand, coloring) -> None:
    """Size, containment and edge-disjointness of an (L, g)-colouring."""
    if coloring is None:
        raise Mismatch("no colouring returned")
    if set(coloring) != set(vertices):
        raise Mismatch("colouring does not cover exactly the vertices")
    for v in vertices:
        c = set(coloring[v])
        if len(c) != demand[v]:
            raise Mismatch(f"vertex {v}: {len(c)} colours, demand {demand[v]}")
        if not c <= set(lists[v]):
            raise Mismatch(f"vertex {v}: colours outside its list")
    for u, v in edges:
        if set(coloring[u]) & set(coloring[v]):
            raise Mismatch(f"edge {u}-{v}: colour sets meet")


def brute_force_colorable(vertices, edges, lists, demand) -> bool:
    """Plain search over every choice of demand[v]-subsets, in vertex order."""
    order = sorted(vertices)
    nbrs = defaultdict(set)
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    chosen = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for combo in itertools.combinations(sorted(lists[v]), demand[v]):
            c = set(combo)
            if any(c & chosen[w] for w in nbrs[v] if w in chosen):
                continue
            chosen[v] = c
            if extend(i + 1):
                return True
            del chosen[v]
        return False

    return extend(0)


def check_no_witness(vertices, edges, f, g, witness) -> None:
    """A "no" witness is an f-list assignment with no (L, g)-colouring."""
    if set(witness) != set(vertices):
        raise Mismatch("witness does not cover exactly the vertices")
    for v in vertices:
        if len(set(witness[v])) != f:
            raise Mismatch(f"witness list of {v} has {len(set(witness[v]))} "
                           f"colours, not {f}")
    demand = {v: g for v in vertices}
    if brute_force_colorable(vertices, edges, witness, demand):
        raise Mismatch("witness assignment is colourable after all")


def count_classes(n: int, f: int) -> int:
    """Number of Venn-cell vectors on n vertices with uniform list size f.

    This is the coefficient of x_1^f ... x_n^f in the product over nonempty
    subsets S of 1 / (1 - prod_{v in S} x_v): one factor per cell, its
    exponent the cell size.  Each vector is one colour-renaming class of
    f-list assignments.
    """
    poly = {(0,) * n: 1}
    for mask in range(1, 1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        grown: dict[tuple[int, ...], int] = defaultdict(int)
        for exp, c in poly.items():
            e = list(exp)
            while all(e[i] <= f for i in bits):
                grown[tuple(e)] += c
                for i in bits:
                    e[i] += 1
        poly = grown
    return poly.get((f,) * n, 0)


# -- charge ledgers ---------------------------------------------------------


def check_ledger(vertices, edges, ledger: dict) -> None:
    """Euler's formula, face degrees, initial charges and conservation.

    `ledger` is the JSON of `chooselab discharge --report json`; charges are
    printed as fractions of whole units.
    """
    degree = defaultdict(int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    V, E = len(vertices), len(edges)
    rows = ledger["rows"]
    face_rows = [r for r in rows if r["element"].startswith("f")]
    vertex_rows = {int(r["element"][1:]): r for r in rows
                   if r["element"].startswith("v")}
    if len(face_rows) != E - V + 2:
        raise Mismatch(f"{len(face_rows)} faces, Euler gives {E - V + 2}")
    if set(vertex_rows) != set(vertices):
        raise Mismatch("ledger vertices differ from the graph's")
    face_degrees = [(Fraction(r["initial"]) + 10) / 2 for r in face_rows]
    if sum(face_degrees) != 2 * E or any(d < 4 for d in face_degrees):
        raise Mismatch("face degrees do not sum to 2E or a face is shorter than 4")
    for v, r in vertex_rows.items():
        if Fraction(r["initial"]) != 3 * degree[v] - 10:
            raise Mismatch(f"vertex {v}: initial charge {r['initial']}")
    for r in rows:
        flow = Fraction(r["initial"]) + Fraction(r["in"]) - Fraction(r["out"])
        if Fraction(r["final"]) != flow:
            raise Mismatch(f"{r['element']}: final != initial + in - out")
    initial = sum(Fraction(r["initial"]) for r in rows)
    final = sum(Fraction(r["final"]) for r in rows)
    if initial != -20 or Fraction(ledger["total_initial"]) != -20:
        raise Mismatch(f"initial charge totals {initial}, not -240 twelfths")
    if final != initial or Fraction(ledger["total_final"]) != final:
        raise Mismatch("charge is not conserved")
