"""Exhaustive verification of the partial colorings behind the
frontier-component profiles, at unit scale.

For each component shape F (P2, P3, P4, K13) with 7-color lists, every
canonical list class that admits an (L, 4)-coloring of F must support a
partial coloring psi by one rule, with a size and a target per vertex:

    psi(v) is a set of size(v) colors of L(v) that holds, for each
    neighbor u, a color outside L(u); psi is proper; and every v keeps
    target(v) colors of L(v) outside psi(N[v]).

    shape  graph                     sizes       targets
    P2     path 0-1                  1, 1        6, 6
    P3     path 0-1-2                1, 2, 1     5, 5, 5
    P4     path 0-1-2-3              1, 2, 2, 1  5, 4, 4, 5
    K13    leaves 0, 1, 2; center 3  1, 1, 1, 3  4, 4, 4, 4

In P4, psi(1) and psi(2) are disjoint because psi is proper.

Every shape is exhausted: each canonical class is streamed from the
enumerator, checked for colorability and, if colorable, for psi.  P2 has
8 classes (one per overlap 0..7), P3 has 410, and P4 and K13 have 154,279
each.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .multicolor import (_combos, canonical_masks, coloring_search,
                         lists_from_masks)
from .plane import PlaneGraph, path_graph
from .record import Record


class CaseReport(Record):
    # `sampled` is always False: every class is checked.  perfbench's `lists`
    # workload reads it, so it can go only in the same change as that check.
    __slots__ = ("case", "classes_total", "classes_colorable",
                 "counterexamples", "sampled")

    def __init__(self, case: str, classes_total: int, classes_colorable: int,
                 counterexamples: list[dict] | None = None,
                 sampled: bool = False):
        self.case, self.classes_total = case, classes_total
        self.classes_colorable = classes_colorable
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.sampled = sampled

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def as_dict(self) -> dict:
        return {"case": self.case, "classes": self.classes_total,
                "colorable": self.classes_colorable, "sampled": self.sampled,
                "counterexamples": self.counterexamples, "ok": self.ok}


# shape -> (graph, psi sizes, targets), per vertex in sorted order
_CASES = {
    "P2": (path_graph(2), (1, 1), (6, 6)),
    "P3": (path_graph(3), (1, 2, 1), (5, 5, 5)),
    "P4": (path_graph(4), (1, 2, 2, 1), (5, 4, 4, 5)),
    "K13": (PlaneGraph(edges=[(0, 3), (1, 3), (2, 3)]), (1, 1, 1, 3),
            (4, 4, 4, 4)),
}


def psi_search(G: PlaneGraph, size: Sequence[int], target: Sequence[int],
               ) -> Callable[[Sequence[int]], tuple[int, ...] | None]:
    """The search for psi on G, set up once for the sizes and targets.

    The returned function takes the lists as bitmasks, one per vertex in
    sorted order, and returns psi as one color mask per vertex, or None if
    no psi exists.  A depth-first walk on an explicit stack places the
    vertices in order of decreasing size.  A vertex's candidates are the
    size(v)-sets of L(v) less its placed neighbors' colors that meet
    L(v) - L(u) for every neighbor u; a vertex's target is checked as soon
    as it and all its neighbors are placed.
    """
    verts = sorted(G.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in G.neighbors(v)] for v in verts]
    order = sorted(range(n), key=lambda i: -size[i])
    place = {v: k for k, v in enumerate(order)}
    placed_nbrs = [[w for w in nbrs[v] if place[w] < k]
                   for k, v in enumerate(order)]
    # due[k]: the vertices whose closed neighborhood is placed at step k
    due: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        due[max(place[w] for w in [v, *nbrs[v]])].append(v)

    def search(lists: Sequence[int]) -> tuple[int, ...] | None:
        psi = [0] * n

        def candidates(k: int):
            # psi(order[k]) given the vertices placed before it
            v = order[k]
            L = lists[v]
            avail = L
            for w in placed_nbrs[k]:
                avail &= ~psi[w]
            outs = [L & ~lists[w] for w in nbrs[v]]
            for c in _combos(avail, size[v]):
                if all(map(c.__and__, outs)):
                    yield c

        def keeps(v: int) -> bool:
            used = psi[v]
            for w in nbrs[v]:
                used |= psi[w]
            return (lists[v] & ~used).bit_count() >= target[v]

        stack = [candidates(0)]
        while stack:
            k = len(stack) - 1
            for psi[order[k]] in stack[-1]:
                if all(map(keeps, due[k])):
                    break
            else:
                stack.pop()
                continue
            if k + 1 == n:
                return tuple(psi)
            stack.append(candidates(k + 1))
        return None

    return search


def verify_case(case: str) -> CaseReport:
    """Check one component shape over every class of its canonical space.

    The classes are streamed one at a time as bitmasks, never held in a
    list, and decided by one coloring search and one psi search set up for
    the shape; a class is read as color sets only for a counterexample.
    """
    G, size, target = _CASES[case]
    verts = sorted(G.vertices)
    colors = coloring_search(G, {v: 4 for v in verts})
    psi = psi_search(G, size, target)
    total = colorable = 0
    bad = []
    for masks in canonical_masks(G, {v: 7 for v in verts}):
        total += 1
        if colors(masks) is None:
            continue
        colorable += 1
        if psi(masks) is None:
            lists = lists_from_masks(verts, masks)
            bad.append({"lists": {v: sorted(L) for v, L in lists.items()}})
    return CaseReport(case=case, classes_total=total,
                      classes_colorable=colorable, counterexamples=bad)


def verify_all_cases() -> list[CaseReport]:
    return [verify_case(c) for c in _CASES]
