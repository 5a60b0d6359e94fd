"""Exhaustive verification of the partial-coloring constructions behind the
frontier-component profiles, at unit scale.

For each component shape F (P2, P3, P4, K13) with 7-color lists, every
canonical list class that admits an (L, 4)-coloring of F must support the
stated partial coloring psi, and applying psi must leave every vertex at
least its profile list size:

    P2:  psi = (A, B), A in L(v1)\\L(v2), B in L(v2)\\L(v1); targets 6, 6.
    P3:  psi = (A, B, C) with B a 2-set containing B1 u B2; targets 5, 5, 5.
    P4:  psi = (A1, B, C, B4) with A3 & B2 = 0; targets 5, 4, 4, 5.
    K13: psi = (A1, A2, A3, B) with B a 3-set containing B1 u B2 u B3;
         targets 4, 4, 4 for the leaves and 4 for the center.

Every shape is exhausted: each canonical class is streamed from the
enumerator, checked for colorability and, if colorable, for psi.  P2 has
8 classes (one per overlap 0..7), P3 has 410, and P4 and K13 have 154,279
each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .multicolor import enumerate_assignments_canonical, find_coloring
from .plane import PlaneGraph, path_graph


@dataclass
class CaseReport:
    case: str
    classes_total: int
    classes_colorable: int
    counterexamples: list[dict] = field(default_factory=list)
    # always False: every class is checked.  perfbench's `lists` workload
    # reads it, so it can go only in the same change as that check.
    sampled: bool = False

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def as_dict(self) -> dict:
        return {"case": self.case, "classes": self.classes_total,
                "colorable": self.classes_colorable, "sampled": self.sampled,
                "counterexamples": self.counterexamples, "ok": self.ok}


def _l1(lists: dict[int, frozenset[int]], G: PlaneGraph,
        psi: dict[int, frozenset[int]]) -> dict[int, frozenset[int]]:
    out = {}
    for v, L in lists.items():
        drop = set(psi.get(v, frozenset()))
        for w in G.neighbors(v):
            drop |= psi.get(w, frozenset())
        out[v] = L - drop
    return out


def _meets(lists, G, psi, targets) -> bool:
    l1 = _l1(lists, G, psi)
    return all(len(l1[v]) >= t for v, t in targets.items())


def _psi_p2(lists, G):
    A_pool = sorted(lists[0] - lists[1])
    B_pool = sorted(lists[1] - lists[0])
    targets = {0: 6, 1: 6}
    for a in A_pool:
        for b in B_pool:
            psi = {0: frozenset({a}), 1: frozenset({b})}
            if _meets(lists, G, psi, targets):
                return psi
    return None


def _psi_p3(lists, G):
    # path 0-1-2; middle vertex 1
    targets = {0: 5, 1: 5, 2: 5}
    A_pool = sorted(lists[0] - lists[1])
    C_pool = sorted(lists[2] - lists[1])
    B1_pool = sorted(lists[1] - lists[0])
    B2_pool = sorted(lists[1] - lists[2])
    for b1 in B1_pool:
        for b2 in B2_pool:
            base = {b1, b2}
            fillers = [frozenset()] if len(base) == 2 else \
                [frozenset({x}) for x in sorted(lists[1] - base)]
            for filler in fillers:
                B = frozenset(base) | filler
                for a in A_pool:
                    for c in C_pool:
                        psi = {0: frozenset({a}), 1: B, 2: frozenset({c})}
                        if _meets(lists, G, psi, targets):
                            return psi
    return None


def _psi_p4(lists, G):
    # path 0-1-2-3
    targets = {0: 5, 1: 4, 2: 4, 3: 5}
    A1 = sorted(lists[0] - lists[1])
    A2 = sorted(lists[1] - lists[2])
    A3 = sorted(lists[2] - lists[3])
    B2 = sorted(lists[1] - lists[0])
    B3 = sorted(lists[2] - lists[1])
    B4 = sorted(lists[3] - lists[2])
    for a3 in A3:
        for b2 in B2:
            if a3 == b2:
                continue  # the paper picks them disjoint
            for a2 in A2:
                base_b = {a2, b2}
                b_fill = [frozenset()] if len(base_b) == 2 else \
                    [frozenset({x}) for x in sorted(lists[1] - base_b - {a3})]
                for fb in b_fill:
                    B = frozenset(base_b) | fb
                    if a3 in B or len(B) != 2:
                        continue
                    for b3 in B3:
                        base_c = {a3, b3}
                        c_fill = [frozenset()] if len(base_c) == 2 else \
                            [frozenset({x}) for x in sorted(lists[2] - base_c - B)]
                        for fc in c_fill:
                            C = frozenset(base_c) | fc
                            if C & B or len(C) != 2:
                                continue
                            for a1 in A1:
                                for b4 in B4:
                                    psi = {0: frozenset({a1}), 1: B,
                                           2: C, 3: frozenset({b4})}
                                    if _meets(lists, G, psi, targets):
                                        return psi
    return None


def _psi_k13(lists, G):
    # leaves 0, 1, 2; center 3
    targets = {0: 4, 1: 4, 2: 4, 3: 4}
    A = [sorted(lists[i] - lists[3]) for i in range(3)]
    Bp = [sorted(lists[3] - lists[i]) for i in range(3)]
    for b1 in Bp[0]:
        for b2 in Bp[1]:
            for b3 in Bp[2]:
                base = {b1, b2, b3}
                need = 3 - len(base)
                pools = [frozenset()] if need == 0 else \
                    [frozenset(c) for c in
                     itertools.combinations(sorted(lists[3] - base), need)]
                for fill in pools:
                    B = frozenset(base) | fill
                    for a1 in A[0]:
                        for a2 in A[1]:
                            for a3 in A[2]:
                                psi = {0: frozenset({a1}), 1: frozenset({a2}),
                                       2: frozenset({a3}), 3: B}
                                if _meets(lists, G, psi, targets):
                                    return psi
    return None


_CASES = {
    "P2": (path_graph(2), _psi_p2),
    "P3": (path_graph(3), _psi_p3),
    "P4": (path_graph(4), _psi_p4),
    "K13": (PlaneGraph(edges=[(0, 3), (1, 3), (2, 3)]), _psi_k13),
}


def verify_case(case: str) -> CaseReport:
    """Check one component shape over every class of its canonical space.

    The classes are streamed one at a time, never held in a list.
    """
    if case not in _CASES:
        raise KeyError(case)
    G, construct = _CASES[case]
    f = {v: 7 for v in G.vertices}
    g4 = {v: 4 for v in G.vertices}
    total = colorable = 0
    bad = []
    for lists in enumerate_assignments_canonical(G, f):
        total += 1
        if find_coloring(G, lists, g4) is None:
            continue
        colorable += 1
        if construct(lists, G) is None:
            bad.append({"lists": {v: sorted(L) for v, L in lists.items()}})
    return CaseReport(case=case, classes_total=total,
                      classes_colorable=colorable, counterexamples=bad)


def verify_p2_overlap_table() -> list[dict]:
    """The eight P2 classes by overlap: colorable iff the union has >= 8
    colors, and the construction succeeds exactly on those."""
    G = path_graph(2)
    rows = []
    for o in range(8):
        l0 = frozenset(range(1, 8))
        l1 = frozenset(range(8 - o, 15 - o))
        lists = {0: l0, 1: l1}
        colorable = find_coloring(G, lists, {0: 4, 1: 4}) is not None
        psi = _psi_p2(lists, G) if colorable else None
        rows.append({"overlap": o, "union": len(l0 | l1),
                     "colorable": colorable,
                     "psi_found": psi is not None})
    return rows


def verify_all_cases() -> list[CaseReport]:
    return [verify_case(c) for c in _CASES]
