"""The psi search against the hand-written constructions it replaced.

`_l1`, `_meets` and `_psi_p2` .. `_psi_k13` below are the key lemma's
four constructions as `chooselab.key_lemma` once wrote them out, kept
verbatim as the reference for `psi_search`.
"""

import itertools

import pytest

from chooselab import key_lemma
from chooselab.key_lemma import _CASES, psi_search, verify_case
from chooselab.multicolor import (canonical_masks, find_coloring,
                                  lists_from_masks)
from chooselab.plane import PlaneGraph, path_graph


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


_REFERENCE = {"P2": _psi_p2, "P3": _psi_p3, "P4": _psi_p4, "K13": _psi_k13}


@pytest.mark.parametrize("case, limit", [("P2", None), ("P3", None),
                                         ("P4", 5000), ("K13", 5000)])
def test_psi_search_agrees_with_reference(case, limit):
    G, size, target = _CASES[case]
    verts = sorted(G.vertices)
    search = psi_search(G, size, target)
    construct = _REFERENCE[case]
    classes = canonical_masks(G, {v: 7 for v in verts})
    seen = set()
    for masks in itertools.islice(classes, limit):
        found = search(masks) is not None
        lists = lists_from_masks(verts, masks)
        assert found == (construct(lists, G) is not None), lists
        seen.add(found)
    assert seen == {True, False}


def test_p2_overlap_table():
    """On the eight P2 classes, one per overlap: psi exists iff the class
    is colorable iff the union has >= 8 colors."""
    G, size, target = _CASES["P2"]
    search = psi_search(G, size, target)
    rows = 0
    for masks in canonical_masks(G, {0: 7, 1: 7}):
        lists = lists_from_masks([0, 1], masks)
        colorable = find_coloring(G, lists, {0: 4, 1: 4}) is not None
        assert colorable == (len(lists[0] | lists[1]) >= 8)
        assert (search(masks) is not None) == colorable
        rows += 1
    assert rows == 8        # one class per overlap 0..7


def test_p2_exhaustive():
    r = verify_case("P2")
    assert r.classes_total == 8
    assert r.classes_colorable == 7
    assert r.ok and not r.sampled


def test_p3_exhaustive():
    r = verify_case("P3")
    assert r.ok and not r.sampled
    assert r.classes_total > 100
    assert 0 < r.classes_colorable < r.classes_total


def test_counterexamples_are_reported_as_lists(monkeypatch):
    # no psi keeps 7 colors of a 7-color list: every colorable class fails
    monkeypatch.setitem(key_lemma._CASES, "P2",
                        (path_graph(2), (1, 1), (7, 7)))
    r = verify_case("P2")
    assert not r.ok
    assert len(r.counterexamples) == r.classes_colorable == 7
    assert r.counterexamples[0] == {"lists": {0: [1, 2, 3, 4, 5, 6, 7],
                                              1: [2, 3, 4, 5, 6, 7, 8]}}
