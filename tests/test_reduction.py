import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chooselab.multicolor import enumerate_assignments_canonical
from chooselab.plane import PlaneGraph, path_graph
from chooselab.reduction import (AssumeSet, AssumeThreeSets, BoundViolated,
                                 Color, ConcreteState, Delete, PairSave, Save,
                                 SymbolicState, run_scheme,
                                 run_scheme_all_splits, run_scheme_concrete,
                                 step_from_json, step_to_json,
                                 three_sets_feasible, three_sets_pick)


def fs(*xs):
    return frozenset(xs)


def state(G, prof, m=1):
    return SymbolicState.from_profile(G, prof, m)


# -- deg_del -----------------------------------------------------------------

def test_deg_del_isolated():
    G = PlaneGraph(edges=[], vertices=[0])
    tr = run_scheme(state(G, {0: (4, 4)}), [Delete(0)])
    assert tr.legal and tr.exhaustive


def test_deg_del_min_degree_arithmetic():
    # a vertex with list 15, demand 4, two live neighbors of demand 4
    G = path_graph(3)
    st0 = state(G, {0: (15, 4), 1: (15, 4), 2: (15, 4)})
    tr = run_scheme(st0, [Delete(1)])
    rec = tr.branches[0].records[0]
    assert rec.verdict == "legal" and rec.lhs == 15 and rec.rhs == 12


def test_deg_del_illegal():
    G = path_graph(3)
    st0 = state(G, {0: (7, 4), 1: (10, 3), 2: (7, 4)})
    tr = run_scheme(st0, [Delete(1)])
    assert not tr.legal
    rec = tr.branches[0].records[0]
    assert rec.lhs == 10 and rec.rhs == 11
    assert "IllegalDelete" in rec.detail


# -- par_col -----------------------------------------------------------------

def test_par_col_concrete_edge():
    G = path_graph(2)
    cst = ConcreteState.from_assignment(G, {0: fs(1, 2, 3), 1: fs(1, 2, 3)},
                                        {0: 1, 1: 1})
    out = run_scheme_concrete(
        cst, [AssumeSet("A", 1, (0,), avoids=(1,)), Color.of({0: ("A",)})])
    assert out is None  # no color of L(0) avoids L(1) here

    cst = ConcreteState.from_assignment(G, {0: fs(1, 2, 3), 1: fs(1, 2)},
                                        {0: 1, 1: 1})
    out = run_scheme_concrete(
        cst, [AssumeSet("A", 1, (0,), avoids=(1,)), Color.of({0: ("A",)})])
    assert out is not None
    assert out.lists[1] == fs(1, 2)
    assert out.g[0] == 0


def test_par_col_illegal_when_list_consumed():
    G = path_graph(2)
    cst = ConcreteState.from_assignment(G, {0: fs(1, 2), 1: fs(1, 2)},
                                        {0: 2, 1: 1})
    out = run_scheme_concrete(
        cst, [AssumeSet("A", 2, (0,)), Color.of({0: ("A",)})])
    assert out is None  # phi(0) eats all of L(1) while g(1) = 1


# -- save and pair save -------------------------------------------------------

def test_save_single_symbolic_effects():
    G = PlaneGraph(edges=[(0, 1), (0, 2)])
    st0 = state(G, {0: (11, 4), 1: (7, 4), 2: (7, 4)})
    tr = run_scheme(st0, [Save(0, 1)])
    assert tr.legal
    # existence bound printed: 11 - 7 >= 1
    assert tr.branches[0].records[0].lhs == 4


def test_save_single_cannot_avoid():
    G = path_graph(2)
    st0 = state(G, {0: (7, 4), 1: (7, 4)})
    tr = run_scheme(st0, [Save(0, 1)])
    assert not tr.legal
    assert "CannotAvoid" in tr.branches[0].records[0].detail


def test_save_pair_corners_and_bounds():
    G = PlaneGraph(edges=[(0, 2), (1, 2)])
    st0 = state(G, {0: (7, 4), 1: (7, 4), 2: (12, 4)})
    tr = run_scheme(st0, [PairSave(0, 1, 2)])
    assert tr.legal
    assert len(tr.branches) == 3

    st_bad = state(G, {0: (5, 4), 1: (5, 4), 2: (12, 4)})
    tr = run_scheme(st_bad, [PairSave(0, 1, 2)])
    assert not tr.legal
    assert "PairBoundFails" in tr.branches[0].records[0].detail


def test_save_pair_adjacent_flagged():
    G = PlaneGraph(edges=[(0, 1), (0, 2), (1, 2)])  # triangle: u1 ~ u2
    st0 = state(G, {0: (9, 2), 1: (9, 2), 2: (9, 4)})
    tr = run_scheme(st0, [PairSave(0, 1, 2)])
    assert any("adjacent" in f for f in tr.flags)


# -- three_sets_pick -----------------------------------------------------------

def test_three_sets_examples():
    S, T, R = three_sets_pick(fs(1, 2), fs(2, 3), fs(2), 3)
    assert (S, T, R) == (fs(1), fs(3), fs(2))
    S, T, R = three_sets_pick(fs(1), fs(1), fs(1), 1)
    assert (S, T, R) == (fs(), fs(), fs(1))
    S, T, R = three_sets_pick(fs(1), fs(2), fs(), 2)
    assert (S, T, R) == (fs(1), fs(2), fs())


def test_three_sets_bound_violated():
    with pytest.raises(BoundViolated):
        three_sets_pick(fs(1), fs(1), fs(1), 2)


def test_three_sets_lemma_hypothesis_implies_feasible():
    # |A| + |B| >= |C| + m forces a split (spot check over a small universe)
    universe = range(4)
    sets = [frozenset(c) for r in range(5)
            for c in itertools.combinations(universe, r)]
    for A, B, C in itertools.product(sets, repeat=3):
        for m in range(1, 4):
            if len(A) + len(B) >= len(C) + m:
                assert three_sets_feasible(A, B, C, m)
                S, T, R = three_sets_pick(A, B, C, m)
                assert S <= A - C and T <= B - C and R <= A & B & C
                assert len(S) + len(T) + len(R) == m


# -- assume_set ----------------------------------------------------------------

def test_assume_set_certified_and_uncertified():
    G = path_graph(3)
    st0 = state(G, {0: (7, 4), 1: (7, 4), 2: (5, 2)})
    tr = run_scheme(st0, [AssumeSet("A", 1, (0,), avoids=(1,), tag="case 1")])
    rec = tr.branches[0].records[0]
    assert rec.verdict == "assumed"          # 7 - 7 = 0 < 1
    assert "case 1" in rec.detail

    tr = run_scheme(st0, [AssumeSet("B", 2, (2,))])
    assert tr.branches[0].records[0].verdict == "certified"


def test_assume_set_infeasible_packing():
    G = PlaneGraph(edges=[], vertices=[0])
    st0 = state(G, {0: (1, 1)})
    steps = [AssumeSet("A", 1, (0,)),
             AssumeSet("B", 1, (0,), disjoint_from=("A",))]
    tr = run_scheme(st0, steps)
    assert not tr.legal
    assert "InfeasibleDeclaration" in tr.branches[0].records[-1].detail


# -- run_scheme ---------------------------------------------------------------

def _star_state(k):
    G = PlaneGraph(edges=[(0, i) for i in range(1, k)])
    prof = {0: (11, 4), **{i: (7, 4) for i in range(1, k)}}
    return G, SymbolicState.from_profile(G, prof)


def test_star_k3_repaired():
    _, st0 = _star_state(3)
    tr = run_scheme(st0, [Save(0, 1), Delete(1), Delete(0), Delete(2)])
    assert tr.legal and tr.exhaustive


def test_empty_scheme_not_exhaustive():
    _, st0 = _star_state(3)
    tr = run_scheme(st0, [])
    assert tr.legal and not tr.exhaustive


def test_star_k4_literal_fails_at_center_delete():
    _, st0 = _star_state(4)
    literal = [Save(0, 1), Delete(1), Save(0, 2), Delete(0), Delete(3)]
    tr = run_scheme(st0, literal)
    assert not tr.legal
    corners, rec = tr.first_illegal()
    assert rec.step == "<0>"
    assert rec.lhs == 9 and rec.rhs == 10


def test_homogeneity_of_verdicts():
    for m in (1, 2, 3):
        _, _ = _star_state(4)
        G = PlaneGraph(edges=[(0, i) for i in range(1, 4)])
        prof = {0: (11, 4), 1: (7, 4), 2: (7, 4), 3: (7, 4)}
        st_m = SymbolicState.from_profile(G, prof, m)
        good = [Save(0, 1), Delete(1), Save(0, 2), Delete(2), Delete(0),
                Delete(3)]
        bad = [Save(0, 1), Delete(1), Save(0, 2), Delete(0), Delete(3)]
        assert run_scheme(st_m, good, m=m).legal
        assert not run_scheme(st_m, bad, m=m).legal


def test_corner_vs_all_splits_agreement():
    G = PlaneGraph(edges=[(0, 2), (1, 2), (2, 3)])
    prof = {0: (6, 3), 1: (6, 3), 2: (9, 4), 3: (6, 3)}
    st0 = SymbolicState.from_profile(G, prof)
    for k in (1, 2, 3):
        scheme = [PairSave(0, 1, 2, k), Delete(2), Delete(0), Delete(1),
                  Delete(3)]
        corners = run_scheme(st0, scheme)
        full = run_scheme_all_splits(st0, scheme)
        assert corners.legal == full.legal
        assert corners.exhaustive == full.exhaustive


def test_pair_save_then_delete_legal_under_almost_deg():
    # the standard pattern: existence bound plus the almost-degenerate
    # inequality make the following delete legal in every corner
    import random

    rng = random.Random(5)
    for _ in range(120):
        f_u1 = rng.randrange(3, 9)
        f_u2 = rng.randrange(3, 9)
        extra = rng.randrange(0, 3)
        g_u1 = rng.randrange(1, f_u1 + 1)
        g_u2 = rng.randrange(1, f_u2 + 1)
        g_w = rng.randrange(0, 4)
        k = rng.randrange(1, 3)
        g_v = rng.randrange(1, 5)
        # choose |L(v)| to satisfy both hypotheses exactly or with slack
        f_v_exist = f_u1 + f_u2 - k           # existence upper bound
        f_v_almost = g_v + g_u1 + g_u2 + g_w - k  # almost-degenerate bound
        f_v = max(g_v, f_v_almost, 3)
        if f_v > f_v_exist or k > min(g_u1, g_u2):
            continue
        edges = [(0, 2), (1, 2), (2, 3)]
        G = PlaneGraph(edges=edges)
        prof = {0: (f_u1, g_u1), 1: (f_u2, g_u2), 2: (f_v, g_v),
                3: (g_w + extra + 10, g_w)}
        st0 = SymbolicState.from_profile(G, prof)
        tr = run_scheme(st0, [PairSave(0, 1, 2, k), Delete(2)])
        assert tr.legal, (prof, k)


# -- concrete/symbolic soundness ------------------------------------------------

def _soundness_configs():
    # small configurations, sizes <= 7, exercised over every canonical class
    p3 = path_graph(3)
    yield (p3, {0: (4, 2), 1: (5, 2), 2: (4, 2)},
           [Save(1, 0), Delete(0), Delete(1), Delete(2)])
    star = PlaneGraph(edges=[(0, 2), (1, 2)])
    yield (star, {0: (4, 1), 1: (4, 1), 2: (6, 3)},
           [PairSave(0, 1, 2), Delete(2), Delete(0), Delete(1)])
    yield (p3, {0: (3, 1), 1: (5, 2), 2: (4, 3)},
           [Save(1, 2), Delete(0), Delete(1), Delete(2)])


def test_concrete_soundness_on_small_configs():
    for G, prof, scheme in _soundness_configs():
        st0 = SymbolicState.from_profile(G, prof)
        tr = run_scheme(st0, scheme)
        assert tr.legal and tr.exhaustive
        f = {v: fg[0] for v, fg in prof.items()}
        demand = {v: fg[1] for v, fg in prof.items()}
        count = 0
        for lists in enumerate_assignments_canonical(G, f):
            count += 1
            cst = ConcreteState.from_assignment(G, lists, dict(demand))
            assert run_scheme_concrete(cst, scheme) is not None, lists
        assert count > 10


# -- serialization ----------------------------------------------------------------

def test_step_json_roundtrip():
    steps = [Delete(3), Save(0, 1, 2), PairSave(0, 1, 2, 1, assume="x"),
             Color.of({0: ("A", "B")}),
             AssumeSet("A", 1, (0,), avoids=(1,), tag="t"),
             AssumeThreeSets("S", "T", "R", 0, 1, 2, 2, minus=("A",),
                             z_cap=9, s_avoids_c=False, tag="t"),
             ]
    for s in steps:
        assert step_from_json(step_to_json(s)) == s
