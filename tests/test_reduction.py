import dataclasses
import itertools
import math
from typing import Callable

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chooselab.claims import build_claim, initial_state, list_claims
from chooselab.multicolor import enumerate_assignments_canonical
from chooselab.plane import PlaneGraph, cycle_graph, path_graph
from chooselab.reduction import (AssumeSet, AssumeThreeSets, BoundViolated,
                                 BranchTrace, Color, ConcreteState, Delete,
                                 PairSave, Save, SchemeError, SchemeTrace,
                                 SetVar, Step, SymbolicState, _all_splits,
                                 _corners, run_scheme, run_scheme_all_splits,
                                 run_scheme_concrete, step_from_json,
                                 step_to_json, three_sets_feasible,
                                 three_sets_pick)


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


# -- the branch walk against the per-leaf replay -----------------------------------

# The replay that the branch walk in reduction._run_space replaced, kept as the
# reference: every branch runs all its steps from the initial state.

def _run_combo(state: SymbolicState, steps: list[Step],
               splits: tuple[tuple[int, int, int], ...], label: tuple[str, ...],
               m: int, flags: list[str]) -> BranchTrace:
    st = state.copy()
    trace = BranchTrace(corners=label)
    split_iter = iter(splits)
    for step in steps:
        split = next(split_iter) if step.branch_point else None
        if not step.effect(st, split, m, trace.records, flags):
            break
    trace.all_deleted = not st.live
    return trace


def _run_space(state: SymbolicState, steps: list[Step], m: int,
               space: Callable[[int], list]) -> SchemeTrace:
    """One branch per choice of a (split, label) pair at each branch point."""
    flags: list[str] = []
    spaces = [space(s.k * m) for s in steps if s.branch_point]
    branches = []
    for combo in itertools.product(*spaces):
        splits = tuple(sp for sp, _ in combo)
        label = tuple(lab for _, lab in combo)
        branches.append(_run_combo(state, steps, splits, label, m, flags))
    return SchemeTrace(branches=branches, flags=sorted(set(flags)))


_WALKS = [(run_scheme, _corners), (run_scheme_all_splits, _all_splits)]


def _outcome(run, *args):
    """The trace as a dict, or the SchemeError it raises (type and message)."""
    try:
        return run(*args).as_dict()
    except SchemeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", range(1, 6))
def test_walk_matches_per_leaf_replay_on_catalog(m):
    for c in list_claims():
        for name in c["variants"]:
            bv = build_claim(c["id"], name)
            for steps in (bv.scheme, bv.literal or []):
                for walk, space in _WALKS:
                    state = initial_state(bv, m)
                    assert (walk(state, steps, m).as_dict()
                            == _run_space(state, steps, m, space).as_dict()), \
                        (c["id"], name, walk.__name__)


def test_set_vars_are_frozen():
    # sibling branches share the SetVar objects of their common prefix
    var = SetVar(1, frozenset({0}), frozenset())
    with pytest.raises(dataclasses.FrozenInstanceError):
        var.size = 2


# The fuzz runs on C5 (edges 0-1, 1-2, 2-3, 3-4, 4-0); vertex 5 is outside it.
_C5 = cycle_graph(5)
_EVEN = {v: (9, 2) for v in range(5)}
_V = st.integers(0, 4)
_K = st.integers(1, 2)
_SET = st.sampled_from(["A", "B", "S", "T", "R", "S0", "T2"])
_FUZZ_STEP = st.one_of(
    st.builds(Delete, _V),
    st.builds(Save, _V, _V, _K),
    st.builds(lambda u1, d, v, k: PairSave(u1, (u1 + d) % 5, v, k), _V,
              st.integers(1, 4), _V, _K),
    st.builds(AssumeSet, st.sampled_from("AB"), st.integers(0, 2),
              st.lists(st.integers(0, 5), max_size=2).map(tuple),
              avoids=st.lists(_V, max_size=1).map(tuple)),
    st.dictionaries(st.integers(0, 4), st.lists(_SET, min_size=1, max_size=2),
                    min_size=1, max_size=2).map(Color.of),
    st.builds(AssumeThreeSets, st.just("S"), st.just("T"), st.just("R"), _V,
              _V, _V, _K, minus=st.sampled_from([(), ("A",)]),
              z_cap=st.sampled_from([None, 3])),
)
_PROFILE = st.fixed_dictionaries({v: st.tuples(st.integers(2, 10),
                                               st.integers(1, 3))
                                  for v in range(5)})

# each shape the walk must get right, on the profile _EVEN
_HALT_BEFORE_BRANCH = [Save(0, 1), PairSave(0, 2, 1), Delete(0)]
_HALT_BETWEEN_BRANCHES = [PairSave(0, 2, 1), Save(3, 4), PairSave(3, 0, 4),
                          Delete(1)]
_THREE_BRANCH_POINTS = [PairSave(0, 2, 1), PairSave(1, 3, 2),
                        AssumeThreeSets("S", "T", "R", 3, 0, 4), Delete(4),
                        Delete(1)]
# T2 is declared only where t > 0 and S0 only where s > 0, so the corners
# raise different messages: the first branch in product order must win
_RAISES_BY_BRANCH = [PairSave(0, 2, 1), Color.of({3: ("T2",)}),
                     Color.of({4: ("S0",)})]


def _halts(steps, splits):
    """Where one branch stops: the index of its halting step, the SchemeError
    message it raises, or None if it runs every step."""
    st, split_iter = SymbolicState.from_profile(_C5, _EVEN), iter(splits)
    for i, step in enumerate(steps):
        split = next(split_iter) if step.branch_point else None
        try:
            if not step.effect(st, split, 1, [], []):
                return i
        except SchemeError as exc:
            return str(exc)
    return None


def test_fuzz_examples_have_their_shapes():
    def every_branch(steps):
        spaces = [_corners(s.k) for s in steps if s.branch_point]
        return [_halts(steps, [sp for sp, _ in combo])
                for combo in itertools.product(*spaces)]

    assert set(every_branch(_HALT_BEFORE_BRANCH)) == {0}
    assert set(every_branch(_HALT_BETWEEN_BRANCHES)) == {1}
    assert set(every_branch(_THREE_BRANCH_POINTS)) == {None}
    assert every_branch(_RAISES_BY_BRANCH)[:2] == [
        "<color 3:T2>: set T2 is not declared",
        "<color 4:S0>: set S0 is not declared"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(steps=st.lists(_FUZZ_STEP, max_size=10), profile=_PROFILE,
       m=st.integers(1, 2))
@example(steps=_HALT_BEFORE_BRANCH, profile=_EVEN, m=1)
@example(steps=_HALT_BETWEEN_BRANCHES, profile=_EVEN, m=1)
@example(steps=_THREE_BRANCH_POINTS, profile=_EVEN, m=2)
@example(steps=_RAISES_BY_BRANCH, profile=_EVEN, m=1)
def test_walk_matches_per_leaf_replay_fuzz(steps, profile, m):
    """Same branches, records, flags and labels as the per-leaf replay, or
    the same SchemeError.  Sharing one records list between sibling
    branches fails this test."""
    assume(math.prod(len(_all_splits(s.k * m)) for s in steps
                     if s.branch_point) <= 400)
    state = SymbolicState.from_profile(_C5, profile, m)
    for walk, space in _WALKS:
        assert (_outcome(walk, state, steps, m)
                == _outcome(_run_space, state, steps, m, space))
