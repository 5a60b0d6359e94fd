import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chooselab.multicolor import (EdgeConflict, NotInList, SizeShort,
                                  TooLarge, choosable, colorable_ab,
                                  coloring_search,
                                  enumerate_assignments_canonical,
                                  find_coloring, lists_from_masks,
                                  validate_coloring)
from chooselab.plane import (PlaneGraph, complete_bipartite, cycle_graph,
                             grid_patch, path_graph)


def fs(*xs):
    return frozenset(xs)


def test_validate_edge():
    G = path_graph(2)
    L = {0: fs(1, 2), 1: fs(1, 2)}
    g = {0: 1, 1: 1}
    ok, v = validate_coloring(G, L, g, {0: fs(1), 1: fs(2)})
    assert ok and v is None
    ok, v = validate_coloring(G, L, g, {0: fs(1), 1: fs(1)})
    assert not ok and v == EdgeConflict(0, 1)
    ok, v = validate_coloring(G, L, g, {0: fs(1), 1: fs()})
    assert not ok and v == SizeShort(1)
    ok, v = validate_coloring(G, L, g, {0: fs(3), 1: fs(2)})
    assert not ok and v == NotInList(0)


def test_validate_standard_2fold_c5():
    G = cycle_graph(5)
    L = {i: fs(*range(5)) for i in range(5)}
    g = {i: 2 for i in range(5)}
    C = {i: fs(2 * i % 5, (2 * i + 1) % 5) for i in range(5)}
    assert validate_coloring(G, L, g, C) == (True, None)


def test_find_coloring_pigeonhole():
    G = path_graph(2)
    assert find_coloring(G, {0: fs(1), 1: fs(1)}, {0: 1, 1: 1}) is None


def test_find_coloring_c5_2fold():
    G = cycle_graph(5)
    L = {i: fs(*range(5)) for i in range(5)}
    C = find_coloring(G, L, {i: 2 for i in range(5)})
    assert C is not None
    assert validate_coloring(G, L, {i: 2 for i in range(5)}, C) == (True, None)


def _all_colorings_oracle(G, lists, demand):
    verts = sorted(G.vertices)
    pools = [list(itertools.combinations(sorted(lists[v]), demand[v]))
             for v in verts]
    for combo in itertools.product(*pools):
        C = {v: frozenset(c) for v, c in zip(verts, combo)}
        if all(not (C[u] & C[v]) for u, v in G.edges()):
            return C
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_find_coloring_agrees_with_enumeration_oracle(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    G = PlaneGraph(edges=edges or [(0, 1)], vertices=range(n))
    lists = {v: frozenset(rng.sample(range(1, 7), rng.randrange(1, 5)))
             for v in G.vertices}
    demand = {v: rng.randrange(0, min(3, len(lists[v]) + 1))
              for v in G.vertices}
    got = find_coloring(G, lists, demand)
    want = _all_colorings_oracle(G, lists, demand)
    assert (got is None) == (want is None)
    if got is not None:
        assert validate_coloring(G, lists, demand, got) == (True, None)


@pytest.mark.parametrize("a, b", [(15, 4), (30, 8)])
def test_find_coloring_grid_patch_32(a, b):
    # 1,089 vertices: deeper than the recursion limit if each vertex took a
    # stack frame of the interpreter
    G = grid_patch(32, 32)
    lists = {v: frozenset(range(1, a + 1)) for v in G.vertices}
    demand = {v: b for v in G.vertices}
    C = find_coloring(G, lists, demand)
    assert C is not None
    assert validate_coloring(G, lists, demand, C) == (True, None)


def test_find_coloring_backtracks_across_a_frame():
    # every slack is 1 and no vertex is colored, so 0 goes first and tries
    # {1}.  That leaves 1 and 2 the list {3} each, which the forward check
    # accepts; the conflict shows only in the frame of 1, so the search must
    # go back to 0 and take {2}.
    G = PlaneGraph(edges=[(0, 1), (0, 2), (1, 2)])
    lists = {0: fs(1, 2), 1: fs(1, 3), 2: fs(1, 3)}
    demand = {0: 1, 1: 1, 2: 1}
    C = find_coloring(G, lists, demand)
    assert C is not None
    assert validate_coloring(G, lists, demand, C) == (True, None)
    assert C[0] == fs(2)


def test_find_coloring_heap_stays_linear(monkeypatch):
    # a 3x3 grid beside a K4, all lists {1, 2, 3}: the search colors the
    # grid first and backtracks through each of its colorings before it
    # gives up, pushing thousands of keys; the stale ones must be dropped
    import heapq
    import types
    from chooselab import multicolor

    grid = grid_patch(2, 2)
    G = PlaneGraph(edges=grid.edges() + [(9 + i, 9 + j) for i in range(4)
                                         for j in range(i + 1, 4)])
    largest = 0

    def push(heap, entry):
        nonlocal largest
        heapq.heappush(heap, entry)
        largest = max(largest, len(heap))

    monkeypatch.setattr(multicolor, "heapq", types.SimpleNamespace(
        heappush=push, heappop=heapq.heappop, heapify=heapq.heapify))
    lists = {v: fs(1, 2, 3) for v in G.vertices}
    assert find_coloring(G, lists, {v: 1 for v in G.vertices}) is None
    n, m = len(G.vertices), G.num_edges()
    # 4 entries a vertex when a pick compacts the heap, plus what one run
    # of backtracking pushes: each vertex and each end of each edge once
    assert largest <= 5 * n + 2 * m


def test_enumerate_single_vertex():
    G = PlaneGraph(edges=[], vertices=[0])
    out = list(enumerate_assignments_canonical(G, {0: 2}))
    assert out == [{0: fs(1, 2)}]


def test_enumerate_edge_f1():
    G = path_graph(2)
    out = list(enumerate_assignments_canonical(G, {0: 1, 1: 1}))
    assert len(out) == 2
    assert out[0] == {0: fs(1), 1: fs(1)}          # shared cell first
    assert out[1] == {0: fs(1), 1: fs(2)}          # then disjoint


def test_enumerate_edge_f2_three_overlap_classes():
    G = path_graph(2)
    out = list(enumerate_assignments_canonical(G, {0: 2, 1: 2}))
    assert len(out) == 3
    overlaps = sorted(len(a[0] & a[1]) for a in out)
    assert overlaps == [0, 1, 2]


def test_enumerate_cap():
    G = complete_bipartite(3, 3)
    with pytest.raises(TooLarge):
        list(enumerate_assignments_canonical(G, {v: 2 for v in G.vertices},
                                             max_vectors=10))


# -- the plain lexicographic walk, kept as the reference for emission order ---

def _cell_vectors(subsets, remaining: dict[int, int], W: int):
    """All assignments n_S >= 0 with per-vertex sums `remaining` and total W."""
    if W < 0:
        return
    if not subsets:
        if W == 0 and all(r == 0 for r in remaining.values()):
            yield ()
        return
    S = subsets[0]
    hi = min([remaining[v] for v in S] + [W])
    for n in range(hi + 1):
        rem2 = dict(remaining)
        for v in S:
            rem2[v] -= n
        # remaining demand must still be coverable by the leftover weight
        if W - n < max(rem2.values(), default=0):
            continue
        if sum(rem2.values()) == 0 and W - n > 0:
            continue
        for tail in _cell_vectors(subsets[1:], rem2, W - n):
            yield (n,) + tail


def _realize(vec, subsets, verts) -> dict[int, frozenset[int]]:
    lists: dict[int, set[int]] = {v: set() for v in verts}
    color = 1
    for S, n in zip(subsets, vec):
        if n == 0:
            continue
        block = range(color, color + n)
        color += n
        for v in S:
            lists[v].update(block)
    return {v: frozenset(cs) for v, cs in lists.items()}


def _reference_assignments(G, f):
    verts = sorted(G.vertices)
    subsets = sorted(S for r in range(1, len(verts) + 1)
                     for S in itertools.combinations(verts, r))
    for W in range(max(f.values()), sum(f.values()) + 1):
        for vec in _cell_vectors(subsets, dict(f), W):
            yield _realize(vec, subsets, verts)


def _uniform(G, k):
    return {v: k for v in G.vertices}


@pytest.mark.parametrize("G, f, limit", [
    (path_graph(3), _uniform(path_graph(3), 7), None),   # all 410 classes
    (path_graph(4), {0: 3, 1: 5, 2: 2, 3: 4}, None),
    (cycle_graph(5), _uniform(cycle_graph(5), 2), None),
    # the reference takes 30 s over all 29,388 K2,4 classes
    (complete_bipartite(2, 4), _uniform(complete_bipartite(2, 4), 2), 5000),
    (cycle_graph(4), _uniform(cycle_graph(4), 3), None),
    (path_graph(4), _uniform(path_graph(4), 7), 2000),
], ids=["P3-f7", "P4-f3524", "C5-f2", "K24-f2", "C4-f3", "P4-f7"])
def test_enumeration_matches_reference_walk(G, f, limit):
    got = itertools.islice(enumerate_assignments_canonical(G, f), limit)
    want = itertools.islice(_reference_assignments(G, f), limit)
    assert list(got) == list(want)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-1, 3), min_size=1, max_size=4))
def test_enumeration_matches_reference_walk_random(demands):
    # the enumeration depends on the vertex set and f only, not on the edges
    G = PlaneGraph(edges=[], vertices=range(len(demands)))
    f = dict(enumerate(demands))
    assert list(enumerate_assignments_canonical(G, f)) == \
        list(_reference_assignments(G, f))


@pytest.mark.parametrize("n", [5, 7, 9], ids=["C5", "C7", "C9"])
def test_c5_not_2_choosable_with_constant_witness(n):
    # the constant lists are the first class; the test that prunes the walk
    # must not build its whole table before emitting it
    v = choosable(cycle_graph(n), 2, 1)
    assert not v.ok
    assert v.witness == {i: fs(1, 2) for i in range(n)}
    assert v.checked == 1


def _loop_choosable(G, f, g, max_vectors=None):
    """choosable as a loop over the public enumerator and find_coloring:
    (ok, checked, witness), or TooLarge.  find_coloring sets up a new
    search for each class, so no class is decided by a repair."""
    checked = 0
    try:
        for lists in enumerate_assignments_canonical(G, f, max_vectors):
            checked += 1
            if find_coloring(G, lists, g) is None:
                return False, checked, lists
    except TooLarge:
        return TooLarge
    return True, checked, None


def _verdict(G, f, g, max_vectors=None):
    try:
        v = choosable(G, f, g, max_vectors=max_vectors)
    except TooLarge:
        return TooLarge
    return v.ok, v.checked, v.witness


# the graphs and (f, g) of the benchmark's `lists` workload
LISTS_GRAPHS = [
    (cycle_graph(5), 2, 1), (complete_bipartite(2, 4), 2, 1),
    (cycle_graph(4), 2, 1), (complete_bipartite(2, 3), 2, 1),
    (cycle_graph(4), 3, 1), (complete_bipartite(1, 3), 3, 1),
    (path_graph(3), 4, 2),
]


@pytest.mark.parametrize("G, f, g", LISTS_GRAPHS + [(path_graph(2), 7, 4),
                                                    (path_graph(3), 7, 4)],
                         ids=["C5", "K24", "C4", "K23", "C4-f3", "K13", "P3",
                              "P2-7-4", "P3-7-4"])
def test_choosable_matches_enumerate_and_find_coloring(G, f, g):
    fm = {v: f for v in G.vertices}
    gm = {v: g for v in G.vertices}
    assert _verdict(G, f, g) == _loop_choosable(G, fm, gm)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_choosable_matches_enumerate_and_find_coloring_random(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(1, 6)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    G = PlaneGraph(edges=edges, vertices=range(n))
    f = {v: rng.randrange(0, 4) for v in G.vertices}
    g = {v: rng.randrange(0, 3) for v in G.vertices}
    # a cap keeps f = 3 on five vertices short, and checks that both
    # sides stop at the same class
    assert _verdict(G, f, g, 400) == _loop_choosable(G, f, g, 400)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_coloring_search_repair_agrees_with_a_fresh_search(seed):
    """One search fed a run of list assignments, each one color away from
    the last, so that most calls try a repair: it answers None exactly
    when a fresh search does, and otherwise a valid (L, g)-coloring that
    gives every vertex one frame."""
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    G = PlaneGraph(edges=edges, vertices=range(n))
    verts = sorted(G.vertices)
    demand = {v: rng.randrange(0, 3) for v in verts}
    search = coloring_search(G, demand)
    masks = [rng.getrandbits(6) for _ in verts]
    for _ in range(30):
        masks[rng.randrange(n)] ^= 1 << rng.randrange(6)
        got = search(masks)
        assert (got is None) == (coloring_search(G, demand)(masks) is None)
        if got is not None:
            assert sorted(i for i, _ in got) == list(range(n))
            coloring = lists_from_masks([verts[i] for i, _ in got],
                                        [m for _, m in got])
            assert validate_coloring(G, lists_from_masks(verts, masks),
                                     demand, coloring) == (True, None)


def test_coloring_search_keeps_a_coloring_that_still_fits():
    """Lists that still hold the last coloring get it back, frames in the
    same order, also after a call that answered None."""
    G = cycle_graph(5)
    search = coloring_search(G, {v: 2 for v in G.vertices})
    first = search([0b11111] * 5)
    assert first is not None
    assert search([0b111111] * 5) == first
    assert search([0b11] * 5) is None          # C5 is not (2, 2)-colorable
    tight = [0] * 5
    for i, m in first:
        tight[i] = m | 1 << 5 + i
    assert search(tight) == first


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6),
       st.sampled_from([(1, 9), (-40, 40), (10 ** 12, 10 ** 12 + 60),
                        (-10 ** 15, 10 ** 15)]))
def test_find_coloring_any_color_ids(seed, span):
    # sparse, large and negative ids: the colors are ranked into bits, so
    # the verdict is the oracle's and the coloring is the one found for
    # the same lists renamed 1, 2, ... in increasing order
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    G = PlaneGraph(edges=edges or [(0, 1)], vertices=range(n))
    pool = sorted(rng.sample(range(*span), 7))
    lists = {v: frozenset(rng.sample(pool, rng.randrange(0, 5)))
             for v in G.vertices}
    demand = {v: rng.randrange(0, 3) for v in G.vertices}
    got = find_coloring(G, lists, demand)
    want = _all_colorings_oracle(G, lists, demand)
    assert (got is None) == (want is None)
    if got is not None:
        assert validate_coloring(G, lists, demand, got) == (True, None)
    rank = {c: i + 1 for i, c in enumerate(pool)}
    renamed = find_coloring(G, {v: frozenset(rank[c] for c in L)
                                for v, L in lists.items()}, demand)
    assert (renamed is None) == (got is None)
    if got is not None:
        assert list(renamed) == list(got)
        assert renamed == {v: frozenset(rank[c] for c in C)
                           for v, C in got.items()}


def test_negative_demand_raises():
    G = path_graph(2)
    with pytest.raises(ValueError):
        find_coloring(G, {0: fs(1), 1: fs(2)}, {0: -1, 1: 1})
    with pytest.raises(ValueError):
        choosable(G, 1, -1)


def test_first_classes_do_not_build_a_whole_block(monkeypatch):
    # block 0 of 12 vertices has 2,048 cells and, at W = 2, 2,047
    # compositions; the first 20 classes need only the first few
    from collections import Counter
    from chooselab import multicolor

    made = Counter()
    compositions = multicolor._Blocks.compositions

    def counting(self, j, rem, w_after):
        for entry in compositions(self, j, rem, w_after):
            made[j] += 1
            yield entry

    monkeypatch.setattr(multicolor._Blocks, "compositions", counting)
    G = PlaneGraph(edges=[], vertices=range(12))
    first = list(itertools.islice(
        enumerate_assignments_canonical(G, _uniform(G, 1)), 20))
    assert first[0] == {v: fs(1) for v in range(12)}
    assert all(len(L) == 1 for lists in first for L in lists.values())
    assert len({tuple(sorted(lists.items())) for lists in first}) == 20
    assert made[0] <= 20
    assert sum(made.values()) < 2048


def test_c4_is_2_choosable():
    assert choosable(cycle_graph(4), 2, 1).ok


def test_k33_not_2_choosable():
    v = choosable(complete_bipartite(3, 3), 2, 1)
    assert not v.ok
    assert find_coloring(complete_bipartite(3, 3), v.witness,
                         {i: 1 for i in range(6)}) is None


def test_colorable_ab_c5():
    C5 = cycle_graph(5)
    assert colorable_ab(C5, 5, 2)
    assert not colorable_ab(C5, 4, 2)
    edgeless = PlaneGraph(edges=[], vertices=[0, 1, 2])
    assert colorable_ab(edgeless, 1, 1)


def test_choosable_implies_colorable():
    for G in (cycle_graph(4), path_graph(3)):
        for a, b in ((2, 1), (4, 2)):
            if choosable(G, a, b).ok:
                assert colorable_ab(G, a, b)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_choosable_monotone_in_f(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 5)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.6]
    G = PlaneGraph(edges=edges or [(0, 1)], vertices=range(n))
    f = {v: rng.randrange(1, 3) for v in G.vertices}
    g = {v: 1 for v in G.vertices}
    if choosable(G, f, g).ok:
        bumped = dict(f)
        bumped[min(G.vertices)] += 1
        assert choosable(G, bumped, g).ok


def _planar_triangle_free_fixtures():
    yield cycle_graph(6)
    yield cube_graph_small()
    yield PlaneGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4)])


def cube_graph_small():
    from chooselab.plane import cube_graph
    return cube_graph()


def _is_3_degenerate(G):
    left = set(G.vertices)
    while left:
        v = min(left, key=lambda x: sum(1 for w in G.neighbors(x) if w in left))
        if sum(1 for w in G.neighbors(v) if w in left) > 3:
            return False
        left.discard(v)
    return True


def test_triangle_free_planar_fixtures_4_choosable_sanity():
    # 3-degeneracy gives (4m, m)-choosability; spot-check (L,1)-colorings
    # on sampled 4-list assignments rather than sweeping the full Venn space.
    import random

    rng = random.Random(7)
    for G in _planar_triangle_free_fixtures():
        assert G.is_triangle_free()
        assert _is_3_degenerate(G)
        for _ in range(25):
            lists = {v: frozenset(rng.sample(range(1, 10), 4))
                     for v in G.vertices}
            assert find_coloring(G, lists, {v: 1 for v in G.vertices}) \
                is not None
