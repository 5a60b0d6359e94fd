import random

import pytest
from hypothesis import given, settings, strategies as st

from chooselab.claims import build_claim, list_claims
from chooselab.nice import NotNice, frontier_split, is_nice, profile
from chooselab.plane import PlaneGraph


def _star_host(k):
    # center 0 with k-1 3-leaves, external degrees realized by stubs
    from chooselab.claims import build_claim
    return build_claim("star", f"k={k}")


def test_frontier_split_whole_graph_is_core():
    G = PlaneGraph(edges=[(0, 1), (1, 2)])
    core, frontier = frontier_split(G, {0, 1, 2})
    assert core == {0, 1, 2} and frontier == set()


def test_frontier_split_star_k3():
    bv = _star_host(3)
    core, frontier = frontier_split(bv.graph, set(bv.h))
    u = bv.labels["u"]
    assert core == {u}
    assert frontier == {bv.labels["v1"], bv.labels["v2"]}
    # and the frontier is an independent set here
    assert not any(bv.graph.has_edge(a, b)
                   for a in frontier for b in frontier if a < b)


def test_frontier_p2_component_on_catalog_fixture():
    bv = build_claim("cycle-5343-6434", "k=5")
    p = profile(bv.graph, set(bv.h))
    kinds = sorted(c.kind for c in p.components)
    assert kinds == ["P1", "P2"]


def test_is_nice_deficiency_and_bad_component():
    # vertex 0 loses three neighbors: deficiency 3
    G = PlaneGraph(edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
    ok, reason = is_nice(G, {0, 1})
    assert not ok and reason.startswith("DeficiencyTooLarge")

    # frontier component P5 (vertex 0 keeps a nonempty core)
    edges = [(i, i + 1) for i in range(5)]          # path 0..5
    stubs = []
    nid = 6
    stubs.append((0, nid)); nid += 1
    for v in range(1, 6):
        for _ in range(2):
            stubs.append((v, nid))
            nid += 1
    G = PlaneGraph(edges=edges + stubs)
    ok, reason = is_nice(G, set(range(6)))
    assert not ok and reason.startswith("BadComponent")
    with pytest.raises(NotNice):
        profile(G, set(range(6)))

    # empty core is its own reason
    G2 = PlaneGraph(edges=[(0, 1), (0, 2)])
    ok, reason = is_nice(G2, {0})
    assert not ok and reason == "EmptyCore" 


def test_every_catalog_fixture_matches_its_niceness_expectation():
    for c in list_claims():
        for name in c["variants"]:
            bv = build_claim(c["id"], name)
            ok, reason = is_nice(bv.graph, set(bv.h))
            assert ok == bv.nice_expected, (c["id"], name, reason)


def test_profile_star_k3():
    bv = _star_host(3)
    p = profile(bv.graph, set(bv.h))
    assert p.pairs()[bv.labels["u"]] == (11, 4)
    assert p.pairs()[bv.labels["v1"]] == (7, 4)


def test_profile_52_not_adj_42_inner_p3():
    bv = build_claim("52-not-adj-42", "base")
    p = profile(bv.graph, set(bv.h))
    assert p.pairs()[bv.labels["v1"]] == (5, 2)


def test_profile_k13_component():
    bv = build_claim("k2-no-3nbr", "k=6")
    p = profile(bv.graph, set(bv.h))
    assert p.pairs()[bv.labels["u"]] == (4, 1)      # K13 center
    assert p.pairs()[bv.labels["v2"]] == (4, 3)     # K13 leaf


def test_demand_conservation_identity():
    # core vertices: f + 4 (d_G - d_H) + sum over frontier nbrs (4 - g) = 15
    for c in list_claims():
        for name in c["variants"]:
            bv = build_claim(c["id"], name)
            try:
                p = profile(bv.graph, set(bv.h))
            except NotNice:
                continue
            for u in p.core:
                deficiency = bv.graph.degree(u) - len(bv.graph.neighbors(u)
                                                      & bv.h)
                lost = sum(4 - p.g[v]
                           for v in bv.graph.neighbors(u) & p.frontier)
                assert p.f[u] + 4 * deficiency + lost == 15, (c["id"], name)


def test_trivially_unchoosable_flagged_not_fatal():
    # a P4 inner vertex with an extra core neighbor pushing f below g
    # is reported, not raised: craft one directly
    G = PlaneGraph(edges=[(0, 1), (1, 2), (2, 3), (1, 4), (2, 4),
                          (4, 5), (4, 6),
                          (0, 7), (0, 8), (1, 9), (2, 10), (3, 11), (3, 12)])
    p = profile(G, {0, 1, 2, 3, 4})
    assert isinstance(p.trivially_unchoosable, list)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_classification_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    c = rng.choice(list_claims())
    bv = build_claim(c["id"], rng.choice(c["variants"]))
    try:
        p = profile(bv.graph, set(bv.h))
    except NotNice:
        return
    verts = bv.graph.vertices
    perm = dict(zip(verts, rng.sample(verts, len(verts))))
    G2 = PlaneGraph(edges=[(perm[a], perm[b]) for a, b in bv.graph.edges()],
                    vertices=[perm[v] for v in verts])
    p2 = profile(G2, {perm[v] for v in bv.h})
    assert sorted(c.kind for c in p2.components) == \
        sorted(c.kind for c in p.components)
    for v in bv.h:
        assert (p.f[v], p.g[v]) == (p2.f[perm[v]], p2.g[perm[v]])
