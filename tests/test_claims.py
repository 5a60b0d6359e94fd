import random

import pytest

from chooselab.claims import (BuiltVariant, UnknownClaim, _fg, build_claim,
                              claim_ids, golden_catalog, initial_state,
                              list_claims, verify_all, verify_claim)
from chooselab.nice import NotNice, profile
from chooselab.plane import PlaneGraph
from chooselab.reduction import (ConcreteState, NodeCapReached,
                                 SymbolicState, run_scheme,
                                 run_scheme_all_splits, run_scheme_concrete,
                                 step_from_json, step_to_json)

MINIMALITY_CLAIMS = ("cycle-444-41-52", "cycle-51-434", "cycle-5-34-51")
KNOWN_DISCREPANCY = "cycle-63-434"


def _variants(cid):
    return golden_catalog()[cid]["variants"]


def test_catalog_index():
    idx = list_claims()
    ids = [c["id"] for c in idx]
    assert len(ids) >= 24
    assert "star" in ids
    assert "path-3443443" in ids
    anchors = {c["id"]: c["anchor"] for c in idx}
    assert anchors["star"] == "Claim 3.2"


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        verify_claim("nope")
    with pytest.raises(UnknownClaim):
        build_claim("star", "k=9")


def test_build_star_k3():
    bv = build_claim("star", "k=3")
    assert len(bv.h) == 3
    assert len(bv.scheme) == 4
    p = profile(bv.graph, set(bv.h))
    assert p.pairs()[bv.labels["u"]] == (11, 4)


def test_build_cycle_4443_first_variant_profile():
    bv = build_claim("cycle-4443", "d3=4,d4=4")
    p = profile(bv.graph, set(bv.h)).pairs()
    got = [p[bv.labels[f"v{i}"]] for i in (1, 2, 3, 4)]
    assert got == [(9, 4), (5, 3), (5, 2), (5, 3)]


def test_build_5_on_5334_fixture():
    bv = build_claim("5-on-5334-no-41", "v6-ne-v3")
    assert len(bv.h) == 6
    p = profile(bv.graph, set(bv.h)).pairs()
    assert p[bv.labels["v2"]] == (9, 4)


def test_all_fixtures_triangle_free():
    for cid in claim_ids():
        for name in _variants(cid):
            bv = build_claim(cid, name)
            assert bv.graph.is_triangle_free(), (cid, name)


def test_golden_profiles_match_computed():
    """Every printed (f, g) value reproduces from the profile computation."""
    golden = golden_catalog()
    values = 0
    for cid, entry in golden.items():
        for vname, var in entry["variants"].items():
            if "profile" not in var:
                continue
            bv = build_claim(cid, vname)
            p = profile(bv.graph, set(bv.h)).pairs()
            for lab, fg in var["profile"].items():
                assert p[bv.labels[lab]] == tuple(fg), (cid, vname, lab)
                values += 1
    assert values >= 60


def test_catalog_steps_roundtrip():
    """Every stored step, decoded with its vertex names kept as they are,
    is exactly what the step codec writes back: no missing, extra or
    misspelled field."""
    steps = 0
    for cid, entry in golden_catalog().items():
        for vname, var in entry["variants"].items():
            for d in var["scheme"] + var.get("literal", []):
                assert step_to_json(step_from_json(d, str)) == d, (cid, vname, d)
                steps += 1
    assert steps == 395


STEP_OPS = {"delete", "save", "pair_save", "color", "assume",
            "assume_three_sets"}


def _step_vertices(d):
    named = [d[k] for k in ("u", "v", "u1", "u2", "a", "b", "c") if k in d]
    return (named + d.get("subset_of", []) + d.get("avoids", [])
            + list(d.get("phi", {})))


def test_catalog_well_formed():
    """Every op is a known kind, every vertex name is a host vertex and
    every dependency is a claim, so a typo fails here by name."""
    catalog = golden_catalog()
    for cid, entry in catalog.items():
        for dep in entry["depends_on"]:
            assert dep in catalog, (cid, "depends_on", dep)
        for vname, var in entry["variants"].items():
            where = f"{cid}/{vname}"
            hosts = set(var["degrees"])
            for edge in var["h_edges"]:
                assert set(edge) <= hosts, (where, "h_edges", edge)
            for lab in var.get("profile", {}):
                assert lab in hosts, (where, "profile", lab)
            state = var.get("state", {})
            demand = state.get("demand")
            for lab in [*state.get("lists", {}),
                        *(demand if isinstance(demand, dict) else ())]:
                assert lab in hosts, (where, "state", lab)
            for d in var["scheme"] + var.get("literal", []):
                assert d["op"] in STEP_OPS, (where, d)
                for lab in _step_vertices(d):
                    assert lab in hosts, (where, d["op"], lab)


def test_verify_all_claims_except_known_discrepancy():
    summary = verify_all()
    failed = set(summary.failed_ids)
    assert failed == {KNOWN_DISCREPANCY}
    for rep in summary.reports:
        for v in rep.variants:
            assert v.profile_ok in (True, None), (rep.claim_id, v.name)
            assert v.triangle_free and v.nice_as_expected


def test_assumptions_confined_to_minimality_claims():
    summary = verify_all()
    for rep in summary.reports:
        if rep.claim_id in MINIMALITY_CLAIMS:
            assert rep.assumptions, rep.claim_id
        else:
            assert not rep.assumptions, (rep.claim_id, rep.assumptions[:3])


def test_star_literal_discrepancy():
    rep = verify_claim("star")
    by_name = {v.name: v for v in rep.variants}
    assert by_name["k=3"].literal_trace is None
    for k, needed, have in (("k=4", 10, 9), ("k=5", 9, 8)):
        lit = by_name[k].literal_trace
        assert lit is not None and not lit.legal
        corners, rec = lit.first_illegal()
        assert rec.step == "<0>"        # the center delete
        assert (rec.rhs, rec.lhs) == (needed, have)
    lit6 = by_name["k=6"].literal_trace
    assert lit6 is not None and not lit6.legal


def test_star_repaired_schemes_verify():
    rep = verify_claim("star")
    assert rep.passed
    assert not rep.assumptions


def test_verify_claim_at_scale_2_and_3():
    for m in (2, 3):
        summary = verify_all(m=m)
        assert set(summary.failed_ids) == {KNOWN_DISCREPANCY}, m


def test_verify_all_with_exclusion():
    summary = verify_all(exclude=(KNOWN_DISCREPANCY,))
    assert summary.passed
    assert summary.skipped == [KNOWN_DISCREPANCY]


def test_corner_sufficiency_on_catalog_schemes():
    """Corner-only evaluation agrees with all-splits evaluation."""
    for cid in claim_ids():
        for name in _variants(cid):
            bv = build_claim(cid, name)
            state = initial_state(bv)
            corners = run_scheme(state, bv.scheme)
            full = run_scheme_all_splits(state, bv.scheme)
            assert corners.legal == full.legal, (cid, name)
            assert corners.exhaustive == full.exhaustive


def test_corrupted_profile_breaks_some_claim():
    bv = build_claim("star", "k=3")
    p = profile(bv.graph, set(bv.h)).pairs()
    v1 = bv.labels["v1"]
    p[v1] = (p[v1][0] - 1, p[v1][1])
    st = SymbolicState.from_profile(bv.graph, p)
    tr = run_scheme(st, bv.scheme)
    assert not tr.legal
    assert "IllegalDelete" in tr.first_illegal()[1].detail


# the exact slack map: single f-decrements that do NOT break any variant
EXPECTED_SLACK = {
    "min-degree": ["v"],
    "k2-no-3nbr": ["u"],
    "cycle-4443": ["v3"],
    "52-not-adj-42": ["v1"],
    "cycle-k33-4": ["v1", "v2"],
    "cycle-52-344": ["v4"],
    "cycle-5343-6434": ["v1"],
    "cycle-51-434": ["v1"],
    "5-on-5334-no-41": ["v1"],
    "path-334-43": ["v2"],
    "path-3434-43": ["v3", "v4"],
    "path-41-41-41": ["v1", "v2"],
    "path-3443443": ["v4"],
    "path-31-52-41": ["v1", "v2"],
    "5-on-5343-no-41": ["v1", "v4"],
    "cycle-5-34-51": ["v4"],
    "6-two-6334": ["v1", "v2", "v5"],
}


def _decrement_survives(cid: str, lab: str) -> bool:
    for name, var in _variants(cid).items():
        if not var.get("profile") or lab not in var["profile"]:
            continue
        bv = build_claim(cid, name)
        p = profile(bv.graph, set(bv.h)).pairs()
        vid = bv.labels[lab]
        p[vid] = (p[vid][0] - 1, p[vid][1])
        tr = run_scheme(SymbolicState.from_profile(bv.graph, p), bv.scheme)
        if not (tr.legal and tr.exhaustive):
            return False
    return True


def test_mutation_tightness_map():
    """Lowering any single profile value by one unit breaks a variant,
    except at the recorded slack vertices (the schemes are near-tight)."""
    for cid in claim_ids():
        labels = sorted({lab for var in _variants(cid).values()
                         for lab in (var.get("profile") or {})})
        if not labels:
            continue
        slack = [lab for lab in labels if _decrement_survives(cid, lab)]
        assert slack == EXPECTED_SLACK.get(cid, []), cid
        if cid != "min-degree":
            assert len(slack) < len(labels), cid


EXPECTED_ASSUMED_STEPS = {
    ("cycle-444-41-52", "k=4"): ["<1>", "<3>", "<assume A2 size 1m>",
                                 "<assume A3 size 1m>", "<assume B3 size 1m>",
                                 "<assume B4 size 1m>"],
    ("cycle-444-41-52", "k=5"): ["<1>", "<3>", "<assume A2 size 1m>",
                                 "<assume A3 size 1m>", "<assume B3 size 1m>",
                                 "<assume B4 size 1m>",
                                 "<assume X6 size 1m>"],
    ("cycle-51-434", "no-edge-v3v5"): ["<2>", "<assume A2 size 1m>",
                                       "<assume A4 size 1m>",
                                       "<assume A5 size 1m>",
                                       "<assume B2 size 1m>",
                                       "<assume B4 size 1m>",
                                       "<assume B5 size 1m>"],
    ("cycle-5-34-51", "no-chord"): ["<1>", "<assume A4 size 1m>",
                                    "<assume A5 size 1m>",
                                    "<assume B1 size 1m>",
                                    "<assume B3 size 1m>",
                                    "<assume B6 size 1m>",
                                    "<assume C3 size 1m>"],
}


def test_assumed_steps_are_pinned():
    """The assumption-backed steps are exactly the set declarations that
    size arithmetic cannot certify plus the specific deletes the source
    argument justifies by the deleted-vertex coloring; the three-sets
    existence bounds certify on their own."""
    for cid in MINIMALITY_CLAIMS:
        rep = verify_claim(cid)
        for v in rep.variants:
            steps = sorted({r.step.split(" split")[0]
                            for r in v.trace.assumptions})
            want = EXPECTED_ASSUMED_STEPS.get((cid, v.name), [])
            assert steps == want, (cid, v.name, steps)


# -- concrete spot checks -------------------------------------------------------


def sample_assignment(bv: BuiltVariant, seed: int
                      ) -> tuple[dict[int, frozenset[int]], dict[int, int]]:
    """A pseudo-random concrete assignment matching the variant's size profile.

    Colors are drawn from a shared pool biased toward overlap, the adversarial
    direction for reduction schemes.
    """
    rng = random.Random(seed)
    fg = _fg(bv)
    big = max(f for f, _ in fg.values())
    colors = range(1, big + rng.randrange(0, 1 + big) + 1)
    lists = {v: frozenset(rng.sample(colors, fg[v][0])) for v in sorted(fg)}
    return lists, {v: g for v, (_, g) in fg.items()}


def concrete_cross_check(bv: BuiltVariant, samples: int = 20,
                         seed: int = 20260809, **caps
                         ) -> tuple[list[int], list[int]]:
    """Replay the scheme concretely on sampled assignments.

    Returns the indices of the failing samples (no choices complete the
    scheme) and of the capped ones (the node cap stopped the search first).
    Both are empty when every sample corroborates the symbolic verdict.
    `caps` go to run_scheme_concrete.
    """
    failed, capped = [], []
    for i in range(samples):
        st = ConcreteState.from_assignment(bv.graph,
                                           *sample_assignment(bv, seed + i))
        try:
            if run_scheme_concrete(st, bv.scheme, **caps) is None:
                failed.append(i)
        except NodeCapReached:
            capped.append(i)
    return failed, capped


def test_concrete_cross_check_samples():
    """Sampled concrete replays corroborate the symbolic verdicts on the
    non-minimality claims: no sample fails and none stops at the node cap."""
    for cid in ("star", "cycle-4443", "path-3443443", "5-on-5434-no-42",
                "6-two-6334", "cycle-k33-4"):
        for name in _variants(cid):
            bv = build_claim(cid, name)
            failed, capped = concrete_cross_check(bv, samples=8)
            assert failed == [] and capped == [], (cid, name, failed, capped)


def test_concrete_cross_check_reports_capped_apart():
    """A node-cap stop is reported as capped, not as a failed sample."""
    assert concrete_cross_check(build_claim("star", "k=3"), samples=3,
                                node_cap=1) == ([], [0, 1, 2])


# -- the documented discrepancy -----------------------------------------------


def _c63_lists():
    # an assignment on which the printed scheme cannot be completed
    def f(*xs):
        return frozenset(xs)

    Q = (8, 9, 10, 11)
    return {
        "v1": f(*range(1, 8), *Q),
        "v2": f(1, 2, 3, *Q),
        "v3": f(1, 2, 3, 4, 5, 6, *Q, 12),
        "v4": f(4, 5, 6, *Q),
        "v5": f(*range(1, 8)),
        "v6": f(*range(1, 8)),
        "v7": f(*range(1, 8)),
    }


def test_cycle_63_434_symbolic_failure_is_real():
    """The printed scheme fails in the R/R corner, and a concrete assignment
    realizes the failure: no set choices complete the step sequence, while
    the configuration itself is still colorable."""
    rep = verify_claim(KNOWN_DISCREPANCY)
    assert not rep.passed
    corners, rec = rep.variants[0].trace.first_illegal()
    assert corners[1] == "R"
    assert "CannotAvoid" in rec.detail

    bv = build_claim(KNOWN_DISCREPANCY, "printed")
    lists = {bv.labels[lab]: L for lab, L in _c63_lists().items()}
    demand = {v: 4 for v in lists}
    cst = ConcreteState.from_assignment(bv.graph, lists, demand)
    assert run_scheme_concrete(cst, bv.scheme) is None

    from chooselab.multicolor import find_coloring
    H = PlaneGraph(edges=[(a, b) for a, b in bv.graph.edges()
                          if a in bv.h and b in bv.h],
                   vertices=sorted(bv.h))
    assert find_coloring(H, lists, demand) is not None


def test_cycle_63_434_other_corners_legal():
    rep = verify_claim(KNOWN_DISCREPANCY)
    tr = rep.variants[0].trace
    bad = {b.corners for b in tr.branches if not b.legal}
    # the final save breaks whenever the second pair lands on its R part
    assert bad == {("S", "R"), ("T", "R"), ("R", "R")}


def test_dependency_dag_is_acyclic_and_known():
    order = {cid: i for i, cid in enumerate(claim_ids())}
    for c in list_claims():
        for dep in c["depends_on"]:
            assert dep in order
            assert order[dep] < order[c["id"]], (c["id"], dep)
