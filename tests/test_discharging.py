import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chooselab import discharging
from chooselab.discharging import (_TYPE3_PATTERNS, ALL_CLASSES, CATCH_ALL,
                                   CLASS_DOMAIN, EXCLUSIONS, FAMILIES, FIVES,
                                   Finding, R2_RATES, Scenario, _consistent,
                                   _min_corner_transfer, _r2_case,
                                   compile_pattern, FIVE_SIXTHS, HALF, ONE,
                                   SEVEN_TWELFTHS, SIXTH, THIRD,
                                   THREE_QUARTERS, TWO_THIRDS,
                                   TransferRecord, apply_rules,
                                   audit_case_ledger,
                                   audit_family_partition,
                                   audit_inequality_6plus,
                                   audit_transfer_observations,
                                   classify_family, face_type,
                                   face_type_of_classes, final_charges,
                                   initial_charges, klass_of, klass_str,
                                   lambda_pattern, pattern, pattern_matches,
                                   r3_rate, r5_table, sweep_4face,
                                   twelfths_str)
from chooselab.claims import claim_ids
from chooselab.ledger_data import CASE_LEDGER, amount_of, check_entry
from chooselab.plane import (consecutive, cube_graph, dodecahedron_graph,
                             grid_patch, rotations_from_faces)


def test_rule_amounts_are_integer_twelfths():
    assert twelfths_str(SEVEN_TWELFTHS) == "7/12"
    assert twelfths_str(-240) == "-20"


def test_initial_charges():
    G = cube_graph()
    charges = initial_charges(G)
    assert charges[("v", 0)] == -12          # 3-vertex: -1
    assert charges[("f", 0)] == -24          # 4-face: -2
    assert sum(charges.values()) == -240     # Euler: -20


# -- shared embedded fixtures -------------------------------------------------

from fixtures_embedded import (hex_pair, quad_wheel,  # noqa: E402
                               seeded_plane_graph)


def test_quad_wheel_shape():
    G = quad_wheel()
    assert G.is_triangle_free()
    assert G.degree(20) == 5
    assert all(G.degree(i) == 3 for i in range(5))
    assert all(G.degree(i) == 4 for i in range(10, 15))
    assert all(G.degree(i) == 2 for i in range(15, 20))


def test_face_types():
    assert face_type_of_classes(((5, 0), (3, 0), (4, 0), (3, 0))) == 1
    assert face_type_of_classes(((5, 0), (3, 0), (3, 1), (4, 0))) == 1
    assert face_type_of_classes(((5, 0), (4, 0), (3, 1), (4, 1))) == 2
    assert face_type_of_classes(((6, None), (3, 0), (4, 2), (4, 0))) == 3
    assert face_type_of_classes(((5, 0), (4, 2), (3, 0), (4, 1))) == 3
    # two heavy corners: no type
    assert face_type_of_classes(((5, 0), (3, 0), (5, 0), (4, 0))) is None
    # type 2 requires the 4s opposite each other
    assert face_type_of_classes(((5, 0), (4, 0), (4, 0), (3, 1))) is None


def test_face_type_on_quad_wheel():
    G = quad_wheel()
    inner = [f for f in G.faces() if 20 in f.vertices]
    assert len(inner) == 5
    assert all(face_type(G, f) == 1 for f in inner)


def test_lambda_pattern_readoff():
    G = quad_wheel()
    f = next(f for f in G.faces() if 20 in f.vertices)
    lam = lambda_pattern(G, 20, f)
    assert lam[0][0] == 5
    assert sorted(c[0] for c in lam[1:]) == [3, 3, 4]


def test_classify_family_examples():
    assert classify_family(((5, 0), (3, 0), (3, 1), (5, 1)))[0] == "1"
    assert classify_family(((5, 1), (4, 1), (5, 0), (5, 2))) == \
        ("7/12", SEVEN_TWELFTHS)
    assert classify_family(((5, 0), (4, 0), (4, 0), (4, 0))) == ("1/2", HALF)
    # orientation-insensitive
    a = classify_family(((5, 0), (3, 0), (5, 2), (4, 2)))
    b = classify_family(((5, 0), (4, 2), (5, 2), (3, 0)))
    assert a == b == ("1", ONE)


def test_family_partition_no_double_matches():
    findings, catch_all = audit_family_partition()
    assert findings == []
    assert catch_all > 0
    # spot examples land in single families
    assert r5_table()[(5, 0), (3, 0), (5, 1), (4, 2)][0] == ("1",)
    assert r5_table()[(5, 0), (4, 2), (5, 0), (4, 2)][0] == ("5/6",)


def test_apply_rules_star_30():
    # a 3_0-vertex with three 4+-neighbors receives 1/3 from each
    faces = [[0, 1, 4, 2], [0, 2, 5, 3], [0, 3, 6, 1], [1, 6, 7, 4],
             [2, 4, 8, 5], [3, 5, 9, 6], [4, 7, 10, 8], [5, 8, 11, 9],
             [6, 9, 12, 7]]
    # simpler: use the cube with one corner subdivided is overkill; instead
    # check on the quad wheel, whose rim vertices are 3_0
    G = quad_wheel()
    out = apply_rules(G)
    r1_in = {}
    for r in out.transfers:
        if r.rule == "R1":
            r1_in.setdefault(r.receiver, []).append(r.amount)
    for rim in range(5):
        assert sorted(r1_in[rim]) == [THIRD, THIRD, THIRD]


def test_apply_rules_r3_on_type1():
    G = quad_wheel()
    out = apply_rules(G)
    r3 = [r for r in out.transfers if r.rule.startswith("R3")]
    assert len(r3) == 5
    assert all(r.amount == r3_rate(1) and r.sender == 20 for r in r3)


def test_apply_rules_r2_four_halves():
    # an inner 4_0-vertex of a 5x5 grid patch sends 1/2 into each of its
    # four incident 4-faces
    G = grid_patch(4, 4)
    u = 12  # position (2,2): all four neighbors have degree 4
    assert all(G.degree(w) == 4 for w in G.neighbors(u))
    out = apply_rules(G)
    sent = [r for r in out.transfers if r.sender == u]
    assert [(r.amount, r.rule) for r in sent] == [(HALF, "R2(1)")] * 4


def test_lambda_not_incident():
    from chooselab.plane import NotIncident
    G = quad_wheel()
    quad = next(f for f in G.faces() if f.degree == 4)
    outside = next(v for v in G.vertices if v not in quad.vertices)
    with pytest.raises(NotIncident):
        lambda_pattern(G, outside, quad)


def test_apply_rules_deterministic():
    G = quad_wheel()
    assert apply_rules(G).transfers == apply_rules(G).transfers


def test_conservation_on_fixtures():
    from chooselab.claims import build_claim
    fixtures = [cube_graph(), dodecahedron_graph(), grid_patch(3, 3),
                grid_patch(1, 6), quad_wheel()]
    for G in fixtures:
        led = final_charges(G)
        assert led.total_initial == -240
        assert led.total_final == -240
        assert led.conserved


def test_dodecahedron_no_quad_transfers():
    out = apply_rules(dodecahedron_graph())
    assert all(r.rule == "R1" for r in out.transfers) or not out.transfers


def test_three_vertex_with_one_three_neighbor_receives_half():
    # on the 4x4 grid patch, boundary vertex 1 is a 3_1-vertex whose only
    # 4+-neighbor is the inner vertex 5: R1 sends exactly one 1/2
    G = grid_patch(3, 3)
    out = apply_rules(G)
    into_1 = [r for r in out.transfers if r.receiver_kind == "v"
              and r.receiver == 1]
    assert [(r.sender, r.amount, r.rule) for r in into_1] == [(5, HALF, "R1")]


def test_r1_senders_of_degree_2_send_nothing():
    # on the 3x3 grid patch each side's middle vertex is a 3_0-vertex
    # between two corners of degree 2
    G = grid_patch(2, 2)
    out = apply_rules(G)
    low = [v for v in G.vertices if G.degree(v) <= 2]
    assert low
    assert not [r for r in out.transfers if r.sender in low]
    r1_gaps = [g for g in out.gaps if g.startswith("R1: 2-vertex")]
    assert sorted(r1_gaps) == sorted(f"R1: 2-vertex {v} sends nothing"
                                     for v in low)


def test_r2_crowded_four_vertex_listed_once():
    # the center 4 of the 3x3 grid patch has four 3-neighbors and sits on
    # four 4-faces; it is one gap, not one per face
    out = apply_rules(grid_patch(2, 2))
    crowded = [g for g in out.gaps if g.startswith("R2: 4-vertex")]
    assert crowded == ["R2: 4-vertex 4 has 3+ 3-neighbors"]


def test_hex_pair_transfers_only_r1():
    G = hex_pair()
    assert G.is_triangle_free()
    out = apply_rules(G)
    assert all(r.rule == "R1" for r in out.transfers)
    assert final_charges(G).conserved


def test_observation_audit_clean():
    assert audit_transfer_observations() == []


def test_ineq6plus_audit_clean():
    assert audit_inequality_6plus(12) == []


def test_ineq6plus_d7_tight_value():
    # (3/2) * 7 - 10 - 3/6 = 0 at r0 = 3
    assert 18 * 7 - 120 - 2 * 3 == 0


def test_case_ledger_clean_and_large():
    assert len(CASE_LEDGER) >= 40
    assert audit_case_ledger() == []


def test_case_ledger_mutation_detected():
    import copy

    broken = copy.deepcopy(CASE_LEDGER[0])
    broken["total"] += 1
    assert check_entry(broken)
    broken = copy.deepcopy(next(e for e in CASE_LEDGER
                                if any(a[0] == "R5" for _, a in e["terms"])))
    for i, (c, a) in enumerate(broken["terms"]):
        if a[0] == "R5":
            broken["terms"][i] = (c, ("R5", "5,3,5,5")) \
                if a[1] != "5,3,5,5" else (c, ("R5", "5,4_1,5,5"))
            break
    assert check_entry(broken)


def test_amount_of_anchors():
    assert amount_of(("init_v", 3)) == -12
    assert amount_of(("init_f", 5)) == 0
    assert amount_of(("R3", 1)) == r3_rate(1)
    assert amount_of(("R5", "5,4_1,5,5")) == SEVEN_TWELFTHS
    assert amount_of(("R5max", ("1",))) == FIVE_SIXTHS
    assert amount_of(("R5max", ("1", "5/6", "3/4"))) == TWO_THIRDS


def test_four_face_sweep_clean():
    findings, surviving, excluded = sweep_4face()
    assert findings == []
    assert surviving > 1000
    assert excluded > 1000


def test_four_face_examples():
    # an all-4_0 face collects 4 * 1/2
    corners = ((4, 0),) * 4
    assert sum(_min_corner_transfer(corners, i, None)
               for i in range(4)) == 2 * ONE
    # (5,4_1,5,4_0): 7/12 + 1/3 + 7/12 + 1/2 = 2
    corners = ((5, 0), (4, 1), (5, 0), (4, 0))
    assert face_type_of_classes(corners) is None
    parts = [_min_corner_transfer(corners, i, None) for i in range(4)]
    assert sorted(parts) == [THIRD, HALF, SEVEN_TWELFTHS, SEVEN_TWELFTHS]


def test_four_face_exclusion_filters():
    # a scenario violating the (4,4,4,4_{>=1})-cycle exclusion is filtered
    corners = ((4, 1), (4, 0), (4, 0), (4, 0))
    assert any(pred(corners) for _, pred in EXCLUSIONS)


def test_exclusions_cite_catalog_claims():
    """Each exclusion ends in one bracketed citation; every claim id in it
    (several are joined by " + ") names a claim of the catalog."""
    tags = set()
    for label, _ in EXCLUSIONS:
        head, bracket, cited = label.rpartition(" [")
        assert head and bracket and cited.endswith("]") and "[" not in head, \
            label
        tags.update(cited[:-1].split(" + "))
    assert tags <= set(claim_ids()), sorted(tags - set(claim_ids()))


def test_weakening_exclusions_surfaces_findings():
    keep = [e for e in EXCLUSIONS if "cycle-4443" not in e[0]]
    findings, _, _ = sweep_4face(tuple(keep))
    assert findings  # light faces without their exclusion under-collect


# -- the orbit sweep against the tuple-by-tuple sweep --------------------------
#
# sweep_4face decides each orbit of corner tuples under the eight symmetries
# of the face once.  That is sound only if everything it decides with is
# invariant under them; the tuple-by-tuple sweep below is the reference.

_ALL_CORNERS = list(itertools.product(ALL_CLASSES, repeat=4))
_SYMMETRIES = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
               (0, 3, 2, 1), (3, 2, 1, 0), (2, 1, 0, 3), (1, 0, 3, 2))


def _asymmetric(fn):
    """A corner tuple whose value under fn differs from the value at one of
    its rotations or reflections, else None."""
    value = {cs: fn(cs) for cs in _ALL_CORNERS}
    for cs, v in value.items():
        for perm in _SYMMETRIES:
            if value[tuple(cs[i] for i in perm)] != v:
                return cs
    return None


def _four_corner_total(cs) -> int:
    ftype = face_type_of_classes(cs)
    return sum(_min_corner_transfer(cs, i, ftype) for i in range(4))


@pytest.mark.parametrize("fn", [_consistent, face_type_of_classes,
                                _four_corner_total]
                         + [pred for _, pred in EXCLUSIONS],
                         ids=["consistent", "face-type", "total"]
                         + [f"exclusion-{i}" for i in range(len(EXCLUSIONS))])
def test_four_face_decisions_are_symmetric(fn):
    assert _asymmetric(fn) is None


def test_asymmetric_exclusion_is_caught():
    def pred(cs):
        return cs[0] == (3, 0)
    assert _asymmetric(pred) is not None
    # and the orbit sweep would then disagree with the reference
    extra = EXCLUSIONS + (("asymmetric", pred),)
    assert sweep_4face(extra) != _reference_sweep(extra)


def _reference_sweep(exclusions=EXCLUSIONS) -> tuple[list[Finding], int, int]:
    """Enumerate 4-face corner scenarios, drop the ones excluded by the
    configuration catalog, and check that every survivor collects at least 2
    (so c*(f) >= 0).  Returns (findings, surviving, excluded)."""
    findings = []
    surviving = excluded = 0
    for corners in itertools.product(ALL_CLASSES, repeat=4):
        if not _consistent(corners):
            continue
        hit = None
        for name, pred in exclusions:
            if pred(corners):
                hit = name
                break
        if hit:
            excluded += 1
            continue
        surviving += 1
        ftype = face_type_of_classes(corners)
        total = sum(_min_corner_transfer(corners, i, ftype) for i in range(4))
        if total < 2 * ONE:
            findings.append(Finding(
                "four-face",
                f"{Scenario(corners)} collects only {twelfths_str(total)}"))
    return findings, surviving, excluded


@pytest.mark.parametrize("exclusions", [
    EXCLUSIONS, tuple(e for e in EXCLUSIONS if "cycle-4443" not in e[0]), ()],
    ids=["all", "no-cycle-4443", "none"])
def test_orbit_sweep_matches_reference(exclusions):
    def as_dicts(result):
        findings, surviving, excluded = result
        return [f.as_dict() for f in findings], surviving, excluded
    got = as_dicts(sweep_4face(exclusions))
    assert got == as_dicts(_reference_sweep(exclusions))
    assert got[1] + got[2] == 6672


# -- compiled tables against the ClassSpec walk ---------------------------------
#
# The rule tables are compiled into per-component class sets at import.  The
# walk below is the uncompiled definition, ClassSpec.matches on each
# component, kept here as the reference the compiled matcher must agree with.

def _ref_pattern_matches(pat, lam) -> bool:
    if not pat[0].matches(lam[0]):
        return False
    fwd = all(pat[i].matches(lam[i]) for i in (1, 2, 3))
    rev = (pat[1].matches(lam[3]) and pat[2].matches(lam[2])
           and pat[3].matches(lam[1]))
    return fwd or rev


def _ref_matching_families(lam) -> list[str]:
    return [tag for tag, _amt, pats in FAMILIES
            if any(_ref_pattern_matches(p, lam) for p in pats)]


def _compiled_matching_families(lam) -> list[str]:
    """The families whose compiled patterns match lam, one lambda at a time:
    the walk r5_table replaces by listing each pattern's lambdas."""
    return [tag for tag, _amt, pats in discharging._FAMILY_TABLE
            if any(pattern_matches(p, lam) for p in pats)]


def _ref_classify_family(lam) -> tuple[str, int]:
    for tag, amt, pats in FAMILIES:
        if any(_ref_pattern_matches(p, lam) for p in pats):
            return tag, amt
    return CATCH_ALL


def _ref_face_type_of_classes(corners) -> int | None:
    heavy = [i for i, (d, _) in enumerate(corners) if d >= 5]
    if len(heavy) != 1:
        return None
    i = heavy[0]
    u, a, w, b = (corners[i], corners[(i + 1) % 4], corners[(i + 2) % 4],
                  corners[(i + 3) % 4])
    degs = sorted(x[0] for x in (a, w, b))
    if degs == [3, 3, 4]:
        return 1
    if (a[0], w[0], b[0]) == (4, 3, 4) and w == (3, 1):
        return 2
    if any(_ref_pattern_matches(p, (u, a, w, b)) for p in _TYPE3_PATTERNS):
        return 3
    return None


def _assert_tables_agree(lam) -> None:
    assert classify_family(lam) == _ref_classify_family(lam), lam
    assert _compiled_matching_families(lam) == _ref_matching_families(lam), lam
    assert face_type_of_classes(lam) == _ref_face_type_of_classes(lam), lam


def test_compiled_tables_agree_on_all_lambda_patterns():
    lams = list(itertools.product([(5, t) for t in range(4)], ALL_CLASSES,
                                  ALL_CLASSES, ALL_CLASSES))
    assert len(lams) == 4000
    for lam in lams:
        _assert_tables_agree(lam)


def test_class_domain_covers_klass_of():
    assert len(CLASS_DOMAIN) == len(set(CLASS_DOMAIN)) == 22
    assert set(ALL_CLASSES) <= set(CLASS_DOMAIN)
    # classes real graphs have outside ALL_CLASSES
    assert {(2, 0), (2, 2), (3, 3), (5, 4), (5, 5)} <= set(CLASS_DOMAIN)


_domain = st.sampled_from(CLASS_DOMAIN)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.tuples(_domain, _domain, _domain, _domain))
@example(((5, 4), (2, 0), (3, 3), (2, 2)))
@example(((5, 5), (3, 0), (2, 1), (4, 4)))
@example(((2, 1), (5, 4), (4, 1), (6, None)))
def test_compiled_tables_agree_on_class_domain(lam):
    _assert_tables_agree(lam)


def test_twelfths_str_matches_fraction():
    for x in range(-5000, 5001):
        assert twelfths_str(x) == str(Fraction(x, 12)), x


# -- apply_rules against a per-corner reference ----------------------------------

def _ref_r2_amount(G, u, f):
    threes = sorted(w for w in G.neighbors(u) if G.degree(w) == 3)
    on_face = set(f.vertices)
    if len(threes) == 0:
        return HALF, "R2(1)"
    if len(threes) == 1:
        v = threes[0]
        v_threes = sorted(x for x in G.neighbors(v) if G.degree(x) == 3)
        if not v_threes:
            return (HALF if v in on_face else THIRD), "R2(2)"
        both = v in on_face and v_threes[0] in on_face
        return (HALF if both else THIRD), "R2(3)"
    if len(threes) == 2:
        v, w = threes
        if consecutive(G, u, v, w):
            inside = (v in on_face) + (w in on_face)
            return (HALF, THIRD, SIXTH)[2 - inside], "R2(5)"
        return THIRD, "R2(4)"
    return None


def _ref_transfers(G) -> tuple[list, list]:
    """apply_rules as it read before the per-graph class tables: face_type
    and lambda_pattern per face and per corner, degrees read from G.  A
    vertex of degree 2 or less sends nothing by R1 (to a 3_0-vertex) or by
    R2-R5 (as a 4-face corner), and is a gap once for each; a 4-vertex with
    3+ 3-neighbors is a gap once."""
    records, gaps = [], []
    for u in G.vertices:
        if G.degree(u) != 3:
            continue
        threes = [w for w in G.neighbors(u) if G.degree(w) == 3]
        if len(threes) == 0:
            for w in sorted(G.neighbors(u)):
                if G.degree(w) >= 4:
                    records.append(TransferRecord(w, "v", u, THIRD, "R1"))
                    continue
                gap = f"R1: {G.degree(w)}-vertex {w} sends nothing"
                if gap not in gaps:
                    gaps.append(gap)
        elif len(threes) == 1:
            for w in sorted(G.neighbors(u)):
                if G.degree(w) >= 4:
                    records.append(TransferRecord(w, "v", u, HALF, "R1"))
        else:
            gaps.append(f"R1: 3-vertex {u} has {len(threes)} 3-neighbors")
    for fi, f in enumerate(G.faces()):
        if f.degree != 4:
            continue
        ftype = face_type(G, f)
        for u in f.vertices:
            d = G.degree(u)
            if d == 3:
                continue
            if d <= 2:
                gap = f"R2-R5: {d}-vertex {u} sends nothing"
                if gap not in gaps:
                    gaps.append(gap)
                continue
            if d == 4:
                got = _ref_r2_amount(G, u, f)
                if got is None:
                    gap = f"R2: 4-vertex {u} has 3+ 3-neighbors"
                    if gap not in gaps:
                        gaps.append(gap)
                    continue
                amt, rule = got
                records.append(TransferRecord(u, "f", fi, amt, rule))
            elif ftype is not None:
                records.append(TransferRecord(u, "f", fi, (10 - ftype) * 2,
                                              f"R3(type{ftype})"))
            elif d >= 6:
                records.append(TransferRecord(u, "f", fi, ONE, "R4"))
            else:
                tag, amt = classify_family(lambda_pattern(G, u, f))
                records.append(TransferRecord(u, "f", fi, amt, f"R5[F{tag}]"))
    records.sort(key=lambda r: (r.sender, r.receiver_kind, r.receiver, r.rule))
    return records, gaps


def test_final_charges_match_per_corner_reference():
    fixtures = [cube_graph(), dodecahedron_graph(), grid_patch(3, 3),
                grid_patch(1, 6), quad_wheel()]
    for G in fixtures + [seeded_plane_graph(seed) for seed in range(40)]:
        records, gaps = _ref_transfers(G)
        inflow, outflow = {}, {}
        for r in records:
            key = f"{r.receiver_kind}{r.receiver}"
            inflow[key] = inflow.get(key, 0) + r.amount
            outflow[f"v{r.sender}"] = outflow.get(f"v{r.sender}", 0) + r.amount
        led = final_charges(G)
        assert led.gaps == gaps
        assert len(led.rows) == len(G.vertices) + len(G.faces())
        for row in led.rows:
            assert row["in"] == inflow.get(row["element"], 0), row
            assert row["out"] == outflow.get(row["element"], 0), row
            assert row["final"] == row["initial"] + row["in"] - row["out"]


def test_apply_rules_matches_per_corner_reference():
    seen_classes, seen_rules = set(), set()
    for seed in range(12):
        G = seeded_plane_graph(seed)
        assert G.is_triangle_free()
        out = apply_rules(G)
        assert (out.transfers, out.gaps) == _ref_transfers(G)
        seen_classes.update(klass_of(G, v) for v in G.vertices)
        seen_rules.update(r.rule[:2] for r in out.transfers)
    # the sample reaches the classes outside ALL_CLASSES and every rule
    assert any(d == 2 for d, _ in seen_classes)
    assert any(d == 5 and t >= 4 for d, t in seen_classes)
    assert {"R1", "R2", "R3", "R4", "R5"} <= seen_rules


# -- one table per rule against the code it replaced ------------------------------
#
# Each rule's amounts are defined once, in R1_RATES, R2_RATES, r3_rate,
# R4_RATE and OBS_FLOORS, and the audits read the R5 lambda-pattern space from
# r5_table.  Below, verbatim, are the audits, the R2 amount and the 4-face
# worst case as they read when each consumer spelled its rates out; the new
# code must agree with them on the shipped tables and on mutated tables that
# produce findings.

def _ref_audit_family_partition() -> tuple[list[Finding], int]:
    findings = []
    catch_all = 0
    selves = [(5, t) for t in range(4)]
    for lam in itertools.product(selves, ALL_CLASSES, ALL_CLASSES, ALL_CLASSES):
        fams = _compiled_matching_families(lam)
        if len(fams) > 1:
            findings.append(Finding(
                "families",
                f"{tuple(klass_str(c) for c in lam)} matched by {fams}"))
        elif not fams:
            catch_all += 1
    return findings, catch_all


_REF_R2_TABLE = {
    "R2(1)": (HALF,),
    "R2(2)": (HALF, THIRD),
    "R2(3)": (HALF, THIRD),
    "R2(4)": (THIRD,),
    "R2(5)": (HALF, THIRD, SIXTH),
}


def _ref_audit_transfer_observations() -> list[Finding]:
    findings: list[Finding] = []

    if min(a for amts in _REF_R2_TABLE.values() for a in amts) != SIXTH:
        findings.append(Finding("obs1", "R2 minimum is not 1/6"))

    r5_amounts = {classify_family(lam)[1]
                  for lam in itertools.product([(5, t) for t in range(4)],
                                               ALL_CLASSES, ALL_CLASSES,
                                               ALL_CLASSES)}
    if min(r5_amounts) != HALF:
        findings.append(Finding("obs2", "R5 minimum is not 1/2"))
    if min(min(r5_amounts), r3_rate(3)) < HALF:
        findings.append(Finding("obs2", "5-vertex floor below 1/2"))
    if min(ONE, r3_rate(3)) < ONE:
        findings.append(Finding("obs3", "6+ floor below 1"))

    # (4): two 3-corners beside a 5+ sender
    threes = [(3, 0), (3, 1)]
    for u in [(5, t) for t in range(4)] + [(6, None)]:
        for place in ("adjacent", "opposite"):
            for x in threes:
                for y in threes:
                    for z in ALL_CLASSES:
                        if place == "adjacent":
                            a, w, b = x, y, z
                            if z[0] == 3:
                                continue  # (3,3,3)-path through w
                        else:
                            a, w, b = x, z, y
                            if z[0] == 3:
                                continue  # (3,3,3)-path through z... z=w here
                        corners = (u, a, w, b)
                        ftype = face_type_of_classes(corners)
                        if ftype is not None:
                            amt = (10 - ftype) * 2
                        elif u[0] >= 6:
                            amt = ONE
                        else:
                            amt = classify_family(corners)[1]
                        if amt < ONE:
                            findings.append(Finding(
                                "obs4",
                                f"{tuple(klass_str(c) for c in corners)} "
                                f"transfers {twelfths_str(amt)} < 1"))

    for pat, want in ((("5", "4_0", "4_2", "4_0"), FIVE_SIXTHS),
                      (("5", "4_0", "4_1", "4_0"), TWO_THIRDS)):
        lam = ((5, 0), (4, 0), (4, int(pat[2][2])), (4, 0))
        got = classify_family(lam)[1]
        if got != want:
            findings.append(Finding("pin", f"{pat} -> {twelfths_str(got)}, "
                                           f"want {twelfths_str(want)}"))

    findings.extend(_ref_audit_obs_half())
    findings.extend(_ref_audit_obs_three_quarters())
    return findings


def _ref_audit_obs_half() -> list[Finding]:
    findings = []
    sides = [(4, 0)] + [(5, t) for t in range(4)] + [(6, None)]
    mids = [c for c in ALL_CLASSES if c[0] >= 4]
    for u in [(5, t) for t in range(4)]:
        for a in sides:
            for w in mids:
                for b in sides:
                    lam = (u, a, w, b)
                    if face_type_of_classes(lam) is not None:
                        continue
                    amt = classify_family(lam)[1]
                    is_42 = a == (4, 0) and b == (4, 0) and w == (4, 2)
                    is_41 = a == (4, 0) and b == (4, 0) and w == (4, 1)
                    want_max = FIVE_SIXTHS if is_42 else \
                        TWO_THIRDS if is_41 else HALF
                    want_exact = is_42 or is_41
                    if (amt != want_max) if want_exact else (amt > want_max):
                        findings.append(Finding(
                            "obs-almost-1/2",
                            f"{tuple(klass_str(c) for c in lam)} -> "
                            f"{twelfths_str(amt)}"))
    return findings


def _ref_audit_obs_three_quarters() -> list[Finding]:
    findings = []
    bs = [(4, 0)] + [(5, t) for t in range(4)] + [(6, None)]
    for u in ((5, 2), (5, 3)):
        for a in ((3, 0), (3, 1)):
            for w in (c for c in ALL_CLASSES if c[0] >= 4):
                for b in bs:
                    if w[0] == 4 and b[0] == 4:
                        continue  # excluded: (5_{>=2},3,4,4)-cycle
                    if w[0] == 4 and b[0] == 5 and b[1] >= 1:
                        continue  # excluded: (5,3,4,5_{>=1}) + extra 3-nbr
                    lam = (u, a, w, b)
                    if face_type_of_classes(lam) is not None:
                        continue
                    amt = classify_family(lam)[1]
                    if amt > THREE_QUARTERS:
                        findings.append(Finding(
                            "obs-almost-3/4",
                            f"{tuple(klass_str(c) for c in lam)} -> "
                            f"{twelfths_str(amt)}"))
    return findings


def _ref_r2_amount_by_code(G, deg, u, corners):
    threes = sorted(w for w in G.neighbors(u) if deg[w] == 3)
    if len(threes) == 0:
        return HALF, "R2(1)"
    if len(threes) == 1:
        v = threes[0]
        v_threes = sorted(x for x in G.neighbors(v) if deg[x] == 3)
        if not v_threes:
            if v in corners:
                return HALF, "R2(2)"
            return THIRD, "R2(2)"
        w = v_threes[0]
        if v in corners and w in corners:
            return HALF, "R2(3)"
        return THIRD, "R2(3)"
    if len(threes) == 2:
        v, w = threes
        if consecutive(G, u, v, w):
            inside = (v in corners) + (w in corners)
            if inside == 2:
                return HALF, "R2(5)"
            if inside == 1:
                return THIRD, "R2(5)"
            return SIXTH, "R2(5)"
        return THIRD, "R2(4)"
    return None  # >= 3 three-neighbors: outside the rule table


def _ref_min_corner_transfer(corners, i, ftype):
    u = corners[i]
    d, t = u
    if d == 3:
        return 0
    a, w, b = corners[(i + 1) % 4], corners[(i + 2) % 4], corners[(i + 3) % 4]
    if d == 4:
        n_on = (a[0] == 3) + (b[0] == 3)
        if t == 0:
            return HALF
        if t == 1:
            if n_on == 1:
                v = a if a[0] == 3 else b
                if v == (3, 0):
                    return HALF            # R2(2), v on the face
                return HALF if w[0] == 3 else THIRD  # R2(3)
            return THIRD                   # off-face 3-neighbor
        # t == 2
        if n_on == 2:
            return HALF                    # consecutive, both on the face
        if n_on == 1:
            return THIRD                   # R2(4) or R2(5) with one inside
        return SIXTH                       # both off: consecutive possible
    if ftype is not None:
        return (10 - ftype) * 2
    if d >= 6:
        return ONE
    return classify_family((u, a, w, b))[1]


@pytest.fixture
def fresh_r5_table():
    """r5_table is built once per process; rebuild it around a mutation."""
    r5_table.cache_clear()
    yield
    r5_table.cache_clear()


def _mutate_families(monkeypatch, edit) -> None:
    """Replace the compiled family table by edit(tag, amt, pats) per family."""
    table = tuple(edit(tag, amt, pats)
                  for tag, amt, pats in discharging._FAMILY_TABLE)
    monkeypatch.setattr(discharging, "_FAMILY_TABLE", table)


def _assert_audits_match_reference():
    assert audit_family_partition() == _ref_audit_family_partition()
    assert audit_transfer_observations() == _ref_audit_transfer_observations()


def test_audits_match_reference_on_shipped_tables(fresh_r5_table):
    _assert_audits_match_reference()


def test_audits_match_reference_with_overlapping_families(monkeypatch,
                                                           fresh_r5_table):
    # a "5/6" pattern, the pinned one, also listed under "1": its lambda
    # patterns match both families and classify as "1"
    extra = compile_pattern(pattern("5,4_0,4_2,4_0"))
    _mutate_families(monkeypatch, lambda tag, amt, pats: (
        tag, amt, pats + (extra,) if tag == "1" else pats))
    findings, _ = audit_family_partition()
    assert findings and all(f.audit == "families" for f in findings)
    _assert_audits_match_reference()


def test_audits_match_reference_with_raised_family_amount(monkeypatch,
                                                           fresh_r5_table):
    # the 2/3 family raised to 1, above the 3/4 and 1/2 bounds
    _mutate_families(monkeypatch, lambda tag, amt, pats: (
        tag, ONE if tag == "2/3" else amt, pats))
    audits = {f.audit for f in audit_transfer_observations()}
    assert {"obs-almost-1/2", "obs-almost-3/4"} <= audits
    _assert_audits_match_reference()


def test_r5_table_covers_the_lambda_space():
    table = r5_table()
    assert list(table) == list(itertools.product(FIVES, ALL_CLASSES,
                                                 ALL_CLASSES, ALL_CLASSES))
    assert len(table) == 4000
    for lam, (fams, amt) in table.items():
        assert list(fams) == _ref_matching_families(lam)
        assert amt == _ref_classify_family(lam)[1]


def test_r2_rates_keys_are_the_ledger_anchors():
    anchors = {anchor[1] for entry in CASE_LEDGER
               for _, anchor in entry["terms"] if anchor[0] == "R2"}
    assert anchors == set(R2_RATES)


def test_r2_case_matches_reference():
    seen = set()
    for G in [seeded_plane_graph(seed) for seed in range(40)] + [
            grid_patch(3, 3)]:
        deg = {v: G.degree(v) for v in G.vertices}
        for f in G.faces():
            if f.degree != 4:
                continue
            for u in f.vertices:
                if deg[u] != 4:
                    continue
                case = _r2_case(G, deg, u, f.vertices)
                got = None if case is None else (R2_RATES[case],
                                                 f"R2({case[0]})")
                assert got == _ref_r2_amount_by_code(G, deg, u, f.vertices)
                seen.add(case)
    assert seen == set(R2_RATES) | {None}  # every sub-case, and a gap


def test_min_corner_transfer_matches_reference():
    for cs in _ALL_CORNERS:
        ftype = face_type_of_classes(cs)
        for i in range(4):
            assert _min_corner_transfer(cs, i, ftype) == \
                _ref_min_corner_transfer(cs, i, ftype), (cs, i)
