"""The acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1 is expected red: the catalog documents one configuration
(cycle-63-434) whose printed scheme fails its final save in the three
corners where the second pair save takes its shared part, (S, R), (T, R) and
(R, R); the failing assertion names them.  A concrete assignment realizing
the failure is checked in test_claims, and a bounded exhaustive search found
no corner-universal replacement in the step vocabulary.
"""

import itertools
import time

from chooselab import claims as claims_mod
from chooselab import discharging, key_lemma
from chooselab.claims import (build_claim, golden_catalog, verify_all,
                              verify_claim)
from chooselab.multicolor import choosable, colorable_ab
from chooselab.nice import profile
from chooselab.plane import (complete_bipartite, cube_graph, cycle_graph,
                             dodecahedron_graph, grid_patch)
from chooselab.reduction import BoundViolated, three_sets_pick


def _verdict(n: int, desc: str, ok: bool, extra: str = "") -> bool:
    line = f"[criterion {n:>2}] {'PASS' if ok else 'FAIL'} - {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    return ok


def test_criterion_1_claims_suite():
    t0 = time.monotonic()
    summary = verify_all()
    dt = time.monotonic() - t0
    minimality = {"cycle-444-41-52", "cycle-51-434", "cycle-5-34-51"}
    confined = all((r.claim_id in minimality) == bool(r.assumptions)
                   for r in summary.reports)
    ok = summary.passed and confined and dt < 10
    extra = f"{len(summary.reports)} claims, {dt:.1f}s"
    if not summary.passed:
        extra += f"; failing: {summary.failed_ids}"
    failing = [
        f"{r.claim_id}/{v.name} fails in corner branches "
        + ", ".join(f"({', '.join(b.corners)})"
                    for b in v.trace.branches if not b.legal)
        for r in summary.reports for v in r.variants if not v.trace.legal]
    assert _verdict(1, "all claims verify with assumptions confined to the "
                       "three explicit-coloring claims", ok, extra), (
        "; ".join(failing) + "; see the decisions notes and "
        "test_claims.test_cycle_63_434_symbolic_failure_is_real")


def test_criterion_2_star_discrepancy():
    rep = verify_claim("star")
    by = {v.name: v for v in rep.variants}
    lit4 = by["k=4"].literal_trace
    _, rec4 = lit4.first_illegal()
    lit5 = by["k=5"].literal_trace
    _, rec5 = lit5.first_illegal()
    lit6 = by["k=6"].literal_trace
    ok = (rep.passed
          and not lit4.legal and rec4.step == "<0>"
          and (rec4.rhs, rec4.lhs) == (10, 9)
          and not lit5.legal and rec5.step == "<0>"
          and not lit6.legal)
    # determinism: byte-identical reports across runs
    again = verify_claim("star")
    ok = ok and [v.as_dict() for v in rep.variants] == \
        [v.as_dict() for v in again.variants]
    assert _verdict(2, "printed star scheme fails for k >= 4 (k=4 needs 10, "
                       "has 9); repaired passes; deterministic", ok)


def test_criterion_3_profile_golden_table():
    golden = golden_catalog()
    values = 0
    mismatches = []
    for cid, entry in golden.items():
        for vname, var in entry["variants"].items():
            if "profile" not in var:
                continue
            bv = build_claim(cid, vname)
            pairs = profile(bv.graph, set(bv.h)).pairs()
            for lab, fg in var["profile"].items():
                values += 1
                if pairs[bv.labels[lab]] != tuple(fg):
                    mismatches.append((cid, vname, lab))
    ok = values >= 60 and not mismatches
    assert _verdict(3, "profile computation reproduces every printed (f, g) "
                       "value exactly", ok, f"{values} values")


def test_criterion_4_key_lemma_cases():
    t0 = time.monotonic()
    reports = key_lemma.verify_all_cases()
    dt = time.monotonic() - t0
    counts = [(r.case, r.classes_total, r.classes_colorable) for r in reports]
    ok = (counts == [("P2", 8, 7), ("P3", 410, 395),
                     ("P4", 154279, 153042), ("K13", 154279, 153072)]
          and not any(r.sampled for r in reports)
          and all(r.ok for r in reports)
          and dt < 300)
    extra = ", ".join(f"{r.case}:{r.classes_colorable}/{r.classes_total}"
                      for r in reports) + f", {dt:.0f}s"
    assert _verdict(4, "partial-coloring constructions verified over every "
                       "canonical class", ok, extra)


def test_criterion_5_three_sets_oracle():
    universe = 6
    masks = list(range(1 << universe))
    bits = {m: frozenset(i + 1 for i in range(universe) if m >> i & 1)
            for m in masks}
    pop = [bin(m).count("1") for m in masks]
    mismatches = 0
    checked = 0
    t0 = time.monotonic()
    for A in masks:
        for B in masks:
            for C in masks:
                s_max = pop[A & ~C]
                t_max = pop[B & ~C]
                r_max = pop[A & B & C]
                for m in range(1, 7):
                    checked += 1
                    # independent oracle: search the size simplex directly
                    feasible = any(
                        s + t + r == m
                        for s in range(min(s_max, m) + 1)
                        for t in range(min(t_max, m - s) + 1)
                        for r in (m - s - t,)
                        if r <= r_max)
                    try:
                        S, T, R = three_sets_pick(bits[A], bits[B], bits[C], m)
                        greedy = True
                        assert S <= bits[A] - bits[C]
                        assert T <= bits[B] - bits[C]
                        assert R <= bits[A] & bits[B] & bits[C]
                        assert len(S) + len(T) + len(R) == m
                    except BoundViolated:
                        greedy = False
                    if greedy != feasible:
                        mismatches += 1
                    # the lemma hypothesis always suffices
                    if pop[A] + pop[B] >= pop[C] + m and not greedy:
                        mismatches += 1
    dt = time.monotonic() - t0
    ok = mismatches == 0 and checked >= 10 ** 6
    assert _verdict(5, "greedy three-sets pick agrees with the simplex "
                       "oracle on the full 6-color universe", ok,
                    f"{checked} triples, {dt:.0f}s")


def test_criterion_6_choosability_sanity():
    checks = []
    t = time.monotonic()
    v = choosable(cycle_graph(5), 2, 1)
    checks.append(("C5 not (2,1)-choosable",
                   not v.ok and v.witness is not None, time.monotonic() - t))
    t = time.monotonic()
    checks.append(("C4 (2,1)-choosable", choosable(cycle_graph(4), 2, 1).ok,
                   time.monotonic() - t))
    t = time.monotonic()
    v = choosable(complete_bipartite(3, 3), 2, 1)
    checks.append(("K33 not (2,1)-choosable",
                   not v.ok and v.witness is not None, time.monotonic() - t))
    t = time.monotonic()
    checks.append(("C5 (5,2)-colorable", colorable_ab(cycle_graph(5), 5, 2),
                   time.monotonic() - t))
    t = time.monotonic()
    checks.append(("C5 not (4,2)-colorable",
                   not colorable_ab(cycle_graph(5), 4, 2),
                   time.monotonic() - t))
    ok = all(good and dt < 1.0 for _, good, dt in checks)
    worst = max(dt for _, _, dt in checks)
    assert _verdict(6, "choosability sanity verdicts with witnesses", ok,
                    f"worst {worst * 1000:.0f}ms")


def test_criterion_7_conservation():
    from fixtures_embedded import quad_wheel
    fixtures = {
        "cube": cube_graph(),
        "dodecahedron": dodecahedron_graph(),
        "grid-4x4": grid_patch(3, 3),
        "grid-2x7": grid_patch(1, 6),
        "quad-wheel (a wheel closure of the (5,3,4,3)-face pattern)":
            quad_wheel(),
    }
    ok = True
    for name, G in fixtures.items():
        led = discharging.final_charges(G)
        if not (led.total_initial == -240 and led.total_final == -240):
            ok = False
    assert _verdict(7, "initial and final charge total -20 exactly on every "
                       "embedded fixture", ok, f"{len(fixtures)} fixtures")


def test_criterion_8_rule_table_audits():
    findings, _ = discharging.audit_family_partition()
    obs = discharging.audit_transfer_observations()
    ineq = discharging.audit_inequality_6plus(12)
    tight = 18 * 7 - 120 - 2 * 3
    ok = not findings and not obs and not ineq and tight == 0
    assert _verdict(8, "family partition, observation floors, and the "
                       "high-degree bound audit come back clean", ok)


def test_criterion_9_case_ledger():
    from chooselab.ledger_data import CASE_LEDGER
    findings = discharging.audit_case_ledger()
    ok = len(CASE_LEDGER) >= 40 and not findings
    assert _verdict(9, "every displayed final-charge line reproduces from "
                       "the rule tables", ok, f"{len(CASE_LEDGER)} lines")


def test_criterion_10_four_face_sweep():
    t0 = time.monotonic()
    findings, surviving, excluded = discharging.sweep_4face()
    dt = time.monotonic() - t0
    ok = not findings and dt < 120
    assert _verdict(10, "every surviving 4-face scenario collects at least 2",
                    ok, f"{surviving} survivors, {excluded} excluded, "
                        f"{dt:.0f}s")
