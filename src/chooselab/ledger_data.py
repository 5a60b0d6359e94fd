"""Golden table of the displayed final-charge arithmetic, in twelfths.

Each entry records one displayed computation line: a list of (coefficient,
anchor) terms and the claimed total.  check_entry recomputes the sum exactly
and re-derives every anchored amount from the rule tables in discharging:

    ("init_v", d) / ("init_f", d)   initial charges
    ("R1", "3_0" | "3_1")           R1_RATES, the neighbor rates
    ("R2", key)                     R2_RATES, the 4-vertex sub-case table
    ("R3", k)                       r3_rate(k), also used as type-k caps
    ("R4",)                         R4_RATE, the 6+ flat rate
    ("R5", "5,4_1,5,5")             family classification of the pattern
    ("R5max", excluded_tags)        best rate outside the excluded families
    ("obs", n)                      OBS_FLOORS, the observation floors
    ("lit", x)                      plain value, arithmetic only
"""

from __future__ import annotations

from .discharging import (FAMILIES, CATCH_ALL, OBS_FLOORS, R1_RATES, R2_RATES,
                          R4_RATE, Finding, classify_family, compile_pattern,
                          pattern as parse_pattern, pattern_matches, r3_rate,
                          spec, twelfths_str)


def _r5max(excluded: tuple[str, ...]) -> int:
    amounts = [amt for tag, amt, _ in FAMILIES if tag not in excluded]
    amounts.append(CATCH_ALL[1])
    return max(amounts)


def _concrete_lambda(s: str):
    """A concrete class tuple realizing a pattern string exactly."""
    out = []
    for p in s.split(","):
        sp = spec(p.strip())
        if sp.d_atleast and sp.d >= 6:
            out.append((6, None))
            continue
        out.append((sp.d, sp.t if sp.t is not None else 0))
    return tuple(out)


def amount_of(anchor: tuple) -> int:
    kind = anchor[0]
    if kind == "init_v":
        return (3 * anchor[1] - 10) * 12
    if kind == "init_f":
        return (2 * anchor[1] - 10) * 12
    if kind == "R1":
        return R1_RATES[int(anchor[1].removeprefix("3_"))]
    if kind == "R2":
        return R2_RATES[anchor[1]]
    if kind == "R3":
        return r3_rate(anchor[1])
    if kind == "R4":
        return R4_RATE
    if kind == "R5":
        lam = _concrete_lambda(anchor[1])
        tag, amt = classify_family(lam)
        want_pat = compile_pattern(parse_pattern(anchor[1]))
        if not pattern_matches(want_pat, lam):
            raise AssertionError(f"pattern {anchor[1]} does not match its own "
                                 f"concretization")
        return amt
    if kind == "R5max":
        return _r5max(anchor[1])
    if kind == "obs":
        return OBS_FLOORS[anchor[1]]
    if kind == "lit":
        return anchor[1]
    raise KeyError(anchor)


def check_entry(entry: dict) -> list[Finding]:
    findings = []
    total = 0
    for coeff, anchor in entry["terms"]:
        try:
            amt = amount_of(tuple(anchor))
        except Exception as exc:  # re-derivation failure is a finding
            findings.append(Finding("case-ledger",
                                    f"{entry['id']}: {anchor}: {exc}"))
            continue
        total += coeff * amt
    if total != entry["total"]:
        findings.append(Finding(
            "case-ledger",
            f"{entry['id']}: sum {twelfths_str(total)} == "
            f"{twelfths_str(entry['total'])} fails"))
    return findings


def E(id: str, about: str, terms, total: int) -> dict:
    return {"id": id, "about": about, "terms": terms, "total": total}


CASE_LEDGER: list[dict] = [
    # ---- the 4-face lemma ----------------------------------------------
    E("f.all5+", "all corners 5+",
      [(1, ("init_f", 4)), (4, ("obs", 2))], 0),
    E("f.all40", "all corners 4_0",
      [(1, ("init_f", 4)), (4, ("R2", "1"))], 0),
    E("f.c1.six", "case 1 with a 6+ corner",
      [(1, ("init_f", 4)), (2, ("obs", 2)), (1, ("obs", 3))], 0),
    E("f.c1.d3", "case 1, d(v4)=3",
      [(1, ("init_f", 4)), (2, ("R5", "5,3,5,5")), (1, ("obs", 2))], 0),
    E("f.c1.d4t0", "case 1, v4 a 4_0",
      [(1, ("init_f", 4)), (1, ("R2", "1")), (3, ("obs", 2))], 0),
    E("f.c1.d4t1", "case 1, v4 a 4_1",
      [(1, ("init_f", 4)), (1, ("R2", "2off")), (2, ("R5", "5,4_1,5,5")),
       (1, ("obs", 2))], 0),
    E("f.c1.d4t2", "case 1, v4 a 4_2",
      [(1, ("init_f", 4)), (1, ("R2", "5none")), (2, ("R5", "5,4_2,5,5")),
       (1, ("obs", 2))], 0),
    E("f.c2.two3-or-two6", "case 2, both light corners 3 or both heavy 6+",
      [(1, ("init_f", 4)), (2, ("obs", 4))], 0),
    E("f.c2.1a", "subcase 2.1, 3_1-or-4_2 beside a 6+ (first bullet)",
      [(1, ("init_f", 4)), (1, ("R2", "3other")), (1, ("R5", "5,4,3,6+")),
       (1, ("R4",))], 0),
    E("f.c2.1b", "subcase 2.1, mirrored bullet",
      [(1, ("init_f", 4)), (1, ("R2", "3other")), (1, ("R5", "5,3,4,6+")),
       (1, ("R4",))], 0),
    E("f.c2.1c", "subcase 2.1, v3 a 5_{>=1}",
      [(1, ("init_f", 4)), (1, ("R2", "3other")),
       (1, ("R5", "5,3_1,4_1,5_>=1")), (1, ("R5", "5_>=1,4_1,3_1,5"))], 0),
    E("f.c2.1d", "subcase 2.1, v3 a 5_0",
      [(1, ("init_f", 4)), (1, ("R2", "3other")),
       (1, ("R5", "5,3_1,4_1,5_0")), (1, ("R5", "5_0,4,3,5"))], 0),
    E("f.c2.1e", "subcase 2.1, v1 a 3_0, 6+ present",
      [(1, ("init_f", 4)), (1, ("R2", "2on")), (1, ("obs", 2)),
       (1, ("obs", 3))], 0),
    E("f.c2.1f", "subcase 2.1, v1 a 3_0, v3 a 5_{>=1}",
      [(1, ("init_f", 4)), (1, ("R2", "2on")),
       (1, ("R5", "5,3_0,4_1,5_>=1")), (1, ("R5", "5_>=1,4_1,3_0,5"))], 0),
    E("f.c2.1g", "subcase 2.1, v1 a 3_0, v3 a 5_0",
      [(1, ("init_f", 4)), (1, ("R2", "2on")), (1, ("obs", 2)),
       (1, ("R5", "5_0,4,3,5"))], 0),
    E("f.c2.2a", "subcase 2.2, a 4_0 beside a 6+",
      [(1, ("init_f", 4)), (1, ("R2", "1")), (1, ("obs", 2)),
       (1, ("obs", 3))], 0),
    E("f.c2.2b", "subcase 2.2, both ends 4_1, 6+ present",
      [(1, ("init_f", 4)), (2, ("R2", "2off")), (1, ("obs", 2)),
       (1, ("obs", 3))], 2),
    E("f.c2.2c", "subcase 2.2, v1 a 4_2, v4 a 4_0",
      [(1, ("init_f", 4)), (2, ("obs", 2)), (1, ("R2", "5none")),
       (1, ("R5", "5,4_2,4_0,5"))], 0),
    E("f.c2.2d", "subcase 2.2, both ends 4_1",
      [(1, ("init_f", 4)), (2, ("R2", "3other")), (2, ("R5", "5,4_1,4,5"))],
      0),
    E("f.c2.2e", "subcase 2.2, v1 a 4_1, v4 a 4_0",
      [(1, ("init_f", 4)), (1, ("R2", "1")), (1, ("obs", 2)),
       (1, ("R2", "2off")), (1, ("R5", "5,4_1,4,5"))], 0),
    E("f.c3.two3-or-two6", "case 3, opposite pairs",
      [(1, ("init_f", 4)), (2, ("obs", 4))], 0),
    E("f.c3.1a", "subcase 3.1, v4 a 4_2",
      [(1, ("init_f", 4)), (2, ("R5", "5,3,5+,4_2"))], 0),
    E("f.c3.1b", "subcase 3.1, v4 a 4_1",
      [(1, ("init_f", 4)), (1, ("R2", "2off")), (2, ("R5", "5,3,5+,4_1"))],
      0),
    E("f.c3.1c", "subcase 3.1, v4 a 4_0 beside a 6+",
      [(1, ("init_f", 4)), (1, ("R2", "1")), (1, ("obs", 2)),
       (1, ("obs", 3))], 0),
    E("f.c3.1d", "subcase 3.1, v4 a 4_0 between 5s",
      [(1, ("init_f", 4)), (1, ("R2", "1")), (2, ("R5", "5,3,5,4_0"))], 0),
    E("f.c3.2a", "subcase 3.2, t2 = t4 = 0",
      [(1, ("init_f", 4)), (2, ("R2", "1")), (2, ("obs", 2))], 0),
    E("f.c3.2b", "subcase 3.2, t2 + t4 <= 3 beside a 6+",
      [(1, ("init_f", 4)), (1, ("R2", "2off")), (1, ("R2", "5none")),
       (1, ("obs", 2)), (1, ("obs", 3))], 0),
    E("f.c3.2c", "subcase 3.2, t4 = 1, t2 = 1",
      [(1, ("init_f", 4)), (2, ("R2", "2off")), (2, ("R5", "5,4_1,5,4_1"))],
      0),
    E("f.c3.2d", "subcase 3.2, t4 = 1, t2 = 0",
      [(1, ("init_f", 4)), (1, ("R2", "2off")), (1, ("R2", "1")),
       (2, ("R5", "5,4_1,5,4_0"))], 0),
    E("f.c3.2e", "subcase 3.2, t4 = 2, t2 = 1",
      [(1, ("init_f", 4)), (1, ("R2", "2off")), (1, ("R2", "5none")),
       (2, ("R5", "5,4_1,5,4_2"))], 0),
    E("f.c3.2f", "subcase 3.2, t4 = 2, t2 = 0",
      [(1, ("init_f", 4)), (1, ("R2", "5none")), (1, ("R2", "1")),
       (2, ("R5", "5,4_2,5,4_0"))], 0),
    E("f.c3.2g", "subcase 3.2, t2 = t4 = 2 between 5s",
      [(1, ("init_f", 4)), (2, ("R2", "5none")), (2, ("R5", "5,4_2,5,4_2"))],
      0),
    E("f.c3.2h", "subcase 3.2, t2 = t4 = 2 beside a 6+",
      [(1, ("init_f", 4)), (2, ("R2", "5none")), (1, ("R4",)),
       (1, ("R5", "5,4_2,6+,4_2"))], 0),
    E("f.c4.type1", "case 4, two 3-corners make a type-1 face",
      [(1, ("init_f", 4)), (1, ("R2", "2on")), (1, ("R3", 1))], 0),
    E("f.c4.1a", "subcase 4.1, v2 a 3_1",
      [(1, ("init_f", 4)), (2, ("R2", "3other")), (1, ("R3", 2))], 0),
    E("f.c4.1b", "subcase 4.1, neither side 4 has an extra 3-neighbor",
      [(1, ("init_f", 4)), (2, ("R2", "2on")), (1, ("R5", "5,4_1,3_0,4_1"))],
      0),
    E("f.c4.1c", "subcase 4.1, one side 4 has an extra 3-neighbor",
      [(1, ("init_f", 4)), (1, ("R2", "2on")), (1, ("R2", "2off")),
       (1, ("R3", 3))], 0),
    E("f.c4.1d", "subcase 4.1 second shape, v2 with extra 3-neighbor",
      [(1, ("init_f", 4)), (1, ("R2", "1")), (1, ("R2", "4")),
       (1, ("R3", 3))], 0),
    E("f.c4.1e", "subcase 4.1 second shape, v2 without",
      [(1, ("init_f", 4)), (2, ("R2", "2on")), (1, ("R5", "5,3_0,4_1,4_0"))],
      0),
    E("f.c4.1f", "subcase 4.1, v3 with a 3-neighbor",
      [(1, ("init_f", 4)), (1, ("R2", "2off")), (1, ("R2", "2on")),
       (1, ("R3", 3))], 0),
    E("f.c4.1g", "subcase 4.1, v1 with a 3-neighbor",
      [(1, ("init_f", 4)), (1, ("R2", "1")), (1, ("R2", "3other")),
       (1, ("R3", 3))], 0),
    E("f.c4.2a", "subcase 4.2, one corner 4_2",
      [(1, ("init_f", 4)), (1, ("R2", "5none")), (2, ("R2", "1")),
       (1, ("R5", "5,4_0,4_2,4_0"))], 0),
    E("f.c4.2b", "subcase 4.2, all 4_0",
      [(1, ("init_f", 4)), (3, ("R2", "1")), (1, ("obs", 2))], 0),
    E("f.c4.2c", "subcase 4.2, exactly two 4_0",
      [(1, ("init_f", 4)), (1, ("R2", "2off")), (2, ("R2", "1")),
       (1, ("R5", "5,4_0,4_1,4_0"))], 0),
    E("f.c4.2d", "subcase 4.2, exactly one 4_0",
      [(1, ("init_f", 4)), (2, ("R2", "2off")), (1, ("R2", "1")),
       (1, ("R5", "5,4_1,4_0,4_1"))], 0),
    # ---- vertex lemmas ---------------------------------------------------
    E("v3.one3", "3-vertex with one 3-neighbor",
      [(1, ("init_v", 3)), (2, ("R1", "3_1"))], 0),
    E("v3.no3", "3-vertex with no 3-neighbors",
      [(1, ("init_v", 3)), (3, ("R1", "3_0"))], 0),
    E("v4.no3", "4-vertex without 3-neighbors",
      [(1, ("init_v", 4)), (-4, ("R2", "1"))], 0),
    E("v4.one30", "4-vertex with one 3_0-neighbor",
      [(1, ("init_v", 4)), (-1, ("R1", "3_0")), (-2, ("R2", "2on")),
       (-2, ("R2", "2off"))], 0),
    E("v4.one31", "4-vertex with one 3_1-neighbor",
      [(1, ("init_v", 4)), (-1, ("R1", "3_1")), (-1, ("R2", "3both")),
       (-3, ("R2", "3other"))], 0),
    E("v4.two3-apart", "4-vertex, two nonconsecutive 3-neighbors",
      [(1, ("init_v", 4)), (-2, ("R1", "3_0")), (-4, ("R2", "4"))], 0),
    E("v4.two3-consec", "4-vertex, two consecutive 3-neighbors",
      [(1, ("init_v", 4)), (-2, ("R1", "3_0")), (-1, ("R2", "5both")),
       (-2, ("R2", "5one")), (-1, ("R2", "5none"))], 0),
    E("v6.c1.block", "6-vertex case 1: the (6,3,4,3)-face block",
      [(1, ("R3", 1)), (2, ("R5max", ())), (2, ("R1", "3_0"))], 50),
    E("v6.c1.no-extra", "6-vertex case 1, no further 3-neighbor",
      [(1, ("init_v", 6)), (-1, ("lit", 50)), (-2, ("R3", 2)),
       (-1, ("R3", 3))], 0),
    E("v6.c1.k2", "6-vertex case 1, extra 3-neighbor at position 2",
      [(1, ("init_v", 6)), (-1, ("lit", 50)), (-2, ("R5max", ())),
       (-1, ("R3", 2)), (-1, ("R1", "3_1"))], 0),
    E("v6.c1.k3", "6-vertex case 1, extra 3-neighbor at position 3",
      [(1, ("init_v", 6)), (-1, ("lit", 50)), (-1, ("R5max", ())),
       (-2, ("R3", 3)), (-1, ("R1", "3_1"))], 0),
    E("v6.c2.r1", "6-vertex case 2 with an r1-face",
      [(1, ("lit", 24)), (-1, ("R1", "3_1")), (-1, ("R1", "3_0")),
       (-1, ("lit", 12))], 2),
    E("v6.c2.r0", "6-vertex case 2 without",
      [(1, ("lit", 24)), (-1, ("R1", "3_0")), (-1, ("lit", 18))], 2),
    E("v6.c2.beta4", "four 3_0-neighbors",
      [(4, ("R1", "3_0"))], 16),
    E("v6.c2.ab3", "three 3-neighbors, worst mix",
      [(3, ("R1", "3_1"))], 18),
    E("v5.5343.block", "(5,3,4,3)-face with its two 3-corners",
      [(1, ("R3", 1)), (2, ("R1", "3_0"))], 26),
    E("v5.5343.side", "flank bound 5/6 + 1/2",
      [(1, ("R5max", ("1",))), (1, ("lit", 6))], 16),
    E("v5.5343", "5-vertex on a (5,3,4,3)-face",
      [(1, ("init_v", 5)), (-1, ("lit", 26)), (-2, ("lit", 16))], 2),
    E("v5.5334.block", "(5,3,3,4)-face with its 3_1-corner",
      [(1, ("R3", 1)), (1, ("R1", "3_1"))], 24),
    E("v5.5334", "5-vertex on a (5,3,3,4)-face",
      [(1, ("init_v", 5)), (-1, ("lit", 24)), (-1, ("R5max", ())),
       (-1, ("lit", 6)), (-1, ("lit", 18))], 0),
    E("v5.5434.two-type2", "two (5,4,3_1,4)-faces",
      [(1, ("init_v", 5)), (-2, ("R3", 2)), (-1, ("R5", "5,4_1,5,4_1")),
       (-2, ("R5max", ("1",)))], 0),
    E("v5.5434.one-type2", "one (5,4,3_1,4)-face",
      [(1, ("init_v", 5)), (-1, ("R3", 2)), (-2, ("R5max", ("1",))),
       (-2, ("R5max", ()))], 0),
    E("v5.5434.plain", "no type-2 and no (5,4_2,3_0,4)-face",
      [(1, ("init_v", 5)), (-5, ("R5max", ()))], 0),
    E("v5.5434.one-t3", "one (5,4_2,3_0,4)-face",
      [(1, ("init_v", 5)), (-1, ("R3", 3)), (-1, ("R5max", ("1",))),
       (-3, ("R5max", ()))], 0),
    E("v5.5434.two-t3", "two (5,4_2,3_0,4)-faces",
      [(1, ("init_v", 5)), (-2, ("R3", 3)), (-2, ("R5max", ("1",))),
       (-1, ("R5max", ()))], 0),
    E("v5.5344.T31", "T(v0, f4) for a 3_1 corner",
      [(1, ("R1", "3_1")), (1, ("R5max", ()))], 18),
    E("v5.5344.T30", "T(v0, f4) for a 3_0 corner",
      [(1, ("R1", "3_0")), (1, ("R3", 3))], 18),
    E("v5.5344.low", "a flank at most 2/3",
      [(1, ("init_v", 5)), (-1, ("R3", 3)), (-1, ("lit", 18)),
       (-2, ("R5max", ("1",))), (-1, ("R5max", ("1", "5/6", "3/4")))], 0),
    E("v5.5344.mid", "T(v0, f4) at most 4/3",
      [(1, ("init_v", 5)), (-1, ("R3", 3)), (-1, ("lit", 16)),
       (-3, ("R5max", ("1",)))], 0),
    E("v5.5344.top", "T(f0) at most 1",
      [(1, ("init_v", 5)), (-1, ("R5max", ())), (-1, ("lit", 18)),
       (-3, ("R5max", ("1",)))], 0),
    E("v5.no3", "5-vertex without 3-neighbors",
      [(1, ("init_v", 5)), (-5, ("R5max", ()))], 0),
    E("v5.one3", "5-vertex with one 3-neighbor",
      [(1, ("init_v", 5)), (-1, ("R1", "3_1")), (-2, ("R5max", ())),
       (-3, ("R5max", ("1",)))], 0),
    E("v5.two3.clean", "two 3-neighbors, neither with a 3-neighbor",
      [(1, ("init_v", 5)), (-2, ("R1", "3_0")), (-1, ("R5max", ())),
       (-4, ("R5max", ("1",)))], 0),
    E("v5.two3.l1", "two consecutive 3-neighbors",
      [(1, ("init_v", 5)), (-2, ("R1", "3_1")), (-2, ("lit", 6)),
       (-3, ("R5max", ()))], 0),
    E("v5.two3.l2.a", "two 3-neighbors one apart, v2 clean",
      [(1, ("lit", 60)), (-1, ("lit", 28)), (-1, ("lit", 24)),
       (-1, ("lit", 6))], 2),
    E("v5.two3.l2.a1", "... with T(f0,f4,v0) at most 7/3",
      [(1, ("R5max", ())), (1, ("R5max", ("1",))), (1, ("R1", "3_1"))], 28),
    E("v5.two3.l2.a2", "... and T(f1,f2,v2) at most 2",
      [(2, ("R5max", ("1",))), (1, ("R1", "3_0"))], 24),
    E("v5.two3.l2.b", "two 3-neighbors one apart, both flanked",
      [(1, ("init_v", 5)), (-2, ("lit", 27)), (-1, ("lit", 6))], 0),
    E("v5.two3.l2.b1", "... block T(v2,f1) + T(f2) at most 9/4",
      [(1, ("R5max", ())), (1, ("lit", 6)), (1, ("R5max", ("1", "5/6")))],
      27),
    E("v5.three3.sent", "three 3-neighbors receive 1 in total",
      [(3, ("R1", "3_0"))], 12),
    E("v5.three3.l3", "three 3-neighbors, two consecutive",
      [(1, ("init_v", 5)), (-1, ("lit", 12)), (-1, ("R5max", ())),
       (-4, ("R5max", ("1", "5/6")))], 0),
    E("v5.three3.l2", "three 3-neighbors, spread",
      [(1, ("init_v", 5)), (-3, ("R1", "3_0")), (-2, ("R5max", ())),
       (-2, ("R5max", ("1", "5/6"))), (-1, ("lit", 6))], 0),
    E("v7.tight", "degree 7 with maximal r0",
      [(1, ("lit", 6)), (-3, ("lit", 2))], 0),
]
