"""Exact discharging on embedded triangle-free plane graphs.

Initial charges are c(v) = 3 d(v) - 10 and c(f) = 2 d(f) - 10, summing to
-20 by Euler's formula.  Charge moves along five rules: R1 feeds 3-vertices
from their neighbors; R2 sends 4-vertex charge into incident 4-faces keyed
by the sender's 3-neighbor layout; R3 boosts the privileged face types 1-3;
R4 is the 6+-vertex flat rate; R5 keys a 5-vertex's rate to the degree-class
signature of the face read from the sender, matched against the family
tables in either orientation, first family wins.

The family and face-type patterns are written as ClassSpec strings and
compiled once, at import, into the sets of classes each component admits,
so matching a pattern is four set lookups per orientation.

All amounts are integer twelfths; nothing here touches floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType

from .plane import (Face, NotEmbedded, NotIncident, NotQuadFace, PlaneGraph,
                    consecutive, degree_class)

# charge amounts, in twelfths
SIXTH = 2
THIRD = 4
HALF = 6
SEVEN_TWELFTHS = 7
TWO_THIRDS = 8
THREE_QUARTERS = 9
FIVE_SIXTHS = 10
ONE = 12


def twelfths_str(x: int) -> str:
    """x/12 in lowest terms, as str(Fraction(x, 12)) prints it."""
    g = math.gcd(x, 12)
    return str(x // g) if g == 12 else f"{x // g}/{12 // g}"


# -- degree classes and lambda patterns --------------------------------------

# a concrete class is (d, t): d in {3, 4, 5} exact or 6 meaning "6+" (t None)
Klass = tuple[int, int | None]

ALL_CLASSES: tuple[Klass, ...] = ((3, 0), (3, 1), (4, 0), (4, 1), (4, 2),
                                  (5, 0), (5, 1), (5, 2), (5, 3), (6, None))

# every class klass_of can return, including the ones real graphs have outside
# ALL_CLASSES (degree 2 or less, t > d - 2): the compiled patterns' universe
CLASS_DOMAIN: tuple[Klass, ...] = tuple(
    (d, t) for d in range(6) for t in range(d + 1)) + ((6, None),)


def klass_of(G: PlaneGraph, v: int) -> Klass:
    c = degree_class(G, v)
    if c.d >= 6:
        return (6, None)
    return (c.d, c.t)


def klass_str(c: Klass) -> str:
    d, t = c
    return "6+" if d >= 6 else f"{d}_{t}"


@dataclass(frozen=True)
class ClassSpec:
    """One component of a family pattern: degree with optional t-constraint."""

    d: int
    d_atleast: bool = False
    t: int | None = None
    t_atleast: bool = False

    def matches(self, c: Klass) -> bool:
        d, t = c
        if self.d_atleast:
            if d < self.d:
                return False
        elif d != self.d:
            return False
        if self.t is None:
            return True
        if t is None:
            return False  # collapsed 6+ carries no t; t-specs never match it
        if self.t_atleast:
            return t >= self.t
        return t == self.t


def spec(s: str) -> ClassSpec:
    """Parse "5", "5+", "6+", "3_0", "4_1", "5_0", "5_>=1"."""
    if s.endswith("+"):
        return ClassSpec(int(s[:-1]), d_atleast=True)
    if "_" in s:
        d, t = s.split("_")
        if t.startswith(">="):
            return ClassSpec(int(d), t=int(t[2:]), t_atleast=True)
        return ClassSpec(int(d), t=int(t))
    return ClassSpec(int(s))


def pattern(s: str) -> tuple[ClassSpec, ClassSpec, ClassSpec, ClassSpec]:
    return tuple(spec(p.strip()) for p in s.split(","))  # type: ignore


CompiledPattern = tuple[frozenset, frozenset, frozenset, frozenset]


def compile_pattern(pat) -> CompiledPattern:
    """Each component as the set of CLASS_DOMAIN classes it matches."""
    return tuple(frozenset(c for c in CLASS_DOMAIN if sp.matches(c))
                 for sp in pat)  # type: ignore[return-value]


LambdaPattern = tuple[Klass, Klass, Klass, Klass]

FAMILIES: tuple[tuple[str, int, tuple], ...] = (
    ("1", ONE, (
        pattern("5,3,3,5+"), pattern("5,3_0,4_1,4_0"), pattern("5,3,5+,4_2"),
        pattern("5,3,5+,3"), pattern("5,4_1,3_0,4_1"), pattern("5_0,4,3,5"),
    )),
    ("5/6", FIVE_SIXTHS, (
        pattern("5,3_0,4_2,5_>=1"), pattern("5,3_1,4_1,5_>=1"),
        pattern("5,3,5+,4_1"), pattern("5_>=1,4_2,3_0,5"),
        pattern("5_>=1,4_1,3_1,5"), pattern("5,4_2,5,4_2"),
        pattern("5,4_0,4_1,4_1"), pattern("5,4_1,4_0,4_1"),
        pattern("5,4_0,4_2,4_0"), pattern("5,4_2,4_0,5"),
        pattern("5,4_0,4_0,4_2"),
    )),
    ("3/4", THREE_QUARTERS, (
        pattern("5,3,5,4_0"), pattern("5,3,5,5"), pattern("5,3_0,4_1,5_>=1"),
        pattern("5,4_1,5,4_2"), pattern("5_>=1,4_1,3_0,5"),
    )),
    ("2/3", TWO_THIRDS, (
        pattern("5,3_1,4_1,5_0"), pattern("5,3_0,4_2,5_0"),
        pattern("5,3,4,6+"), pattern("5,4,3,6+"), pattern("5,4_0,4_1,4_0"),
        pattern("5,4_0,4_0,4_1"), pattern("5,4_1,4,5"),
        pattern("5,4_1,5,4_1"), pattern("5,4_2,5,4_0"), pattern("5,4_2,5,5"),
        pattern("5,4_2,6+,4_2"),
    )),
    ("7/12", SEVEN_TWELFTHS, (
        pattern("5,4_1,5,4_0"), pattern("5,4_1,5,5"),
    )),
)

CATCH_ALL = ("1/2", HALF)

_FAMILY_TABLE = tuple((tag, amt, tuple(compile_pattern(p) for p in pats))
                      for tag, amt, pats in FAMILIES)


def pattern_matches(pat: CompiledPattern, lam: LambdaPattern) -> bool:
    """A compiled pattern against lam, forwards or reversed after the sender."""
    s0, s1, s2, s3 = pat
    u, a, w, b = lam
    return u in s0 and w in s2 and (a in s1 and b in s3 or b in s1 and a in s3)


def _any_matches(pats, lam: LambdaPattern) -> bool:
    for p in pats:
        if pattern_matches(p, lam):
            return True
    return False


def classify_family(lam: LambdaPattern) -> tuple[str, int]:
    """First family in printed order matching either orientation; else 1/2."""
    for tag, amt, pats in _FAMILY_TABLE:
        if _any_matches(pats, lam):
            return tag, amt
    return CATCH_ALL


# -- face types ----------------------------------------------------------------

_TYPE3_PATTERNS = (pattern("5+,3_0,4_1,4_1"), pattern("5+,3_0,4_2,4_0"),
                   pattern("5+,3_1,4_1,4_0"), pattern("5+,4_2,3_0,4_1"))
_TYPE3_TABLE = tuple(compile_pattern(p) for p in _TYPE3_PATTERNS)


def face_type_of_classes(corners: tuple[Klass, Klass, Klass, Klass]) -> int | None:
    """Type 1/2/3 of a 4-face from its cyclic corner classes, else None."""
    heavy = [i for i, (d, _) in enumerate(corners) if d >= 5]
    if len(heavy) != 1:
        return None
    i = heavy[0]
    u, a, w, b = corners[i:] + corners[:i]
    degs = sorted(x[0] for x in (a, w, b))
    if degs == [3, 3, 4]:
        return 1
    if (a[0], w[0], b[0]) == (4, 3, 4) and w == (3, 1):
        return 2
    if _any_matches(_TYPE3_TABLE, (u, a, w, b)):
        return 3
    return None


def face_type(G: PlaneGraph, f: Face) -> int | None:
    if f.degree != 4:
        return None
    return face_type_of_classes(tuple(klass_of(G, v) for v in f.vertices))


def lambda_pattern(G: PlaneGraph, u: int, f: Face) -> LambdaPattern:
    """Degree-class signature (class(u), k1, k2, k3) in boundary order from u."""
    if f.degree != 4:
        raise NotQuadFace(f"face has degree {f.degree}")
    if u not in f.vertices:
        raise NotIncident(f"{u} not on face")
    i = f.vertices.index(u)
    order = f.vertices[i:] + f.vertices[:i]
    return tuple(klass_of(G, v) for v in order)  # type: ignore[return-value]


# -- the rules ------------------------------------------------------------------

# Each rule's amounts are defined here once; apply_rules, the sweeps, the
# audits and the case ledger all read them from these tables.

# R1: a 3_t-vertex receives R1_RATES[t] from each 4+-neighbor (for t = 0,
# from each neighbor)
R1_RATES = {0: THIRD, 1: HALF}

# R2: a 4-vertex's rate into an incident 4-face, by sub-case: the rule
# number, then where the sender's 3-neighbors (and theirs) sit on the face
R2_RATES = {
    "1": HALF,
    "2on": HALF, "2off": THIRD,
    "3both": HALF, "3other": THIRD,
    "4": THIRD,
    "5both": HALF, "5one": THIRD, "5none": SIXTH,
}

# R4: the 6+ flat rate
R4_RATE = ONE

# the observed floors (1) R2, (2) 5-vertex, (3) 6+ and (4) 5+ beside two
# 3-corners, which the case ledger cites as ("obs", n)
OBS_FLOORS = {1: SIXTH, 2: HALF, 3: ONE, 4: ONE}


def r3_rate(k: int) -> int:
    """R3: (10 - k)/6 from the 5+ corner into a type-k face."""
    return (10 - k) * ONE // 6


def heavy_rate(lam: LambdaPattern, ftype: int | None) -> tuple[int, str]:
    """The amount and rule label of a 5+ sender whose face reads lam from it:
    R3 on a typed face, R4 from a 6+ vertex, else R5 by family."""
    if ftype is not None:
        return r3_rate(ftype), f"R3(type{ftype})"
    if lam[0][0] >= 6:
        return R4_RATE, "R4"
    tag, amt = classify_family(lam)
    return amt, f"R5[F{tag}]"


FIVES: tuple[Klass, ...] = tuple(c for c in ALL_CLASSES if c[0] == 5)


@functools.cache
def r5_table() -> MappingProxyType[LambdaPattern, tuple[tuple[str, ...], int]]:
    """Every lambda pattern (5_t, k1, k2, k3) over ALL_CLASSES, in product
    order, mapped to the families matching it and its R5 amount, both read
    from the family table classify_family reads.  Each compiled pattern lists
    the lambdas it matches, forwards and reversed.  Built on first use, once
    per process, and read-only, since every caller shares it."""
    space = (FIVES, ALL_CLASSES, ALL_CLASSES, ALL_CLASSES)
    fams: dict[LambdaPattern, list[str]] = {
        lam: [] for lam in itertools.product(*space)}
    for tag, _amt, pats in _FAMILY_TABLE:
        views = [v for s0, s1, s2, s3 in pats
                 for v in ((s0, s1, s2, s3), (s0, s3, s2, s1))]
        for lam in {lam for v in views for lam in itertools.product(
                *([c for c in dom if c in s] for dom, s in zip(space, v)))}:
            fams[lam].append(tag)
    amount = {tag: amt for tag, amt, _ in _FAMILY_TABLE} | dict([CATCH_ALL])
    return MappingProxyType({
        lam: (tuple(tags), amount[tags[0] if tags else CATCH_ALL[0]])
        for lam, tags in fams.items()})


@dataclass(frozen=True)
class TransferRecord:
    sender: int
    receiver_kind: str  # "v" | "f"
    receiver: int       # vertex id or face index
    amount: int         # twelfths
    rule: str

    def as_dict(self) -> dict:
        return {"from": self.sender,
                "to": (f"v{self.receiver}" if self.receiver_kind == "v"
                       else f"f{self.receiver}"),
                "amount": twelfths_str(self.amount), "rule": self.rule}


def initial_charges(G: PlaneGraph) -> dict[tuple[str, int], int]:
    """c(v) = 3d - 10 and c(f) = 2d - 10, in twelfths."""
    charges: dict[tuple[str, int], int] = {}
    for v in G.vertices:
        charges[("v", v)] = (3 * G.degree(v) - 10) * 12
    for i, f in enumerate(G.faces()):
        charges[("f", i)] = (2 * f.degree - 10) * 12
    return charges


def _r2_case(G: PlaneGraph, deg: dict[int, int], u: int,
             corners: tuple[int, ...]) -> str | None:
    """The R2_RATES key of 4-vertex u on the face with these corners."""
    threes = sorted(w for w in G.neighbors(u) if deg[w] == 3)
    if len(threes) == 0:
        return "1"
    if len(threes) == 1:
        v = threes[0]
        v_threes = sorted(x for x in G.neighbors(v) if deg[x] == 3)
        if not v_threes:
            return "2on" if v in corners else "2off"
        return "3both" if v in corners and v_threes[0] in corners else "3other"
    if len(threes) == 2:
        v, w = threes
        if consecutive(G, u, v, w):
            return ("5none", "5one", "5both")[(v in corners) + (w in corners)]
        return "4"
    return None  # >= 3 three-neighbors: outside the rule table


@dataclass
class RuleOutput:
    transfers: list[TransferRecord]
    gaps: list[str] = field(default_factory=list)


def _transfers(G: PlaneGraph, gaps: list[str]) -> list[tuple]:
    """apply_rules' transfers as unsorted tuples; the gaps go to `gaps`."""
    if G.abstract:
        raise NotEmbedded("discharging needs an embedding")
    faces = G.faces()
    transfers: list[tuple] = []
    deg = {v: G.degree(v) for v in G.vertices}
    klass = {v: (6, None) if d >= 6 else
             (d, sum(1 for w in G.neighbors(v) if deg[w] == 3))
             for v, d in deg.items()}

    # R1, receiver driven
    silent = set()  # neighbors of 3_0-vertices of degree 2 or less, once each
    for u, d in deg.items():
        if d != 3:
            continue
        t = klass[u][1]
        if t not in R1_RATES:
            gaps.append(f"R1: 3-vertex {u} has {t} 3-neighbors")
            continue
        for w in sorted(G.neighbors(u)):
            if deg[w] >= 4:
                transfers.append((w, "v", u, R1_RATES[t], "R1"))
            elif t == 0 and w not in silent:
                silent.add(w)
                gaps.append(f"R1: {deg[w]}-vertex {w} sends nothing")

    # R2-R5, sender driven over incident 4-faces
    # corners outside R2-R5, reported once each: degree 2 or less, or a
    # 4-vertex with 3+ 3-neighbors
    listed = set()
    heavy = functools.cache(heavy_rate)  # one answer per (lambda, face type)
    for fi, f in enumerate(faces):
        if f.degree != 4:
            continue
        corners = f.vertices
        classes = tuple(klass[v] for v in corners)
        ftype = face_type_of_classes(classes)
        for u in corners:
            d = deg[u]
            if d == 3:
                continue
            if d <= 2:
                if u not in listed:
                    listed.add(u)
                    gaps.append(f"R2-R5: {d}-vertex {u} sends nothing")
                continue
            if d == 4:
                case = _r2_case(G, deg, u, corners)
                if case is None:
                    if u not in listed:
                        listed.add(u)
                        gaps.append(f"R2: 4-vertex {u} has 3+ 3-neighbors")
                    continue
                transfers.append((u, "f", fi, R2_RATES[case],
                                  f"R2({case[0]})"))
            else:
                i = corners.index(u)  # the lambda pattern: classes from u
                transfers.append((u, "f", fi)
                                 + heavy(classes[i:] + classes[:i], ftype))
    return transfers


def apply_rules(G: PlaneGraph) -> RuleOutput:
    """The complete deterministic transfer set for an embedded triangle-free
    graph.  Vertices outside the rule tables (for example a 3-vertex with two
    3-neighbors, which the configuration catalog forbids in a minimal host,
    or a vertex of degree 2 or less beside a 3_0-vertex or on a 4-face) are
    reported as gaps and send or receive nothing by the affected rule.
    """
    gaps: list[str] = []
    records = sorted(_transfers(G, gaps), key=itemgetter(0, 1, 2, 4))
    return RuleOutput([TransferRecord(*r) for r in records], gaps)


@dataclass
class Ledger:
    rows: list[dict]
    total_initial: int
    total_final: int
    gaps: list[str]

    @property
    def conserved(self) -> bool:
        return self.total_initial == self.total_final

    @property
    def negatives(self) -> list[dict]:
        return [r for r in self.rows if r["final"] < 0]

    def as_dict(self) -> dict:
        tw = functools.cache(twelfths_str)  # each distinct amount once
        return {"schema": 1,
                "total_initial": tw(self.total_initial),
                "total_final": tw(self.total_final),
                "conserved": self.conserved,
                "gaps": self.gaps,
                "rows": [
                    {"element": r["element"],
                     "initial": tw(r["initial"]),
                     "in": tw(r["in"]),
                     "out": tw(r["out"]),
                     "final": tw(r["final"])}
                    for r in self.rows
                ]}


def final_charges(G: PlaneGraph) -> Ledger:
    charges = initial_charges(G)
    gaps: list[str] = []
    inflow, outflow = dict.fromkeys(charges, 0), dict.fromkeys(charges, 0)
    for sender, kind, receiver, amount, _rule in _transfers(G, gaps):
        outflow[("v", sender)] += amount
        inflow[(kind, receiver)] += amount
    rows = [{"element": f"{key[0]}{key[1]}", "initial": c,
             "in": inflow[key], "out": outflow[key],
             "final": c + inflow[key] - outflow[key]}
            for key, c in sorted(charges.items())]
    return Ledger(rows=rows, total_initial=sum(charges.values()),
                  total_final=sum(r["final"] for r in rows), gaps=gaps)


# -- audits ----------------------------------------------------------------------

@dataclass
class Finding:
    audit: str
    detail: str

    def as_dict(self) -> dict:
        return {"audit": self.audit, "detail": self.detail}


def audit_family_partition() -> tuple[list[Finding], int]:
    """Sweep every lambda pattern over the collapsed class space; report any
    pattern matched by two named families (in any orientation) and count the
    catch-all coverage."""
    findings = []
    catch_all = 0
    for lam, (fams, _amt) in r5_table().items():
        if len(fams) > 1:
            findings.append(Finding(
                "families",
                f"{tuple(klass_str(c) for c in lam)} matched by {list(fams)}"))
        elif not fams:
            catch_all += 1
    return findings, catch_all


# the two pinned R5 rates: (5, 4_0, w, 4_0) for these middle corners w
_PINS = {(4, 2): FIVE_SIXTHS, (4, 1): TWO_THIRDS}


def audit_transfer_observations() -> list[Finding]:
    """Floors and pins for the transfer amounts.

    (1) every R2 amount is at least 1/6; (2) every 5-vertex amount at least
    1/2; (3) every 6+ amount at least 1; (4) with two 3-vertices on the face
    and the (3,3,3)-path excluded, every 5+ amount is at least 1; plus the
    two pinned values and the two bounded-rate sweeps.
    """
    findings: list[Finding] = []

    if min(R2_RATES.values()) != OBS_FLOORS[1]:
        findings.append(Finding("obs1", "R2 minimum is not 1/6"))

    r5_amounts = {amt for _fams, amt in r5_table().values()}
    r3_min = min(r3_rate(k) for k in (1, 2, 3))
    if min(r5_amounts) != OBS_FLOORS[2]:
        findings.append(Finding("obs2", "R5 minimum is not 1/2"))
    if min(min(r5_amounts), r3_min) < OBS_FLOORS[2]:
        findings.append(Finding("obs2", "5-vertex floor below 1/2"))
    if min(R4_RATE, r3_min) < OBS_FLOORS[3]:
        findings.append(Finding("obs3", "6+ floor below 1"))

    # (4): two 3-corners beside a 5+ sender
    threes = [(3, 0), (3, 1)]
    for u in FIVES + ((6, None),):
        for adjacent in (True, False):
            for x, y, z in itertools.product(threes, threes, ALL_CLASSES):
                if z[0] == 3:
                    continue  # a (3,3,3)-path a, w, b
                corners = (u, x, y, z) if adjacent else (u, x, z, y)
                amt = heavy_rate(corners, face_type_of_classes(corners))[0]
                if amt < OBS_FLOORS[4]:
                    findings.append(Finding(
                        "obs4", f"{tuple(klass_str(c) for c in corners)} "
                                f"transfers {twelfths_str(amt)} < 1"))

    for w, want in _PINS.items():
        got = classify_family(((5, 0), (4, 0), w, (4, 0)))[1]
        if got != want:
            pat = ("5", "4_0", klass_str(w), "4_0")
            findings.append(Finding("pin", f"{pat} -> {twelfths_str(got)}, "
                                           f"want {twelfths_str(want)}"))

    findings.extend(_audit_obs_half())
    findings.extend(_audit_obs_three_quarters())
    return findings


# the side corners both bounded-rate sweeps allow: 4_0 or 5+
_SIDES = ((4, 0),) + FIVES + ((6, None),)


def _audit_obs_half() -> list[Finding]:
    """Faces whose side corners are 4_0 or 5+: the rate is 5/6 exactly on
    (5,4_0,4_2,4_0), 2/3 exactly on (5,4_0,4_1,4_0), else at most 1/2."""
    findings = []
    for lam, (_fams, amt) in r5_table().items():
        _u, a, w, b = lam
        if a not in _SIDES or w[0] < 4 or b not in _SIDES:
            continue
        if face_type_of_classes(lam) is not None:
            continue
        want = _PINS.get(w) if a == b == (4, 0) else None
        if (amt != want) if want else (amt > HALF):
            findings.append(Finding(
                "obs-almost-1/2",
                f"{tuple(klass_str(c) for c in lam)} -> {twelfths_str(amt)}"))
    return findings


def _audit_obs_three_quarters() -> list[Finding]:
    """A 5-vertex with a second 3-neighbor sends at most 3/4 into a face
    (3, w, b) with w of degree 4+ and b in {4_0, 5, 6+}, after the two
    catalog exclusions: no (5_{>=2},3,4,4)-face and no (5,3,4,5_{>=1})-face
    when the sender has the extra 3-neighbor."""
    findings = []
    for lam, (_fams, amt) in r5_table().items():
        u, a, w, b = lam
        if u[1] < 2 or a[0] != 3 or w[0] < 4 or b not in _SIDES:
            continue
        if w[0] == 4 and b[0] == 4:
            continue  # excluded: (5_{>=2},3,4,4)-cycle
        if w[0] == 4 and b[0] == 5 and b[1] >= 1:
            continue  # excluded: (5,3,4,5_{>=1}) + extra 3-nbr
        if face_type_of_classes(lam) is not None:
            continue
        if amt > THREE_QUARTERS:
            findings.append(Finding(
                "obs-almost-3/4",
                f"{tuple(klass_str(c) for c in lam)} -> {twelfths_str(amt)}"))
    return findings


def audit_inequality_6plus(d_max: int = 12) -> list[Finding]:
    """Re-derive the high-degree final-charge bound.

    For every stats tuple (d, r0..r3, alpha, beta) within the shipped
    constraints the step-computed worst-case bound must equal the closed
    form (3/2) d - 10 - r0/6 + (2/3) r2 + (1/3) r3, be nonnegative for
    d >= 7, and hit exactly 0 at d = 7, r0 = 3, rest zero.
    """
    findings = []
    seen_negative_d6 = False
    tight = None
    type1, type2, type3 = (r3_rate(k) for k in (1, 2, 3))
    for d in range(6, d_max + 1):
        for r0 in range(d // 2 + 1):
            for r1 in range(d - r0 + 1):
                for r2 in range(d - r0 - r1 + 1):
                    if r0 + r1 + r2 > d // 2:
                        continue
                    for r3 in range(d - r0 - r1 - r2 + 1):
                        s_free = d - (r1 + 2 * r2 + r3)
                        if s_free < 2 * r0:
                            continue
                        # worst (alpha, beta): alpha = s_free - 2 r0, beta = 2 r0
                        alpha, beta = s_free - 2 * r0, 2 * r0
                        step = (3 * d - 10) * 12 - (
                            type1 * (r0 + r1) + type2 * r2 + type3 * r3
                            + R4_RATE * (d - r0 - r1 - r2 - r3)
                            + R1_RATES[1] * alpha + R1_RATES[0] * beta)
                        closed = 18 * d - 120 - 2 * r0 + 8 * r2 + 4 * r3
                        if step != closed:
                            findings.append(Finding(
                                "ineq6plus",
                                f"d={d} r={r0, r1, r2, r3}: step {step} != "
                                f"closed {closed}"))
                        if d >= 7 and closed < 0:
                            findings.append(Finding(
                                "ineq6plus",
                                f"d={d} r={r0, r1, r2, r3}: bound "
                                f"{twelfths_str(closed)} < 0"))
                        if d == 6 and closed < 0:
                            seen_negative_d6 = True
                        if (d, r0, r1, r2, r3) == (7, 3, 0, 0, 0):
                            tight = closed
    if not seen_negative_d6:
        findings.append(Finding("ineq6plus", "no negative d=6 case found"))
    if tight != 0:
        findings.append(Finding("ineq6plus",
                                f"d=7, r0=3 tight case is {tight}, not 0"))
    return findings


def audit_case_ledger() -> list[Finding]:
    from .ledger_data import CASE_LEDGER, check_entry
    findings = []
    for entry in CASE_LEDGER:
        findings.extend(check_entry(entry))
    return findings


# -- the four-face sweep -----------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    corners: tuple[Klass, Klass, Klass, Klass]

    def __str__(self) -> str:
        return "(" + ",".join(klass_str(c) for c in self.corners) + ")"


def _consistent(corners) -> bool:
    for i, (d, t) in enumerate(corners):
        if d >= 6:
            continue
        n3 = sum(1 for j in (i - 1, i + 1) if corners[j % 4][0] == 3)
        if t < n3:
            return False
        if t > d - 2:
            return False  # star claim built into the class space
    return True


def _cyclic_views(corners) -> tuple:
    """The eight images of the 4-cycle: each rotation, then its reflection."""
    a, b, c, d = corners
    return ((a, b, c, d), (a, d, c, b), (b, c, d, a), (b, a, d, c),
            (c, d, a, b), (c, b, a, d), (d, a, b, c), (d, c, b, a))


EXCLUSIONS = (
    ("no (4-,4-,4-,3)-cycle [cycle-4443]",
     lambda cs: all(c[0] <= 4 for c in cs) and any(c[0] == 3 for c in cs)),
    ("no (3,3,3)-path [star]",
     lambda cs: any(v[0] == 3 and a[0] == 3 and b[0] == 3
                    for a, v, b, _ in _cyclic_views(cs))),
    ("(4,4,4,4)-face is all 4_0 [cycle-444-41-52]",
     lambda cs: all(c[0] == 4 for c in cs) and any(c[1] >= 1 for c in cs)),
    ("no (4,4,4,5_>=2)-face [cycle-444-41-52]",
     lambda cs: sorted(c[0] for c in cs) == [4, 4, 4, 5]
     and next(c for c in cs if c[0] == 5)[1] >= 2),
    ("4_2 and 5_3 neighbors are 3_0 [k2-no-3nbr]",
     lambda cs: any(a in ((4, 2), (5, 3)) and b == (3, 1)
                    or b in ((4, 2), (5, 3)) and a == (3, 1)
                    for a, b in zip(cs, cs[1:] + cs[:1]))),
    ("no 4_>=1 adjacent to 4_2 or 5_3 [41-not-adj-42-53]",
     lambda cs: any((a[0] == 4 and a[1] >= 1 and b in ((4, 2), (5, 3)))
                    or (b[0] == 4 and b[1] >= 1 and a in ((4, 2), (5, 3)))
                    for a, b in zip(cs, cs[1:] + cs[:1]))),
    ("no 5_>=2 adjacent to 4_2 [52-not-adj-42]",
     lambda cs: any((a[0] == 5 and a[1] >= 2 and b == (4, 2))
                    or (b[0] == 5 and b[1] >= 2 and a == (4, 2))
                    for a, b in zip(cs, cs[1:] + cs[:1]))),
    ("no (4_>=1,4_>=1,4_>=1)-path [path-41-41-41]",
     lambda cs: any(all(x[0] == 4 and x[1] >= 1 for x in (a, v, b))
                    for a, v, b, _ in _cyclic_views(cs))),
    ("no (4_2,4,4_>=1)- or (4_2,5_>=1,4_>=1)-path [path-42-x-41]",
     lambda cs: any(a == (4, 2)
                    and ((v[0] == 4 and b[0] == 4 and b[1] >= 1)
                         or (v[0] == 5 and v[1] >= 1
                             and b[0] == 4 and b[1] >= 1))
                    for a, v, b, _ in _cyclic_views(cs))),
    ("no (3_1,5_>=2,4_>=1)-path [path-31-52-41]",
     lambda cs: any(a == (3, 1) and v[0] == 5 and v[1] >= 2
                    and b[0] == 4 and b[1] >= 1
                    for a, v, b, _ in _cyclic_views(cs))),
    ("no (5_>=2,3,3,4)-face [cycle-k33-4]",
     lambda cs: any(u[0] == 5 and u[1] >= 2 and a[0] == 3 and v[0] == 3
                    and b[0] == 4
                    for u, a, v, b in _cyclic_views(cs))),
    ("no (5_>=2,3,4,4)-face [cycle-52-344]",
     lambda cs: any(u[0] == 5 and u[1] >= 2 and a[0] == 3 and v[0] == 4
                    and b[0] == 4
                    for u, a, v, b in _cyclic_views(cs))),
    ("no (5_3,3,4,3)-face [cycle-5343-6434]",
     lambda cs: any(u == (5, 3) and a[0] == 3 and v[0] == 4 and b[0] == 3
                    for u, a, v, b, in _cyclic_views(cs))),
    ("no (5_>=1,4,3,4)-face [cycle-51-434]",
     lambda cs: any(u[0] == 5 and u[1] >= 1 and a[0] == 4 and v[0] == 3
                    and b[0] == 4
                    for u, a, v, b in _cyclic_views(cs))),
    ("no (4_2,3,4_2) face-path [path-3434-43 + cycle-4443]",
     lambda cs: any(a == (4, 2) and v[0] == 3 and b == (4, 2)
                    for a, v, b, _ in _cyclic_views(cs))),
    ("no (3_1,4,4_>=1) face-path off a 3-corner "
     "[path-334-43 + cycle-4443]",
     lambda cs: any(a == (3, 1) and v[0] == 4 and b[0] == 4 and b[1] >= 1
                    and w[0] != 3
                    for a, v, b, w in _cyclic_views(cs))),
)


def _min_corner_transfer(corners, i: int, ftype: int | None) -> int:
    """Worst-case inflow from corner i, minimized over free placement bits;
    ftype is face_type_of_classes(corners)."""
    u = corners[i]
    d, t = u
    if d == 3:
        return 0
    a, w, b = corners[(i + 1) % 4], corners[(i + 2) % 4], corners[(i + 3) % 4]
    if d == 5 and ftype is None:
        return r5_table()[u, a, w, b][1]
    if d >= 5:
        return heavy_rate((u, a, w, b), ftype)[0]
    # a 4-vertex: the R2 cases its class leaves open, and the least rate
    on = [c for c in (a, b) if c[0] == 3]  # its 3-neighbors on the face
    if t == 0:
        cases = ("1",)
    elif t == 1 and len(on) == 1:
        # the 3-neighbor's own 3-neighbor, if any, is on the face iff it is w
        cases = (("2on",) if on[0] == (3, 0) else
                 ("3both",) if w[0] == 3 else ("3other",))
    elif t == 1:
        cases = ("2off", "3other")          # the 3-neighbor is off the face
    else:
        # two on the face are consecutive around u; with fewer on it, either
        cases = (("4", "5none"), ("4", "5one"), ("5both",))[len(on)]
    return min(R2_RATES[c] for c in cases)


def _scenario_total(corners, exclusions) -> int | bool | None:
    """None if the corners are inconsistent, False if an exclusion drops
    them, else the worst-case inflow of the face."""
    if not _consistent(corners):
        return None
    for _name, pred in exclusions:
        if pred(corners):
            return False
    ftype = face_type_of_classes(corners)
    return sum(_min_corner_transfer(corners, i, ftype) for i in range(4))


def sweep_4face(exclusions=EXCLUSIONS) -> tuple[list[Finding], int, int]:
    """Enumerate 4-face corner scenarios, drop the ones excluded by the
    configuration catalog, and check that every survivor collects at least 2
    (so c*(f) >= 0).  Returns (findings, surviving, excluded).

    Consistency, the face type and the four-corner total are invariant
    under the eight symmetries of the face (four rotations, four
    reflections), and every exclusion must be too: each orbit of corner
    tuples is decided once, at its first tuple in product order, and every
    tuple of it is counted and reported under its own corners."""
    findings = []
    surviving = excluded = 0
    decided: dict[tuple, int | bool | None] = {}
    for corners in itertools.product(ALL_CLASSES, repeat=4):
        if corners not in decided:
            decided.update(dict.fromkeys(
                _cyclic_views(corners), _scenario_total(corners, exclusions)))
        total = decided[corners]
        if total is None:
            continue
        if total is False:
            excluded += 1
            continue
        surviving += 1
        if total < 2 * ONE:
            findings.append(Finding(
                "four-face",
                f"{Scenario(corners)} collects only {twelfths_str(total)}"))
    return findings, surviving, excluded
