"""Build and verify the reducible-configuration catalog.

Every claim variant is realized as a host graph (the configuration plus
pendant stubs producing the stated external degrees), profiled, and its
reduction scheme replayed symbolically at unit scale over all branch
corners.  A claim passes when every variant's scheme is legal and deletes
all of H, with assumptions (if any) itemized.

The catalog is `data/claims.json`, read once per process.  Its steps name
vertices as the paper does; `build_claim` decodes them with
`reduction.step_from_json`, mapping names to host ids.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

from .nice import is_nice, profile
from .plane import PlaneGraph
from .reduction import (SchemeTrace, Step, SymbolicState, run_scheme,
                        step_from_json)


class UnknownClaim(KeyError):
    pass


# -- the catalog ----------------------------------------------------------------


@functools.cache
def golden_catalog() -> dict:
    """claims.json, keyed by claim id in catalog order.  Shared: do not mutate."""
    with resources.files("chooselab.data").joinpath("claims.json").open() as fh:
        return json.load(fh)


def list_claims() -> list[dict]:
    """Catalog index: ids with anchors, statements, variants, dependencies."""
    return [
        {"id": cid, "anchor": c["anchor"], "statement": c["statement"],
         "variants": list(c["variants"]),
         "depends_on": list(c["depends_on"]),
         "direct": c.get("direct", False),
         "minimality": c.get("minimality", False),
         "notes": c.get("notes", "")}
        for cid, c in golden_catalog().items()
    ]


def claim_ids() -> list[str]:
    return list(golden_catalog())


def _entry(claim_id: str) -> dict:
    try:
        return golden_catalog()[claim_id]
    except KeyError:
        raise UnknownClaim(claim_id) from None


# -- building ---------------------------------------------------------------

@dataclass
class BuiltVariant:
    claim_id: str
    name: str
    graph: PlaneGraph
    h: frozenset[int]
    labels: dict[str, int]
    golden_profile: dict[str, list[int]] | None
    state_override: dict | None
    scheme: list[Step]
    literal: list[Step] | None
    nice_expected: bool


def build_claim(claim_id: str, variant: str | int = 0) -> BuiltVariant:
    """Host fixture + profile + executable scheme for one claim variant.

    External degrees are realized with pendant stubs; stubs never enter H.
    """
    variants = _entry(claim_id)["variants"]
    name = list(variants)[variant] if isinstance(variant, int) else variant
    if name not in variants:
        raise UnknownClaim(f"{claim_id}/{variant}")
    var = variants[name]
    labels = {lab: i for i, lab in enumerate(var["degrees"])}
    edges = [(labels[a], labels[b]) for a, b in var["h_edges"]]
    next_id = len(labels)
    for lab, deg in var["degrees"].items():
        dh = sum(1 for a, b in var["h_edges"] if lab in (a, b))
        if dh > deg:
            raise ValueError(f"{claim_id}/{name}: d_H({lab}) > d_G")
        for _ in range(deg - dh):
            edges.append((labels[lab], next_id))
            next_id += 1
    G = PlaneGraph(edges=edges) if edges else PlaneGraph(
        edges=[], vertices=list(labels.values()))
    return BuiltVariant(
        claim_id=claim_id,
        name=name,
        graph=G,
        h=frozenset(labels.values()),
        labels=labels,
        golden_profile=var.get("profile"),
        state_override=var.get("state"),
        scheme=[step_from_json(d, labels.__getitem__) for d in var["scheme"]],
        literal=[step_from_json(d, labels.__getitem__) for d in var["literal"]]
        if "literal" in var else None,
        nice_expected=var.get("nice", True),
    )


def _fg(bv: BuiltVariant, pairs: dict[int, tuple[int, int]] | None = None
        ) -> dict[int, tuple[int, int]]:
    """(f, g) in units of m per vertex: the variant's state, else its profile
    (`pairs`, when the caller has already computed it)."""
    if bv.state_override is None:
        return pairs if pairs is not None else profile(bv.graph, set(bv.h)).pairs()
    dem = bv.state_override["demand"]
    return {bv.labels[lab]: (size, dem if isinstance(dem, int) else dem[lab])
            for lab, size in bv.state_override["lists"].items()}


def initial_state(bv: BuiltVariant, m: int = 1) -> SymbolicState:
    return SymbolicState.from_profile(bv.graph, _fg(bv), m)


# -- verification -------------------------------------------------------------


@dataclass
class VariantReport:
    claim_id: str
    name: str
    triangle_free: bool
    nice: bool
    nice_reason: str
    nice_as_expected: bool
    profile_ok: bool | None
    profile_diffs: list[str]
    trace: SchemeTrace
    literal_trace: SchemeTrace | None

    @property
    def assumptions(self) -> list[str]:
        return [f"{r.step}: {r.detail}" for r in self.trace.assumptions]

    @property
    def legal(self) -> bool:
        return self.trace.legal

    @property
    def exhaustive(self) -> bool:
        return self.trace.exhaustive

    @property
    def passed(self) -> bool:
        return (self.triangle_free and self.nice_as_expected
                and self.profile_ok is not False
                and self.trace.legal and self.trace.exhaustive)

    def as_dict(self) -> dict:
        d = {
            "variant": self.name,
            "triangle_free": self.triangle_free,
            "nice": self.nice, "nice_reason": self.nice_reason,
            "profile_ok": self.profile_ok,
            "legal": self.legal, "exhaustive": self.exhaustive,
            "passed": self.passed,
            "assumptions": self.assumptions,
        }
        if self.profile_diffs:
            d["profile_diffs"] = self.profile_diffs
        if not self.trace.legal:
            corners, rec = self.trace.first_illegal()
            d["first_illegal"] = {"corners": list(corners), **rec.as_dict()}
        if self.literal_trace is not None:
            d["literal_legal"] = self.literal_trace.legal
            if not self.literal_trace.legal:
                corners, rec = self.literal_trace.first_illegal()
                d["literal_first_illegal"] = {"corners": list(corners),
                                              **rec.as_dict()}
        return d


@dataclass
class ClaimReport:
    claim_id: str
    anchor: str
    variants: list[VariantReport]
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.variants)

    @property
    def assumptions(self) -> list[str]:
        return [a for v in self.variants for a in v.assumptions]

    def as_dict(self) -> dict:
        return {"claim": self.claim_id, "anchor": self.anchor,
                "passed": self.passed, "notes": self.notes,
                "variants": [v.as_dict() for v in self.variants]}


def verify_variant(bv: BuiltVariant, m: int = 1) -> VariantReport:
    tri = bv.graph.is_triangle_free()
    nice, reason = is_nice(bv.graph, set(bv.h))
    profile_ok: bool | None = None
    diffs: list[str] = []
    got = None
    if bv.golden_profile is not None:
        got = profile(bv.graph, set(bv.h)).pairs()
        profile_ok = True
        for lab, want in bv.golden_profile.items():
            have = got.get(bv.labels[lab])
            if have != tuple(want):
                profile_ok = False
                diffs.append(f"{lab}: profile {have}, printed {tuple(want)}")
    state = SymbolicState.from_profile(bv.graph, _fg(bv, got), m)
    trace = run_scheme(state, bv.scheme, m)
    literal_trace = run_scheme(state, bv.literal, m) if bv.literal else None
    return VariantReport(
        claim_id=bv.claim_id, name=bv.name, triangle_free=tri,
        nice=nice, nice_reason=reason,
        nice_as_expected=(nice == bv.nice_expected),
        profile_ok=profile_ok, profile_diffs=diffs,
        trace=trace, literal_trace=literal_trace,
    )


def verify_claim(claim_id: str, m: int = 1) -> ClaimReport:
    entry = _entry(claim_id)
    reports = [verify_variant(build_claim(claim_id, name), m)
               for name in entry["variants"]]
    return ClaimReport(claim_id=claim_id, anchor=entry["anchor"],
                       variants=reports, notes=entry.get("notes", ""))


@dataclass
class CatalogSummary:
    reports: list[ClaimReport]
    skipped: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def failed_ids(self) -> list[str]:
        return [r.claim_id for r in self.reports if not r.passed]

    def as_dict(self) -> dict:
        return {"passed": self.passed, "failed": self.failed_ids,
                "skipped": self.skipped,
                "claims": [r.as_dict() for r in self.reports]}

    def text(self) -> str:
        lines = []
        for r in self.reports:
            mark = "PASS" if r.passed else "FAIL"
            n_assume = len(r.assumptions)
            extra = f" ({n_assume} assumption-backed steps)" if n_assume else ""
            lines.append(f"[{mark}] {r.claim_id} ({r.anchor}){extra}")
            for v in r.variants:
                if not v.passed:
                    where = v.trace.first_illegal()
                    detail = where[1].detail if where else "profile/fixture"
                    lines.append(f"    variant {v.name}: {detail}")
                if v.literal_trace is not None and not v.literal_trace.legal:
                    corners, rec = v.literal_trace.first_illegal()
                    lines.append(f"    literal scheme fails at {rec.step}: "
                                 f"{rec.detail}")
        for s in self.skipped:
            lines.append(f"[SKIP] {s}")
        return "\n".join(lines)


def verify_all(m: int = 1, exclude: tuple[str, ...] = ()) -> CatalogSummary:
    reports = []
    skipped = []
    for cid in golden_catalog():
        if cid in exclude:
            skipped.append(cid)
            continue
        reports.append(verify_claim(cid, m))
    return CatalogSummary(reports=reports, skipped=skipped)
