"""Reduction schemes on (G, L, g) triples: concrete and worst-case symbolic runs.

A scheme is a sequence of steps: degenerate deletion, partial coloring,
single saves (color u avoiding L(v)), pair saves (color u1, u2 through a
common neighbor v via the three-sets lemma), and assumed set declarations.
Legality follows the two rules

    DegDel(u)  legal iff |L(u)| >= g(u) + sum of g over live neighbors,
    ParCol     legal iff |L'(v)| >= g'(v) for every live v,

checked exactly in concrete mode and against worst-case bounds in symbolic
mode.  Symbolic states track a lower bound lo(v) and an upper bound hi(v)
on |L(v)| in units of m; every legality inequality is homogeneous of degree
one in m, so unit-scale verdicts transfer to all m.

Pair saves (and assumed three-set splits) are branch points: the split
(s, t, r) with s + t + r = k is resolved at the three corners (k,0,0),
(0,k,0), (0,0,k).  Downstream inequalities are affine in the split, so
corner legality covers every split; run_scheme_all_splits verifies that
directly when wanted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .plane import PlaneGraph

CORNER_NAMES = ("S", "T", "R")


class SchemeError(ValueError):
    pass


# -- steps ----------------------------------------------------------------

@dataclass(frozen=True)
class Delete:
    u: int
    assume: str | None = None

    def __str__(self) -> str:
        return f"<{self.u}>"


@dataclass(frozen=True)
class Save:
    """ParCol(u | v, k): color u with k*m colors outside L(v)."""

    u: int
    v: int
    k: int = 1
    assume: str | None = None

    def __str__(self) -> str:
        return f"<{self.u}|{self.v},{self.k}m>"


@dataclass(frozen=True)
class PairSave:
    """ParCol({u1, u2} | v, k*): S u R at u1, T u R at u2, |S|+|T|+|R| = k*m."""

    u1: int
    u2: int
    v: int
    k: int = 1
    assume: str | None = None

    def __str__(self) -> str:
        return f"<{{{self.u1},{self.u2}}}|{self.v},{self.k}m*>"


@dataclass(frozen=True)
class Color:
    """Explicit ParCol: phi maps vertices to tuples of declared set names."""

    phi: tuple[tuple[int, tuple[str, ...]], ...]
    assume: str | None = None

    @staticmethod
    def of(phi: dict[int, tuple[str, ...] | list[str]],
           assume: str | None = None) -> "Color":
        return Color(tuple(sorted((v, tuple(names)) for v, names in phi.items())),
                     assume=assume)

    def __str__(self) -> str:
        parts = ", ".join(f"{v}:{'+'.join(names)}" for v, names in self.phi)
        return f"<color {parts}>"


@dataclass(frozen=True)
class AssumeSet:
    """Declare a named color set with stated size and attributes.

    subset_of: vertices x with the set inside L(x); avoids: vertices y with
    the set disjoint from L(y); avoid_sets / disjoint_from: other declared
    sets it avoids.  Existence is certified from current bounds when
    possible, otherwise recorded as an assumption under `tag`.
    """

    name: str
    size: int
    subset_of: tuple[int, ...]
    avoids: tuple[int, ...] = ()
    avoid_sets: tuple[str, ...] = ()
    disjoint_from: tuple[str, ...] = ()
    tag: str = ""

    def __str__(self) -> str:
        return f"<assume {self.name} size {self.size}m>"


@dataclass(frozen=True)
class AssumeThreeSets:
    """Declare a three-sets split (S, T, R) on the pools at a, b against c.

    S lives in L(a) minus the `minus` sets, T in L(b) likewise, R in
    L(a) & L(b) & L(c); sizes form a simplex s + t + r = k resolved at
    branch corners.  `z_cap` caps the c-pool size when the argument trims
    it; `s_avoids_c` states whether S and T avoid all of L(c) (true when
    the c-pool is the whole list L(c)).
    """

    s_name: str
    t_name: str
    r_name: str
    a: int
    b: int
    c: int
    k: int = 1
    minus: tuple[str, ...] = ()
    z_cap: int | None = None
    s_avoids_c: bool = True
    tag: str = ""

    def __str__(self) -> str:
        return f"<assume three-sets {self.s_name},{self.t_name},{self.r_name}>"


Step = Delete | Save | PairSave | Color | AssumeSet | AssumeThreeSets


def is_branch_point(step: Step) -> bool:
    return isinstance(step, (PairSave, AssumeThreeSets))


# -- state ----------------------------------------------------------------

@dataclass
class SetVar:
    name: str
    size: int
    containers: frozenset[int]
    avoids: frozenset[int]
    certified: bool
    tag: str = ""


@dataclass
class SymbolicState:
    """Worst-case bounds, in units of m, for a triple under reduction."""

    adj: dict[int, frozenset[int]]
    live: set[int]
    lo: dict[int, int]
    hi: dict[int, int]
    g: dict[int, int]
    setvars: dict[str, SetVar] = field(default_factory=dict)
    hits: set[tuple[str, int]] = field(default_factory=set)

    @staticmethod
    def from_profile(G: PlaneGraph, profile: dict[int, tuple[int, int]],
                     m: int = 1) -> "SymbolicState":
        adj = {v: G.neighbors(v) & set(profile) for v in profile}
        return SymbolicState(
            adj=adj,
            live=set(profile),
            lo={v: f * m for v, (f, _) in profile.items()},
            hi={v: f * m for v, (f, _) in profile.items()},
            g={v: gg * m for v, (_, gg) in profile.items()},
        )

    def copy(self) -> "SymbolicState":
        return SymbolicState(self.adj, set(self.live), dict(self.lo),
                             dict(self.hi), dict(self.g),
                             dict(self.setvars), set(self.hits))

    def live_neighbors(self, v: int) -> list[int]:
        return [w for w in sorted(self.adj[v]) if w in self.live]


@dataclass
class StepRecord:
    step: str
    check: str
    lhs: int | None
    rhs: int | None
    verdict: str  # "legal" | "illegal" | "assumed" | "certified" | "noted"
    detail: str = ""

    def as_dict(self) -> dict:
        return {"step": self.step, "inequality": self.check, "lhs": self.lhs,
                "rhs": self.rhs, "verdict": self.verdict, "detail": self.detail}


@dataclass
class BranchTrace:
    corners: tuple[str, ...]
    records: list[StepRecord] = field(default_factory=list)
    all_deleted: bool = False
    halted: bool = False

    @property
    def legal(self) -> bool:
        return not any(r.verdict == "illegal" for r in self.records)

    @property
    def assumptions(self) -> list[StepRecord]:
        return [r for r in self.records if r.verdict == "assumed"]


@dataclass
class SchemeTrace:
    branches: list[BranchTrace]
    flags: list[str] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        return all(b.legal for b in self.branches)

    @property
    def exhaustive(self) -> bool:
        return all(b.all_deleted for b in self.branches)

    @property
    def assumptions(self) -> list[StepRecord]:
        return [r for b in self.branches for r in b.assumptions]

    def first_illegal(self) -> tuple[tuple[str, ...], StepRecord] | None:
        for b in self.branches:
            for r in b.records:
                if r.verdict == "illegal":
                    return b.corners, r
        return None

    def as_dict(self) -> dict:
        return {
            "legal": self.legal,
            "exhaustive": self.exhaustive,
            "flags": self.flags,
            "branches": [
                {"corners": list(b.corners), "all_deleted": b.all_deleted,
                 "steps": [r.as_dict() for r in b.records]}
                for b in self.branches
            ],
        }


# -- symbolic execution ----------------------------------------------------

def _fresh(st: SymbolicState, base: str) -> str:
    name = base
    i = 1
    while name in st.setvars:
        i += 1
        name = f"{base}#{i}"
    return name


def _apply_color(st: SymbolicState, phi: dict[int, list[str]],
                 rec: list[StepRecord], step_str: str,
                 assume: str | None) -> bool:
    """One ParCol with set-var expressions; returns False on illegal halt."""
    problems = []
    for a in sorted(phi):
        names = list(dict.fromkeys(phi[a]))
        if a not in st.live:
            raise SchemeError(f"{step_str}: vertex {a} not alive")
        total = sum(st.setvars[n].size for n in names)
        if total > st.g[a]:
            problems.append(f"|phi({a})|={total} > g({a})={st.g[a]}")
        st.g[a] -= total
        st.lo[a] -= total
        st.hi[a] -= total
        for n in names:
            st.hits.add((n, a))
    for a in sorted(phi):
        for n in dict.fromkeys(phi[a]):
            var = st.setvars[n]
            for w in st.live_neighbors(a):
                if (n, w) in st.hits:
                    continue
                st.hits.add((n, w))
                if w in var.avoids:
                    continue
                st.lo[w] -= var.size
                if w in var.containers:
                    st.hi[w] -= var.size
    bad = [x for x in sorted(st.live) if st.lo[x] < st.g[x]]
    if problems or bad:
        detail = "; ".join(problems + [f"lo({x})={st.lo[x]} < g({x})={st.g[x]}"
                                       for x in bad])
        if assume:
            rec.append(StepRecord(step_str, "ParCol legality", None, None,
                                  "assumed", f"{detail} (paper-justified: {assume})"))
            return True
        rec.append(StepRecord(step_str, "ParCol legality", None, None,
                              "illegal", f"IllegalParCol: {detail}"))
        return False
    rec.append(StepRecord(step_str, "ParCol legality: lo'(x) >= g'(x) for all live x",
                          None, None, "legal"))
    return True


def _check_declared(step: Color, names, declared) -> None:
    for n in names:
        if n not in declared:
            raise SchemeError(f"{step}: set {n} is not declared")


def _exec_step(st: SymbolicState, step: Step, split: tuple[int, int, int] | None,
               m: int, rec: list[StepRecord], flags: list[str]) -> bool:
    """Execute one step in place.  `split` resolves a branch point (s, t, r),
    already scaled by m.  Returns False when execution must halt."""

    if isinstance(step, Delete):
        u = step.u
        if u not in st.live:
            rec.append(StepRecord(str(step), "vertex alive", None, None,
                                  "illegal", f"{u} already deleted"))
            return False
        need = st.g[u] + sum(st.g[w] for w in st.live_neighbors(u))
        have = st.lo[u]
        check = f"lo({u}) >= g({u}) + sum g over live neighbors"
        if have >= need:
            rec.append(StepRecord(str(step), check, have, need, "legal"))
        elif step.assume:
            rec.append(StepRecord(str(step), check, have, need, "assumed",
                                  f"paper-justified: {step.assume}"))
        else:
            rec.append(StepRecord(str(step), check, have, need, "illegal",
                                  f"IllegalDelete({u}, needed={need}, have={have})"))
            return False
        st.live.discard(u)
        return True

    if isinstance(step, Save):
        u, v, k = step.u, step.v, step.k * m
        if u not in st.live or v not in st.live:
            rec.append(StepRecord(str(step), "vertices alive", None, None,
                                  "illegal", "dead vertex in save"))
            return False
        if st.g[u] < k:
            rec.append(StepRecord(str(step), f"g({u}) >= {k}", st.g[u], k,
                                  "illegal", "demand exceeded"))
            return False
        have = st.lo[u] - st.hi[v]
        check = f"lo({u}) - hi({v}) >= k"
        if have >= k:
            rec.append(StepRecord(str(step), check, have, k, "legal"))
        elif step.assume:
            rec.append(StepRecord(str(step), check, have, k, "assumed",
                                  f"CannotAvoid({u},{v},{k}) (paper-justified: {step.assume})"))
        else:
            rec.append(StepRecord(str(step), check, have, k, "illegal",
                                  f"CannotAvoid({u},{v},{k})"))
            return False
        name = _fresh(st, f"save{u}v{v}")
        st.setvars[name] = SetVar(name, k, frozenset({u}), frozenset({v}), True)
        return _apply_color(st, {u: [name]}, rec, str(step), step.assume)

    if isinstance(step, PairSave):
        u1, u2, v = step.u1, step.u2, step.v
        k = step.k * m
        if any(x not in st.live for x in (u1, u2, v)):
            rec.append(StepRecord(str(step), "vertices alive", None, None,
                                  "illegal", "dead vertex in pair save"))
            return False
        if u2 in st.adj[u1]:
            flags.append(f"pair save {step}: u1 and u2 are adjacent")
        have = st.lo[u1] + st.lo[u2]
        need = st.hi[v] + k
        check = f"lo({u1}) + lo({u2}) >= hi({v}) + k"
        if have >= need:
            rec.append(StepRecord(str(step), check, have, need, "legal"))
        elif step.assume:
            rec.append(StepRecord(str(step), check, have, need, "assumed",
                                  f"PairBoundFails (paper-justified: {step.assume})"))
        else:
            rec.append(StepRecord(str(step), check, have, need, "illegal",
                                  f"PairBoundFails(needed={need}, have={have})"))
            return False
        s, t, r = split  # type: ignore[misc]
        rec.append(StepRecord(f"{step} split (s,t,r)={split}", "split", None,
                              None, "noted"))
        phi: dict[int, list[str]] = {}
        if s:
            n1 = _fresh(st, f"S{u1}")
            st.setvars[n1] = SetVar(n1, s, frozenset({u1}), frozenset({v}), True)
            phi.setdefault(u1, []).append(n1)
        if t:
            n2 = _fresh(st, f"T{u2}")
            st.setvars[n2] = SetVar(n2, t, frozenset({u2}), frozenset({v}), True)
            phi.setdefault(u2, []).append(n2)
        if r:
            if u2 in st.adj[u1]:
                rec.append(StepRecord(str(step), "R part on adjacent u1, u2",
                                      None, None, "illegal",
                                      "shared colors on an edge"))
                return False
            n3 = _fresh(st, f"R{u1}_{u2}")
            st.setvars[n3] = SetVar(n3, r, frozenset({u1, u2, v}), frozenset(), True)
            phi.setdefault(u1, []).append(n3)
            phi.setdefault(u2, []).append(n3)
        return _apply_color(st, phi, rec, f"{step}{split}", step.assume)

    if isinstance(step, AssumeSet):
        size = step.size * m
        for c in step.subset_of:
            packed = size + sum(st.setvars[s].size for s in step.disjoint_from
                                if s in st.setvars
                                and c in st.setvars[s].containers)
            if packed > st.hi[c]:
                rec.append(StepRecord(str(step), f"packing inside L({c})",
                                      packed, st.hi[c], "illegal",
                                      "InfeasibleDeclaration"))
                return False
        bounds = []
        for c in step.subset_of:
            b = st.lo[c]
            for y in step.avoids:
                b -= st.hi[y]
            for s in step.avoid_sets + step.disjoint_from:
                if s in st.setvars:
                    b -= st.setvars[s].size
            bounds.append(b)
        bound = min(bounds) if bounds else 0
        ok = size <= bound
        st.setvars[step.name] = SetVar(step.name, size, frozenset(step.subset_of),
                                       frozenset(step.avoids), ok, step.tag)
        if ok:
            rec.append(StepRecord(str(step), "existence: size <= pool bound",
                                  size, bound, "certified"))
        else:
            rec.append(StepRecord(str(step), "existence: size <= pool bound",
                                  size, bound, "assumed",
                                  f"paper-justified: {step.tag or 'unstated'}"))
        return True

    if isinstance(step, AssumeThreeSets):
        k = step.k * m
        x_bound = st.lo[step.a]
        y_bound = st.lo[step.b]
        for sname in step.minus:
            var = st.setvars.get(sname)
            if var is None:
                continue
            if step.a not in var.avoids:
                x_bound -= var.size
            if step.b not in var.avoids:
                y_bound -= var.size
        z_bound = st.hi[step.c]
        if step.z_cap is not None:
            z_bound = min(z_bound, step.z_cap * m)
        ok = x_bound + y_bound >= z_bound + k
        s, t, r = split  # type: ignore[misc]
        c_avoid = frozenset({step.c}) if step.s_avoids_c else frozenset()
        st.setvars[step.s_name] = SetVar(step.s_name, s, frozenset({step.a}),
                                         c_avoid, ok, step.tag)
        st.setvars[step.t_name] = SetVar(step.t_name, t, frozenset({step.b}),
                                         c_avoid, ok, step.tag)
        st.setvars[step.r_name] = SetVar(step.r_name, r,
                                         frozenset({step.a, step.b, step.c}),
                                         frozenset(), ok, step.tag)
        desc = "three-sets bound: |X| + |Y| >= |Z| + k"
        if ok:
            rec.append(StepRecord(f"{step} split {split}", desc,
                                  x_bound + y_bound, z_bound + k, "certified"))
        else:
            rec.append(StepRecord(f"{step} split {split}", desc,
                                  x_bound + y_bound, z_bound + k, "assumed",
                                  f"paper-justified: {step.tag or 'unstated'}"))
        return True

    if isinstance(step, Color):
        for _, names in step.phi:
            _check_declared(step, names, st.setvars)
        phi = {v: [n for n in names if st.setvars[n].size > 0]
               for v, names in step.phi}
        return _apply_color(st, phi, rec, str(step), step.assume)

    raise SchemeError(f"unknown step {step!r}")


def _run_combo(state: SymbolicState, steps: list[Step],
               splits: tuple[tuple[int, int, int], ...], label: tuple[str, ...],
               m: int, flags: list[str]) -> BranchTrace:
    st = state.copy()
    trace = BranchTrace(corners=label)
    split_iter = iter(splits)
    for step in steps:
        split = next(split_iter) if is_branch_point(step) else None
        if not _exec_step(st, step, split, m, trace.records, flags):
            trace.halted = True
            break
    trace.all_deleted = not st.live
    return trace


# split spaces: the (split, label) pairs that resolve one branch point of size k

def _corners(k: int) -> list[tuple[tuple[int, int, int], str]]:
    return list(zip([(k, 0, 0), (0, k, 0), (0, 0, k)], CORNER_NAMES))


def _all_splits(k: int) -> list[tuple[tuple[int, int, int], str]]:
    splits = [(s, t, k - s - t) for s in range(k + 1) for t in range(k + 1 - s)]
    return [(sp, str(sp)) for sp in splits]


def _run_space(state: SymbolicState, steps: list[Step], m: int,
               space: Callable[[int], list]) -> SchemeTrace:
    """One branch per choice of a (split, label) pair at each branch point."""
    flags: list[str] = []
    spaces = [space(s.k * m) for s in steps if is_branch_point(s)]
    branches = []
    for combo in itertools.product(*spaces):
        splits = tuple(sp for sp, _ in combo)
        label = tuple(lab for _, lab in combo)
        branches.append(_run_combo(state, steps, splits, label, m, flags))
    return SchemeTrace(branches=branches, flags=sorted(set(flags)))


def run_scheme(state: SymbolicState, steps: list[Step], m: int = 1) -> SchemeTrace:
    """Execute a scheme symbolically over every branch-corner combination."""
    return _run_space(state, steps, m, _corners)


def run_scheme_all_splits(state: SymbolicState, steps: list[Step],
                          m: int = 1) -> SchemeTrace:
    """Like run_scheme but over every integer split (s, t, r), s+t+r = k."""
    return _run_space(state, steps, m, _all_splits)


# -- the three-sets lemma, concretely ---------------------------------------

class BoundViolated(ValueError):
    pass


def three_sets_pick(A: frozenset[int], B: frozenset[int], C: frozenset[int],
                    m: int) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Pick S in A\\C, T in B\\C, R in A&B&C with |S|+|T|+|R| = m.

    Deterministic greedy: fill S, then T, then R, each in ascending color
    order.  Feasible whenever |A\\C| + |B\\C| + |A&B&C| >= m; in particular
    whenever |A| + |B| >= |C| + m.
    """
    a_pool = sorted(A - C)
    b_pool = sorted(B - C)
    r_pool = sorted(A & B & C)
    s = a_pool[:m]
    t = b_pool[:max(0, m - len(s))]
    r = r_pool[:max(0, m - len(s) - len(t))]
    if len(s) + len(t) + len(r) != m:
        raise BoundViolated(
            f"no split: |A\\C|={len(a_pool)}, |B\\C|={len(b_pool)}, "
            f"|A&B&C|={len(r_pool)} cannot reach {m}")
    return frozenset(s), frozenset(t), frozenset(r)


def three_sets_feasible(A: frozenset[int], B: frozenset[int], C: frozenset[int],
                        m: int) -> bool:
    return len(A - C) + len(B - C) + len(A & B & C) >= m


# -- concrete execution ------------------------------------------------------

@dataclass
class ConcreteState:
    adj: dict[int, frozenset[int]]
    live: set[int]
    lists: dict[int, frozenset[int]]
    g: dict[int, int]
    sets: dict[str, frozenset[int]] = field(default_factory=dict)

    @staticmethod
    def from_assignment(G: PlaneGraph, lists: dict[int, frozenset[int]],
                        demand: dict[int, int]) -> "ConcreteState":
        verts = set(lists)
        adj = {v: G.neighbors(v) & verts for v in verts}
        return ConcreteState(adj=adj, live=set(verts), lists=dict(lists),
                             g=dict(demand))

    def copy(self) -> "ConcreteState":
        return ConcreteState(self.adj, set(self.live), dict(self.lists),
                             dict(self.g), dict(self.sets))

    def live_neighbors(self, v: int) -> list[int]:
        return [w for w in sorted(self.adj[v]) if w in self.live]


def _concrete_parcol(st: ConcreteState, phi: dict[int, frozenset[int]]) -> bool:
    for a, cols in phi.items():
        if not cols <= st.lists[a] or len(cols) > st.g[a]:
            return False
    for a, cols in phi.items():
        for b, cols2 in phi.items():
            if b in st.adj[a] and cols & cols2:
                return False
    new_lists = dict(st.lists)
    new_g = dict(st.g)
    for a, cols in phi.items():
        new_g[a] -= len(cols)
        new_lists[a] = new_lists[a] - cols
        for w in st.live_neighbors(a):
            if w != a:
                new_lists[w] = new_lists[w] - cols
    if any(len(new_lists[x]) < new_g[x] for x in st.live):
        return False
    st.lists, st.g = new_lists, new_g
    return True


def run_scheme_concrete(state: ConcreteState, steps: list[Step],
                        node_cap: int = 200_000) -> ConcreteState | None:
    """Execute a scheme on a concrete assignment, backtracking over all set
    choices.  Returns the final state on success, None if no choices work.
    Steps with assume tags still must pass (concrete runs carry no
    assumptions); use this to probe symbolic verdicts against reality.
    """
    nodes = 0

    def attempt(st: ConcreteState, i: int) -> ConcreteState | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise SchemeError(f"concrete search exceeded {node_cap} nodes")
        if i == len(steps):
            return st
        step = steps[i]
        if isinstance(step, Delete):
            u = step.u
            if u not in st.live:
                return None
            need = st.g[u] + sum(st.g[w] for w in st.live_neighbors(u))
            if len(st.lists[u]) < need:
                return None
            new = st.copy()
            new.live.discard(u)
            return attempt(new, i + 1)
        if isinstance(step, Save):
            u, v, k = step.u, step.v, step.k
            if u not in st.live or v not in st.live or st.g[u] < k:
                return None
            pool = sorted(st.lists[u] - st.lists[v])
            for combo in itertools.combinations(pool, k):
                new = st.copy()
                if _concrete_parcol(new, {u: frozenset(combo)}):
                    result = attempt(new, i + 1)
                    if result is not None:
                        return result
            return None
        if isinstance(step, PairSave):
            u1, u2, v, k = step.u1, step.u2, step.v, step.k
            if any(x not in st.live for x in (u1, u2, v)):
                return None
            A, B, C = st.lists[u1], st.lists[u2], st.lists[v]
            for s in range(k + 1):
                for t in range(k + 1 - s):
                    r = k - s - t
                    for S in itertools.combinations(sorted(A - C), s):
                        for T in itertools.combinations(sorted(B - C), t):
                            for R in itertools.combinations(sorted(A & B & C), r):
                                new = st.copy()
                                phi = {u1: frozenset(S) | frozenset(R),
                                       u2: frozenset(T) | frozenset(R)}
                                if len(phi[u1]) != s + r or len(phi[u2]) != t + r:
                                    continue
                                if _concrete_parcol(new, phi):
                                    result = attempt(new, i + 1)
                                    if result is not None:
                                        return result
            return None
        if isinstance(step, AssumeSet):
            pool = None
            for c in step.subset_of:
                pool = st.lists[c] if pool is None else pool & st.lists[c]
            pool = pool or frozenset()
            for y in step.avoids:
                pool -= st.lists[y]
            for nm in step.avoid_sets + step.disjoint_from:
                pool -= st.sets.get(nm, frozenset())
            for combo in itertools.combinations(sorted(pool), step.size):
                new = st.copy()
                new.sets[step.name] = frozenset(combo)
                result = attempt(new, i + 1)
                if result is not None:
                    return result
            return None
        if isinstance(step, AssumeThreeSets):
            A = st.lists[step.a]
            B = st.lists[step.b]
            Z = st.lists[step.c]
            for nm in step.minus:
                A = A - st.sets.get(nm, frozenset())
                B = B - st.sets.get(nm, frozenset())
            k = step.k
            for s in range(k + 1):
                for t in range(k + 1 - s):
                    r = k - s - t
                    for S in itertools.combinations(sorted(A - Z), s):
                        for T in itertools.combinations(sorted(B - Z), t):
                            for R in itertools.combinations(sorted(A & B & Z), r):
                                new = st.copy()
                                new.sets[step.s_name] = frozenset(S)
                                new.sets[step.t_name] = frozenset(T)
                                new.sets[step.r_name] = frozenset(R)
                                result = attempt(new, i + 1)
                                if result is not None:
                                    return result
            return None
        if isinstance(step, Color):
            phi = {}
            for v, names in step.phi:
                if v not in st.live:
                    raise SchemeError(f"{step}: vertex {v} not alive")
                _check_declared(step, names, st.sets)
                cols = frozenset()
                for nm in names:
                    cols |= st.sets[nm]
                phi[v] = cols
            new = st.copy()
            if _concrete_parcol(new, phi):
                return attempt(new, i + 1)
            return None
        raise SchemeError(f"unknown step {step!r}")

    return attempt(state.copy(), 0)


# -- serialization -----------------------------------------------------------

def step_to_json(step: Step) -> dict:
    if isinstance(step, Delete):
        d = {"op": "delete", "u": step.u}
    elif isinstance(step, Save):
        d = {"op": "save", "u": step.u, "v": step.v, "k": step.k}
    elif isinstance(step, PairSave):
        d = {"op": "pair_save", "u1": step.u1, "u2": step.u2, "v": step.v,
             "k": step.k}
    elif isinstance(step, Color):
        d = {"op": "color", "phi": {str(v): list(names) for v, names in step.phi}}
    elif isinstance(step, AssumeSet):
        d = {"op": "assume", "name": step.name, "size": step.size,
             "subset_of": list(step.subset_of), "avoids": list(step.avoids),
             "avoid_sets": list(step.avoid_sets),
             "disjoint_from": list(step.disjoint_from), "tag": step.tag}
    elif isinstance(step, AssumeThreeSets):
        d = {"op": "assume_three_sets", "names": [step.s_name, step.t_name,
                                                  step.r_name],
             "a": step.a, "b": step.b, "c": step.c, "k": step.k,
             "minus": list(step.minus), "z_cap": step.z_cap,
             "s_avoids_c": step.s_avoids_c, "tag": step.tag}
    else:
        raise SchemeError(f"unknown step {step!r}")
    if getattr(step, "assume", None):
        d["assume"] = step.assume
    return d


def step_from_json(d: dict) -> Step:
    op = d["op"]
    assume = d.get("assume")
    if op == "delete":
        return Delete(d["u"], assume=assume)
    if op == "save":
        return Save(d["u"], d["v"], d.get("k", 1), assume=assume)
    if op == "pair_save":
        return PairSave(d["u1"], d["u2"], d["v"], d.get("k", 1), assume=assume)
    if op == "color":
        return Color.of({int(v): tuple(names) for v, names in d["phi"].items()},
                        assume=assume)
    if op == "assume":
        return AssumeSet(d["name"], d["size"], tuple(d["subset_of"]),
                         tuple(d.get("avoids", ())),
                         tuple(d.get("avoid_sets", ())),
                         tuple(d.get("disjoint_from", ())), d.get("tag", ""))
    if op == "assume_three_sets":
        s, t, r = d["names"]
        return AssumeThreeSets(s, t, r, d["a"], d["b"], d["c"], d.get("k", 1),
                               tuple(d.get("minus", ())), d.get("z_cap"),
                               d.get("s_avoids_c", True), d.get("tag", ""))
    raise SchemeError(f"unknown op {op!r}")
