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
directly when wanted.  Both walk the tree of branches depth first, so each
step runs once per distinct split prefix, not once per branch.

Each step kind is one class that holds everything about it: its JSON op
name, whether it is a branch point, its symbolic effect, its concrete
choices and its JSON codec.  The drivers know nothing about kinds.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, ClassVar, Iterable, Iterator

from .plane import PlaneGraph

class SchemeError(ValueError):
    pass


class NodeCapReached(SchemeError):
    """The concrete search stopped at its node cap, before a verdict."""


# -- state ----------------------------------------------------------------

def _sorted_adj(G: PlaneGraph, verts: set[int]) -> dict[int, tuple[int, ...]]:
    """Each vertex's neighbors within verts, in ascending order."""
    return {v: tuple(sorted(G.neighbors(v) & verts)) for v in verts}


class _Live:
    """`adj` maps each vertex to its sorted neighbors in the configuration."""

    def live_neighbors(self, v: int) -> list[int]:
        return [w for w in self.adj[v] if w in self.live]

    def deletion_need(self, u: int) -> int:
        """g(u) plus g over the live neighbors of u: what DegDel(u) needs."""
        return self.g[u] + sum(self.g[w] for w in self.live_neighbors(u))

    def require(self, step: Step, vertices: Iterable[int]) -> None:
        for x in vertices:
            if x not in self.adj:
                raise SchemeError(f"{step}: vertex {x} is not in the configuration")


@dataclass(frozen=True)
class SetVar:
    size: int
    containers: frozenset[int]
    avoids: frozenset[int]


@dataclass
class SymbolicState(_Live):
    """Worst-case bounds, in units of m, for a triple under reduction."""

    adj: dict[int, tuple[int, ...]]
    live: set[int]
    lo: dict[int, int]
    hi: dict[int, int]
    g: dict[int, int]
    setvars: dict[str, SetVar] = field(default_factory=dict)
    hits: set[tuple[str, int]] = field(default_factory=set)

    @staticmethod
    def from_profile(G: PlaneGraph, profile: dict[int, tuple[int, int]],
                     m: int = 1) -> "SymbolicState":
        lo = {v: f * m for v, (f, _) in profile.items()}
        return SymbolicState(_sorted_adj(G, set(profile)), set(profile), lo,
                             dict(lo), {v: g * m for v, (_, g) in profile.items()})

    def copy(self) -> "SymbolicState":
        return SymbolicState(self.adj, set(self.live), dict(self.lo),
                             dict(self.hi), dict(self.g),
                             dict(self.setvars), set(self.hits))


@dataclass
class ConcreteState(_Live):
    adj: dict[int, tuple[int, ...]]
    live: set[int]
    lists: dict[int, frozenset[int]]
    g: dict[int, int]
    sets: dict[str, frozenset[int]] = field(default_factory=dict)

    @staticmethod
    def from_assignment(G: PlaneGraph, lists: dict[int, frozenset[int]],
                        demand: dict[int, int]) -> "ConcreteState":
        verts = set(lists)
        return ConcreteState(adj=_sorted_adj(G, verts), live=verts,
                             lists=dict(lists), g=dict(demand))

    def copy(self) -> "ConcreteState":
        return ConcreteState(self.adj, set(self.live), dict(self.lists),
                             dict(self.g), dict(self.sets))


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


# -- shared pieces of the step kinds ---------------------------------------

def _record(rec: list[StepRecord], step, check: str, verdict: str,
            detail: str = "", lhs=None, rhs=None) -> bool:
    """Append one record; False (halt) when it is illegal."""
    rec.append(StepRecord(str(step), check, lhs, rhs, verdict, detail))
    return verdict != "illegal"


def _bound(rec: list[StepRecord], step, check: str, have: int, need: int,
           illegal: str, cause: str = "") -> bool:
    """Record have >= need: legal, else assumed under step.assume (`cause`
    names the failure), else illegal with detail `illegal`."""
    if have >= need:
        return _record(rec, step, check, "legal", "", have, need)
    if step.assume:
        just = f"paper-justified: {step.assume}"
        return _record(rec, step, check, "assumed",
                       f"{cause} ({just})" if cause else just, have, need)
    return _record(rec, step, check, "illegal", illegal, have, need)


def _certify(rec: list[StepRecord], step, check: str, lhs: int, rhs: int,
             ok: bool, tag: str) -> bool:
    """Record a declaration as certified when ok, else as assumed under tag."""
    if ok:
        return _record(rec, step, check, "certified", "", lhs, rhs)
    return _record(rec, step, check, "assumed",
                   f"paper-justified: {tag or 'unstated'}", lhs, rhs)


def _fresh(st: SymbolicState, base: str) -> str:
    name, i = base, 1
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
            return _record(rec, step_str, "ParCol legality", "assumed",
                           f"{detail} (paper-justified: {assume})")
        return _record(rec, step_str, "ParCol legality", "illegal",
                       f"IllegalParCol: {detail}")
    return _record(rec, step_str,
                   "ParCol legality: lo'(x) >= g'(x) for all live x", "legal")


def _colored(st: ConcreteState, phi: dict[int, frozenset[int]]
             ) -> ConcreteState | None:
    """st after the partial coloring phi, or None if phi is not a legal ParCol."""
    if any(not cols <= st.lists[a] or len(cols) > st.g[a]
           or any(b in st.adj[a] and cols & cols2 for b, cols2 in phi.items())
           for a, cols in phi.items()):
        return None
    new = st.copy()
    for a, cols in phi.items():
        new.g[a] -= len(cols)
        new.lists[a] = new.lists[a] - cols
        for w in st.live_neighbors(a):
            if w != a:
                new.lists[w] = new.lists[w] - cols
    if any(len(new.lists[x]) < new.g[x] for x in st.live):
        return None
    return new


def _three_sets(A: frozenset[int], B: frozenset[int], C: frozenset[int],
                k: int) -> Iterator[tuple[frozenset[int], ...]]:
    """Every (S, T, R) with S in A\\C, T in B\\C, R in A&B&C and
    |S| + |T| + |R| = k, by (|S|, |T|) and then lexicographically."""
    a_pool, b_pool, r_pool = sorted(A - C), sorted(B - C), sorted(A & B & C)
    for s in range(k + 1):
        for t in range(k + 1 - s):
            for S in itertools.combinations(a_pool, s):
                for T in itertools.combinations(b_pool, t):
                    for R in itertools.combinations(r_pool, k - s - t):
                        yield frozenset(S), frozenset(T), frozenset(R)


# -- the JSON step format --------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_names(x) -> bool:
    return isinstance(x, list) and all(isinstance(n, str) for n in x)


def _is_vertex(x) -> bool:
    """An int id, or a name or id written as a JSON key."""
    return _is_int(x) or isinstance(x, str)


@dataclass(frozen=True)
class _Json:
    """A step field's JSON type: what a valid value is, its decoder (`vid`
    maps one vertex) and encoder, and whether an empty value is left out."""

    what: str
    ok: Callable[[object], bool] = lambda x: True
    decode: Callable = lambda x, vid: x
    encode: Callable = lambda x: list(x) if isinstance(x, tuple) else x
    omit_empty: bool = False


_VERTEX = _Json("a vertex", _is_vertex, lambda x, vid: vid(x))
_VERTICES = _Json("a list of vertices", lambda x: isinstance(x, list)
                  and all(map(_is_vertex, x)), lambda xs, vid: tuple(map(vid, xs)))
_UNITS = _Json("an int >= 1", lambda x: _is_int(x) and x >= 1)
_SIZE = _Json("an int >= 0", lambda x: _is_int(x) and x >= 0)
_CAP = _Json("an int >= 0 or null", lambda x: x is None or _SIZE.ok(x))
_FLAG = _Json("a bool", lambda x: isinstance(x, bool))
_TEXT = _Json("a string", lambda x: isinstance(x, str))
_NOTE = _Json("a string", _TEXT.ok, omit_empty=True)
_TEXTS = _Json("a list of strings", _is_names, lambda xs, vid: tuple(xs))
_PHI = _Json("a map from vertices to lists of set names",
             lambda x: isinstance(x, dict) and all(map(_is_names, x.values())),
             lambda x, vid: Color.of({vid(v): n for v, n in x.items()}).phi,
             lambda phi: {str(v): list(names) for v, names in phi})


def _field(jtype: _Json, default=MISSING):
    return field(default=default, metadata={"json": jtype})


# -- steps ----------------------------------------------------------------

class _Kind:
    """What each step kind defines: `op`, its JSON name; `branch_point`, if
    a split (s, t, r) with s + t + r = k*m resolves it; `effect`, its
    worst-case effect on a SymbolicState, in place (False halts the
    branch); `choices`, the ConcreteStates it leads to, in search order (a
    tuple where there is at most one, so the concrete walk does not keep
    the input state alive); and its fields, whose JSON types make the codec.
    """

    op: ClassVar[str]
    branch_point: ClassVar[bool] = False

    def to_json(self) -> dict:
        d = {"op": self.op}
        for f in fields(self):
            jtype, x = f.metadata["json"], getattr(self, f.name)
            if x or not jtype.omit_empty:
                d[f.name] = jtype.encode(x)
        return d

    @classmethod
    def from_json(cls, d: dict, vertex: Callable[[object], int]) -> Step:
        def vid(x):
            try:
                return vertex(x)
            except (KeyError, TypeError, ValueError):
                raise SchemeError(f"{cls.op} step: {x!r} is not a vertex") from None

        values = {}
        for f in fields(cls):
            jtype, x = f.metadata["json"], d.get(f.name, MISSING)
            if x is MISSING:
                if f.default is MISSING:
                    raise SchemeError(f"{cls.op} step: missing {f.name!r}")
            elif not jtype.ok(x):
                raise SchemeError(f"{cls.op} step: {f.name!r} must be "
                                  f"{jtype.what}, not {x!r}")
            else:
                values[f.name] = jtype.decode(x, vid)
        return cls(**values)


@dataclass(frozen=True)
class Delete(_Kind):
    op = "delete"
    u: int = _field(_VERTEX)
    assume: str | None = _field(_NOTE, None)

    def __str__(self) -> str:
        return f"<{self.u}>"

    def effect(self, st: SymbolicState, split, m: int, rec, flags) -> bool:
        u = self.u
        if u not in st.live:
            return _record(rec, self, "vertex alive", "illegal",
                           f"{u} already deleted")
        need, have = st.deletion_need(u), st.lo[u]
        if not _bound(rec, self, f"lo({u}) >= g({u}) + sum g over live neighbors",
                      have, need, f"IllegalDelete({u}, needed={need}, have={have})"):
            return False
        st.live.discard(u)
        return True

    def choices(self, st: ConcreteState) -> tuple[ConcreteState, ...]:
        if self.u not in st.live or len(st.lists[self.u]) < st.deletion_need(self.u):
            return ()
        new = st.copy()
        new.live.discard(self.u)
        return (new,)


@dataclass(frozen=True)
class Save(_Kind):
    """ParCol(u | v, k): color u with k*m colors outside L(v)."""

    op = "save"
    u: int = _field(_VERTEX)
    v: int = _field(_VERTEX)
    k: int = _field(_UNITS, 1)
    assume: str | None = _field(_NOTE, None)

    def __str__(self) -> str:
        return f"<{self.u}|{self.v},{self.k}m>"

    def effect(self, st: SymbolicState, split, m: int, rec, flags) -> bool:
        u, v, k = self.u, self.v, self.k * m
        if u not in st.live or v not in st.live:
            return _record(rec, self, "vertices alive", "illegal",
                           "dead vertex in save")
        if st.g[u] < k:
            return _record(rec, self, f"g({u}) >= {k}", "illegal",
                           "demand exceeded", st.g[u], k)
        cause = f"CannotAvoid({u},{v},{k})"
        if not _bound(rec, self, f"lo({u}) - hi({v}) >= k",
                      st.lo[u] - st.hi[v], k, cause, cause):
            return False
        name = _fresh(st, f"save{u}v{v}")
        st.setvars[name] = SetVar(k, frozenset({u}), frozenset({v}))
        return _apply_color(st, {u: [name]}, rec, str(self), self.assume)

    def choices(self, st: ConcreteState) -> Iterator[ConcreteState]:
        u, v = self.u, self.v
        if u not in st.live or v not in st.live or st.g[u] < self.k:
            return
        for combo in itertools.combinations(sorted(st.lists[u] - st.lists[v]),
                                            self.k):
            if (new := _colored(st, {u: frozenset(combo)})) is not None:
                yield new


@dataclass(frozen=True)
class PairSave(_Kind):
    """ParCol({u1, u2} | v, k*): S u R at u1, T u R at u2, |S|+|T|+|R| = k*m."""

    op = "pair_save"
    branch_point = True
    u1: int = _field(_VERTEX)
    u2: int = _field(_VERTEX)
    v: int = _field(_VERTEX)
    k: int = _field(_UNITS, 1)
    assume: str | None = _field(_NOTE, None)

    def __post_init__(self):
        if self.u1 == self.u2:
            raise SchemeError(f"{self}: u1 and u2 must differ")

    def __str__(self) -> str:
        return f"<{{{self.u1},{self.u2}}}|{self.v},{self.k}m*>"

    def effect(self, st: SymbolicState, split, m: int, rec, flags) -> bool:
        u1, u2, v, k = self.u1, self.u2, self.v, self.k * m
        if any(x not in st.live for x in (u1, u2, v)):
            return _record(rec, self, "vertices alive", "illegal",
                           "dead vertex in pair save")
        if u2 in st.adj[u1]:
            flags.append(f"pair save {self}: u1 and u2 are adjacent")
        have, need = st.lo[u1] + st.lo[u2], st.hi[v] + k
        if not _bound(rec, self, f"lo({u1}) + lo({u2}) >= hi({v}) + k", have,
                      need, f"PairBoundFails(needed={need}, have={have})",
                      "PairBoundFails"):
            return False
        s, t, r = split
        _record(rec, f"{self} split (s,t,r)={split}", "split", "noted")
        if r and u2 in st.adj[u1]:
            return _record(rec, self, "R part on adjacent u1, u2", "illegal",
                           "shared colors on an edge")
        phi: dict[int, list[str]] = {}
        for size, base, owners, inside, avoids in (
                (s, f"S{u1}", (u1,), {u1}, {v}), (t, f"T{u2}", (u2,), {u2}, {v}),
                (r, f"R{u1}_{u2}", (u1, u2), {u1, u2, v}, ())):
            if size:
                name = _fresh(st, base)
                st.setvars[name] = SetVar(size, frozenset(inside), frozenset(avoids))
                for x in owners:
                    phi.setdefault(x, []).append(name)
        return _apply_color(st, phi, rec, f"{self}{split}", self.assume)

    def choices(self, st: ConcreteState) -> Iterator[ConcreteState]:
        u1, u2, v = self.u1, self.u2, self.v
        if any(x not in st.live for x in (u1, u2, v)):
            return
        for S, T, R in _three_sets(st.lists[u1], st.lists[u2], st.lists[v],
                                   self.k):
            if (new := _colored(st, {u1: S | R, u2: T | R})) is not None:
                yield new


@dataclass(frozen=True)
class Color(_Kind):
    """Explicit ParCol: phi maps vertices to tuples of declared set names."""

    op = "color"
    phi: tuple[tuple[int, tuple[str, ...]], ...] = _field(_PHI)
    assume: str | None = _field(_NOTE, None)

    @staticmethod
    def of(phi: dict[int, tuple[str, ...] | list[str]],
           assume: str | None = None) -> "Color":
        return Color(tuple(sorted((v, tuple(names)) for v, names in phi.items())),
                     assume=assume)

    def __str__(self) -> str:
        parts = ", ".join(f"{v}:{'+'.join(names)}" for v, names in self.phi)
        return f"<color {parts}>"

    def _declared(self, names, declared) -> None:
        if undeclared := [n for n in names if n not in declared]:
            raise SchemeError(f"{self}: set {undeclared[0]} is not declared")

    def effect(self, st: SymbolicState, split, m: int, rec, flags) -> bool:
        for _, names in self.phi:
            self._declared(names, st.setvars)
        phi = {v: [n for n in names if st.setvars[n].size > 0]
               for v, names in self.phi}
        return _apply_color(st, phi, rec, str(self), self.assume)

    def choices(self, st: ConcreteState) -> tuple[ConcreteState, ...]:
        phi = {}
        for v, names in self.phi:
            if v not in st.live:
                raise SchemeError(f"{self}: vertex {v} not alive")
            self._declared(names, st.sets)
            phi[v] = frozenset().union(*(st.sets[nm] for nm in names))
        new = _colored(st, phi)
        return () if new is None else (new,)


@dataclass(frozen=True)
class AssumeSet(_Kind):
    """Declare a named color set with stated size and attributes.

    subset_of: vertices x with the set inside L(x); avoids: vertices y with
    the set disjoint from L(y); avoid_sets / disjoint_from: other declared
    sets it avoids.  Existence is certified from current bounds when
    possible, otherwise recorded as an assumption under `tag`.
    """

    op = "assume"
    name: str = _field(_TEXT)
    size: int = _field(_SIZE)
    subset_of: tuple[int, ...] = _field(_VERTICES)
    avoids: tuple[int, ...] = _field(_VERTICES, ())
    avoid_sets: tuple[str, ...] = _field(_TEXTS, ())
    disjoint_from: tuple[str, ...] = _field(_TEXTS, ())
    tag: str = _field(_TEXT, "")

    def __str__(self) -> str:
        return f"<assume {self.name} size {self.size}m>"

    def effect(self, st: SymbolicState, split, m: int, rec, flags) -> bool:
        st.require(self, self.subset_of + self.avoids)
        size = self.size * m
        bounds = []
        for c in self.subset_of:
            packed = size + sum(st.setvars[s].size for s in self.disjoint_from
                                if s in st.setvars
                                and c in st.setvars[s].containers)
            if packed > st.hi[c]:
                return _record(rec, self, f"packing inside L({c})", "illegal",
                               "InfeasibleDeclaration", packed, st.hi[c])
            bounds.append(st.lo[c] - sum(st.hi[y] for y in self.avoids)
                          - sum(st.setvars[s].size for s in self.avoid_sets
                                + self.disjoint_from if s in st.setvars))
        bound = min(bounds) if bounds else 0
        st.setvars[self.name] = SetVar(size, frozenset(self.subset_of),
                                       frozenset(self.avoids))
        return _certify(rec, self, "existence: size <= pool bound", size,
                        bound, size <= bound, self.tag)

    def choices(self, st: ConcreteState) -> Iterator[ConcreteState]:
        st.require(self, self.subset_of + self.avoids)
        lists = [st.lists[c] for c in self.subset_of]
        pool = frozenset(lists[0]).intersection(*lists[1:]) if lists else frozenset()
        pool = pool.difference(*(st.lists[y] for y in self.avoids),
                               *(st.sets.get(nm, frozenset())
                                 for nm in self.avoid_sets + self.disjoint_from))
        for combo in itertools.combinations(sorted(pool), self.size):
            new = st.copy()
            new.sets[self.name] = frozenset(combo)
            yield new


@dataclass(frozen=True)
class AssumeThreeSets(_Kind):
    """Declare a three-sets split (S, T, R) on the pools at a, b against c.

    S lives in L(a) minus the `minus` sets, T in L(b) likewise, R in
    L(a) & L(b) & L(c); sizes form a simplex s + t + r = k resolved at
    branch corners.  `z_cap` caps the c-pool size when the argument trims
    it; `s_avoids_c` states whether S and T avoid all of L(c) (true when
    the c-pool is the whole list L(c)).  The JSON form lists the three
    names as `names`.
    """

    op = "assume_three_sets"
    branch_point = True
    _NAMES = ("s_name", "t_name", "r_name")
    s_name: str = _field(_TEXT)
    t_name: str = _field(_TEXT)
    r_name: str = _field(_TEXT)
    a: int = _field(_VERTEX)
    b: int = _field(_VERTEX)
    c: int = _field(_VERTEX)
    k: int = _field(_UNITS, 1)
    minus: tuple[str, ...] = _field(_TEXTS, ())
    z_cap: int | None = _field(_CAP, None)
    s_avoids_c: bool = _field(_FLAG, True)
    tag: str = _field(_TEXT, "")

    def __str__(self) -> str:
        return f"<assume three-sets {self.s_name},{self.t_name},{self.r_name}>"

    def effect(self, st: SymbolicState, split, m: int, rec, flags) -> bool:
        st.require(self, (self.a, self.b, self.c))
        x_bound, y_bound, z_bound = st.lo[self.a], st.lo[self.b], st.hi[self.c]
        for var in (st.setvars[n] for n in self.minus if n in st.setvars):
            if self.a not in var.avoids:
                x_bound -= var.size
            if self.b not in var.avoids:
                y_bound -= var.size
        if self.z_cap is not None:
            z_bound = min(z_bound, self.z_cap * m)
        have, need = x_bound + y_bound, z_bound + self.k * m
        s, t, r = split
        c_avoid = frozenset({self.c}) if self.s_avoids_c else frozenset()
        for name, size, inside, avoids in (
                (self.s_name, s, {self.a}, c_avoid),
                (self.t_name, t, {self.b}, c_avoid),
                (self.r_name, r, {self.a, self.b, self.c}, ())):
            st.setvars[name] = SetVar(size, frozenset(inside), frozenset(avoids))
        return _certify(rec, f"{self} split {split}",
                        "three-sets bound: |X| + |Y| >= |Z| + k",
                        have, need, have >= need, self.tag)

    def choices(self, st: ConcreteState) -> Iterator[ConcreteState]:
        st.require(self, (self.a, self.b, self.c))
        A, B = st.lists[self.a], st.lists[self.b]
        for nm in self.minus:
            A = A - st.sets.get(nm, frozenset())
            B = B - st.sets.get(nm, frozenset())
        for S, T, R in _three_sets(A, B, st.lists[self.c], self.k):
            new = st.copy()
            new.sets.update({self.s_name: S, self.t_name: T, self.r_name: R})
            yield new

    def to_json(self) -> dict:
        d = super().to_json()
        return {"op": self.op, "names": [d.pop(n) for n in self._NAMES], **d}

    @classmethod
    def from_json(cls, d: dict, vertex: Callable[[object], int]) -> Step:
        names = d.get("names")
        if not (_is_names(names) and len(names) == 3):
            raise SchemeError(f"{cls.op} step: 'names' must be three set "
                              f"names, not {names!r}")
        return super().from_json({**d, **dict(zip(cls._NAMES, names))}, vertex)


Step = Delete | Save | PairSave | Color | AssumeSet | AssumeThreeSets

STEP_KINDS = {kind.op: kind for kind in (Delete, Save, PairSave, Color,
                                         AssumeSet, AssumeThreeSets)}


# -- symbolic execution ----------------------------------------------------

# split spaces: the (split, label) pairs that resolve one branch point of size k

def _corners(k: int) -> list[tuple[tuple[int, int, int], str]]:
    return list(zip([(k, 0, 0), (0, k, 0), (0, 0, k)], "STR"))


def _all_splits(k: int) -> list[tuple[tuple[int, int, int], str]]:
    splits = [(s, t, k - s - t) for s in range(k + 1) for t in range(k + 1 - s)]
    return [(sp, str(sp)) for sp in splits]


def _run_space(state: SymbolicState, steps: list[Step], m: int,
               space: Callable[[int], list]) -> SchemeTrace:
    """One branch per choice of a (split, label) pair at each branch point,
    in itertools.product order.

    A depth-first walk on an explicit stack.  An entry holds the index of
    the next step, the state and records before it, the labels chosen so
    far and, at a branch point, the split that resolves it.  Each step runs
    once per distinct split prefix; each split starts from its own copy of
    the state and of the records.  A prefix that halts stands for every
    resolution of the branch points after it.
    """
    flags: list[str] = []
    spaces = [space(s.k * m) for s in steps if s.branch_point]
    branches = []
    stack = [(0, state, [], (), None)]
    while stack:
        i, st, records, label, split = stack.pop()
        st, records = st.copy(), list(records)
        while i < len(steps):
            step = steps[i]
            if step.branch_point and split is None:
                stack.extend((i, st, records, (*label, lab), sp)
                             for sp, lab in reversed(spaces[len(label)]))
                break
            i += 1
            if not step.effect(st, split, m, records, flags):
                branches.extend(
                    BranchTrace((*label, *(lab for _, lab in rest)),
                                list(records), not st.live)
                    for rest in itertools.product(*spaces[len(label):]))
                break
            split = None
        else:
            branches.append(BranchTrace(label, records, not st.live))
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
    a_pool, b_pool, r_pool = sorted(A - C), sorted(B - C), sorted(A & B & C)
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

def run_scheme_concrete(state: ConcreteState, steps: list[Step],
                        node_cap: int = 200_000) -> ConcreteState | None:
    """Execute a scheme on a concrete assignment, backtracking over all set
    choices.  Returns the final state on success, None if no choices work.
    Steps with assume tags still must pass (concrete runs carry no
    assumptions); use this to probe symbolic verdicts against reality.

    A depth-first walk on an explicit stack, where stack[i] yields the
    states reached by steps[:i].  Each state attempted is one node; past
    `node_cap` nodes the walk raises NodeCapReached.
    """
    nodes = 0
    stack: list[Iterator[ConcreteState]] = [iter((state.copy(),))]
    while stack:
        st = next(stack[-1], None)
        if st is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > node_cap:
            raise NodeCapReached(f"concrete search exceeded {node_cap} nodes")
        if len(stack) > len(steps):
            return st
        stack.append(iter(steps[len(stack) - 1].choices(st)))
    return None


# -- serialization -----------------------------------------------------------

def step_to_json(step: Step) -> dict:
    return step.to_json()


def step_from_json(d: dict, vertex: Callable[[object], int] = int) -> Step:
    """Decode one step of the JSON step format, validating every field.

    `vertex` maps a vertex field to a vertex id: `int` for config files;
    `claims` passes its map from the paper's vertex names.
    """
    op = d.get("op") if isinstance(d, dict) else None
    if not isinstance(op, str) or op not in STEP_KINDS:
        raise SchemeError(f"unknown step {d!r}")
    return STEP_KINDS[op].from_json(d, vertex)
