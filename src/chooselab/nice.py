"""Frontier split, niceness test, and the (f_H, g_H) profile of a subgraph.

For H inside a host G, the core U_H holds the vertices losing at most one
neighbor (d_H >= d_G - 1); F_H is induced on the rest.  H is nice when the
core is nonempty, every vertex loses at most two neighbors, and each F_H
component is a path on at most four vertices or a K_{1,3}.  The profile
assigns worst-case list sizes f and demands g (in units of m) per component
shape, and for core vertices

    f(u) = 15 - 4 (d_G(u) - d_H(u)) - sum over F_H-neighbors v of (4 - g(v)).
"""

from __future__ import annotations

from typing import NamedTuple

from .plane import PlaneGraph


class NotNice(ValueError):
    pass


class ComponentInfo(NamedTuple):
    kind: str  # "P1" | "P2" | "P3" | "P4" | "K13" | "Other"
    vertices: tuple[int, ...]


class NiceProfile(NamedTuple):
    core: frozenset[int]               # U_H
    frontier: frozenset[int]           # V(F_H)
    components: list[ComponentInfo]
    f: dict[int, int]
    g: dict[int, int]
    trivially_unchoosable: list[int]   # vertices with f < g, if any

    def pairs(self) -> dict[int, tuple[int, int]]:
        return {v: (self.f[v], self.g[v]) for v in self.f}


def frontier_split(G: PlaneGraph, H: set[int]) -> tuple[set[int], set[int]]:
    """U_H = {u in H : d_H(u) >= d_G(u) - 1}; frontier = H minus U_H."""
    H = set(H)
    core = set()
    for u in H:
        d_h = len(G.neighbors(u) & H)
        if d_h >= G.degree(u) - 1:
            core.add(u)
    return core, H - core


def _components(G: PlaneGraph, verts: set[int]) -> list[list[int]]:
    comps = []
    left = set(verts)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in G.neighbors(u):
                if w in left and w not in comp:
                    comp.add(w)
                    stack.append(w)
        left -= comp
        comps.append(sorted(comp))
    return comps


def _classify_component(G: PlaneGraph, comp: list[int], inside: set[int]) -> ComponentInfo:
    degs = sorted(len(G.neighbors(v) & inside) for v in comp)
    n = len(comp)
    if n == 1:
        return ComponentInfo("P1", tuple(comp))
    if n == 2 and degs == [1, 1]:
        return ComponentInfo("P2", tuple(comp))
    if n == 3 and degs == [1, 1, 2]:
        return ComponentInfo("P3", tuple(comp))
    if n == 4 and degs == [1, 1, 2, 2]:
        return ComponentInfo("P4", tuple(comp))
    if n == 4 and degs == [1, 1, 1, 3]:
        return ComponentInfo("K13", tuple(comp))
    return ComponentInfo("Other", tuple(comp))


def is_nice(G: PlaneGraph, H: set[int]) -> tuple[bool, str]:
    """Niceness with a reason: nonempty core, deficiency <= 2 everywhere,
    frontier components among P1..P4, K13."""
    H = set(H)
    core, frontier = frontier_split(G, H)
    for u in sorted(H):
        if len(G.neighbors(u) & H) < G.degree(u) - 2:
            return False, f"DeficiencyTooLarge({u})"
    if not core:
        return False, "EmptyCore"
    for comp in _components(G, frontier):
        info = _classify_component(G, comp, frontier)
        if info.kind == "Other":
            return False, f"BadComponent{tuple(comp)}"
    return True, "nice"


_COMPONENT_PROFILE = {
    # kind -> (f, g by frontier-degree)
    "P1": {0: (7, 4)},
    "P2": {1: (6, 3)},
    "P3": {1: (5, 3), 2: (5, 2)},
    "P4": {1: (5, 3), 2: (4, 2)},
    "K13": {1: (4, 3), 3: (4, 1)},
}


def profile(G: PlaneGraph, H: set[int]) -> NiceProfile:
    """The (f_H, g_H) profile, in units of m.

    Requires deficiency <= 2 and recognizable frontier components; an empty
    core is tolerated (reported via is_nice) so degenerate single-vertex
    configurations can still be profiled.
    """
    H = set(H)
    core, frontier = frontier_split(G, H)
    for u in sorted(H):
        if len(G.neighbors(u) & H) < G.degree(u) - 2:
            raise NotNice(f"DeficiencyTooLarge({u})")
    comps = []
    f: dict[int, int] = {}
    g: dict[int, int] = {}
    for comp in _components(G, frontier):
        info = _classify_component(G, comp, frontier)
        if info.kind == "Other":
            raise NotNice(f"BadComponent{tuple(comp)}")
        comps.append(info)
        table = _COMPONENT_PROFILE[info.kind]
        for v in comp:
            d_f = len(G.neighbors(v) & frontier)
            f[v], g[v] = table[d_f]
    for u in sorted(core):
        g[u] = 4
        deficiency = G.degree(u) - len(G.neighbors(u) & H)
        f[u] = 15 - 4 * deficiency - sum(4 - g[v]
                                         for v in G.neighbors(u) & frontier)
    bad = sorted(v for v in H if f[v] < g[v])
    return NiceProfile(core=frozenset(core), frontier=frozenset(frontier),
                       components=comps, f=f, g=g, trivially_unchoosable=bad)
