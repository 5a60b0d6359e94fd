"""Plane graphs as rotation systems, plus face tracing and degree classes.

A graph is given either by a rotation system (cyclic neighbor order per vertex,
encoding a combinatorial embedding) or, in "abstract" mode, by an edge list.
Faces are traced with the dart-successor convention: from the dart (u, v) the
walk continues with (v, w) where w is the successor of u in the rotation at v.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, NamedTuple, Sequence


class GraphError(ValueError):
    pass


class AsymmetricRotation(GraphError):
    pass


class DuplicateNeighbor(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class NotEmbedded(GraphError):
    pass


class UnknownVertex(GraphError):
    pass


class NotNeighbor(GraphError):
    pass


class NotIncident(GraphError):
    pass


class NotQuadFace(GraphError):
    pass


class Face(NamedTuple):
    """A face walk: cyclic sequence of darts (u, v)."""

    boundary: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(u for u, _ in self.boundary)


class DegreeClass(NamedTuple):
    """Degree d together with the number t of degree-3 neighbors."""

    d: int
    t: int

    def __str__(self) -> str:
        return f"{self.d}_{self.t}"


def _vertex_id(x) -> int:
    if type(x) is not int:  # a bool, float or string is not a vertex id
        raise GraphError(f"vertex id {x!r} is not an integer")
    return x


class PlaneGraph:
    """Immutable simple graph with an optional combinatorial embedding."""

    def __init__(self, rotation: dict[int, Sequence[int]] | None = None,
                 edges: Iterable[tuple[int, int]] | None = None,
                 vertices: Iterable[int] | None = None):
        if (rotation is None) == (edges is None):
            raise GraphError("give exactly one of rotation= or edges=")
        self.abstract = rotation is None
        if rotation is not None:
            # one C-level type pass; only a failing graph walks the ids
            ok = {int}.issuperset(map(type, itertools.chain(*rotation.values())))
            self._rotation = {
                int(v): tuple(nbrs if ok else map(_vertex_id, nbrs))
                for v, nbrs in rotation.items()}
            if vertices is not None:
                for v in vertices:
                    self._rotation.setdefault(_vertex_id(v), ())
            self._check_rotation()
        else:
            adj: dict[int, list[int]] = {}
            if vertices is not None:
                for v in vertices:
                    adj.setdefault(_vertex_id(v), [])
            for u, v in edges:  # type: ignore[union-attr]
                u, v = _vertex_id(u), _vertex_id(v)
                if u == v:
                    raise SelfLoop(f"self-loop at {u}")
                if v in adj.get(u, ()):
                    raise DuplicateNeighbor(f"duplicate edge {u}-{v}")
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            self._rotation = {v: tuple(sorted(ws)) for v, ws in adj.items()}
        self._neighbors = {v: frozenset(ws) for v, ws in self._rotation.items()}
        self._faces: tuple[Face, ...] | None = None

    def _check_rotation(self) -> None:
        for v, nbrs in self._rotation.items():
            if v in nbrs:
                raise SelfLoop(f"self-loop at {v}")
            if len(set(nbrs)) != len(nbrs):
                raise DuplicateNeighbor(f"repeated neighbor in rotation of {v}")
        for v, nbrs in self._rotation.items():
            for w in nbrs:
                if v not in self._rotation.get(w, ()):
                    raise AsymmetricRotation(f"edge {v}-{w} missing at {w}")

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        return sorted(self._rotation)

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._neighbors[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v}") from None

    def rotation(self, v: int) -> tuple[int, ...]:
        try:
            return self._rotation[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.rotation(v))

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self._rotation for v in self._rotation[u] if u < v)

    def num_edges(self) -> int:
        return sum(len(ws) for ws in self._rotation.values()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def is_connected(self) -> bool:
        verts = self.vertices
        if not verts:
            return True
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            u = stack.pop()
            for w in self._neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def is_triangle_free(self) -> bool:
        for u in self._rotation:
            for v, w in itertools.combinations(self._neighbors[u], 2):
                if w in self._neighbors[v]:
                    return False
        return True

    # -- embedding ------------------------------------------------------

    def succ(self, v: int, u: int) -> int:
        """Successor of u in the cyclic rotation at v."""
        rot = self.rotation(v)
        try:
            i = rot.index(u)
        except ValueError:
            raise NotNeighbor(f"{u} is not a neighbor of {v}") from None
        return rot[(i + 1) % len(rot)]

    def faces(self) -> tuple[Face, ...]:
        if self.abstract:
            raise NotEmbedded("graph has no rotation system")
        if self._faces is None:
            self._faces = tuple(trace_faces(self))
        return self._faces

    def to_json(self) -> str:
        if self.abstract:
            return json.dumps({"edges": self.edges()})
        return json.dumps({"vertices": self.vertices,
                           "rotations": {str(v): list(self._rotation[v])
                                         for v in self.vertices}})


def build_plane_graph(spec: dict | str) -> PlaneGraph:
    """Build and validate a graph from its JSON description.

    Accepts ``{"vertices": [...], "rotations": {id: [...]}}`` for an embedded
    graph or ``{"edges": [[u, v], ...]}`` for an abstract one.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    try:
        if "rotations" in spec:
            rot = {int(v): nbrs for v, nbrs in spec["rotations"].items()}
            return PlaneGraph(rotation=rot, vertices=spec.get("vertices"))
        if "edges" in spec:
            return PlaneGraph(edges=[tuple(e) for e in spec["edges"]],
                              vertices=spec.get("vertices"))
    except GraphError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        # not an object, ids that are not integers, edges that are not pairs
        raise GraphError(f"malformed graph spec: {exc}") from None
    raise GraphError("spec needs 'rotations' or 'edges'")


def trace_faces(G: PlaneGraph) -> list[Face]:
    """Trace all face walks; every dart lies on exactly one face.

    On a connected embedded graph the result satisfies |V| - |E| + |F| = 2.
    """
    if G.abstract:
        raise NotEmbedded("graph has no rotation system")
    # succ[v][u] is the successor of u at v; the walk pops each dart (u, v)
    faces, succ = [], {v: dict(zip(rot, rot[1:] + rot[:1]))
                       for v, rot in G._rotation.items()}
    # the least dart not yet walked is the least dart of its face, so the
    # faces come out ordered by their least darts
    for a in G.vertices:
        for b in sorted(G._rotation[a]):
            walk, u, v = [], a, b
            while (w := succ[v].pop(u, None)) is not None:
                walk.append((u, v))
                u, v = v, w
            if walk:
                faces.append(Face(tuple(walk)))
    if G.is_connected():
        euler = len(G.vertices) - G.num_edges() + len(faces)
        if euler != 2:
            raise NotEmbedded(f"face tracing gives Euler characteristic {euler}, not 2")
    return faces


def degree_class(G: PlaneGraph, u: int) -> DegreeClass:
    """(d(u), number of degree-3 neighbors of u)."""
    nbrs = G.neighbors(u)
    return DegreeClass(len(nbrs), sum(1 for w in nbrs if G.degree(w) == 3))


def consecutive(G: PlaneGraph, u: int, x: int, y: int) -> bool:
    """True iff x and y are cyclically adjacent in the rotation at u."""
    if G.abstract:
        raise NotEmbedded("graph has no rotation system")
    rot = G.rotation(u)
    for z in (x, y):
        if z not in rot:
            raise NotNeighbor(f"{z} is not a neighbor of {u}")
    return G.succ(u, x) == y or G.succ(u, y) == x


# -- fixture helpers ----------------------------------------------------

def cycle_graph(n: int) -> PlaneGraph:
    rot = {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}
    return PlaneGraph(rotation=rot)


def path_graph(n: int) -> PlaneGraph:
    return PlaneGraph(edges=[(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> PlaneGraph:
    return PlaneGraph(edges=[(i, a + j) for i in range(a) for j in range(b)])


def cube_graph() -> PlaneGraph:
    # outer square 0..3, inner square 4..7, spokes i -> i+4
    rot = {
        0: [1, 4, 3], 1: [2, 5, 0], 2: [3, 6, 1], 3: [0, 7, 2],
        4: [0, 5, 7], 5: [1, 6, 4], 6: [2, 7, 5], 7: [3, 4, 6],
    }
    return PlaneGraph(rotation=rot)


def grid_patch(w: int, h: int) -> PlaneGraph:
    """(w+1) x (h+1) lattice patch of unit squares."""
    def vid(x: int, y: int) -> int:
        return y * (w + 1) + x

    rot: dict[int, list[int]] = {}
    for y in range(h + 1):
        for x in range(w + 1):
            nbrs = []
            # counterclockwise order keeps the embedding planar
            if x + 1 <= w:
                nbrs.append(vid(x + 1, y))
            if y + 1 <= h:
                nbrs.append(vid(x, y + 1))
            if x - 1 >= 0:
                nbrs.append(vid(x - 1, y))
            if y - 1 >= 0:
                nbrs.append(vid(x, y - 1))
            rot[vid(x, y)] = nbrs
    return PlaneGraph(rotation=rot)


def rotations_from_faces(face_list: Sequence[Sequence[int]]) -> PlaneGraph:
    """Rebuild a rotation system from the faces of a planar map.

    Each face is a cyclic vertex sequence; for consecutive a, v, b on a face
    the successor of a in the rotation at v is b (the tracing convention run
    backwards).
    """
    succ: dict[int, dict[int, int]] = {}
    for face in face_list:
        k = len(face)
        for i in range(k):
            a, v, b = face[i], face[(i + 1) % k], face[(i + 2) % k]
            succ.setdefault(v, {})[a] = b
    rot = {}
    for v, nxt in succ.items():
        start = next(iter(nxt))
        order = [start]
        while True:
            w = nxt[order[-1]]
            if w == start:
                break
            order.append(w)
        if len(order) != len(nxt):
            raise GraphError(f"faces do not close into a rotation at {v}")
        rot[v] = order
    return PlaneGraph(rotation=rot)


def dodecahedron_graph() -> PlaneGraph:
    faces = [
        [0, 1, 2, 3, 4],
        [0, 5, 10, 6, 1], [1, 6, 11, 7, 2], [2, 7, 12, 8, 3],
        [3, 8, 13, 9, 4], [4, 9, 14, 5, 0],
        [10, 15, 16, 11, 6], [11, 16, 17, 12, 7], [12, 17, 18, 13, 8],
        [13, 18, 19, 14, 9], [14, 19, 15, 10, 5],
        [15, 19, 18, 17, 16],
    ]
    return rotations_from_faces(faces)
