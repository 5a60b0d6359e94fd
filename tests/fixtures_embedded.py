"""Embedded fixtures shared across test modules."""

import random

from chooselab.plane import PlaneGraph, rotations_from_faces


def quad_wheel():
    """A degree-5 hub whose five petals are (5,3,4,3)-faces: rim vertices of
    degree 3, mid-ring of degree 4, a degree-2 skirt, quad inner faces."""
    inner = [[20, 0 + i, 10 + i, 0 + (i + 1) % 5] for i in range(5)]
    middle = [[10 + i, 15 + i, 10 + (i + 1) % 5, (i + 1) % 5]
              for i in range(5)]
    ring = []
    for i in range(5):
        ring.extend([15 + i, 10 + (i + 1) % 5])
    return rotations_from_faces(inner + middle + [list(reversed(ring))])


def hex_pair():
    """Two hexagons sharing an edge; no 4-faces at all."""
    faces = [[0, 1, 2, 3, 4, 5], [1, 0, 6, 7, 8, 9],
             [0, 5, 4, 3, 2, 1, 9, 8, 7, 6]]
    return rotations_from_faces(faces)


def seeded_plane_graph(seed: int) -> PlaneGraph:
    """The quad wheel (a 5_5 hub, 2-vertices) grown by seeded chords across
    faces and edge subdivisions.  A chord joins two vertices with no common
    neighbor, so the graph stays triangle-free and plane."""
    rng = random.Random(seed)
    G = quad_wheel()
    rot = {v: list(G.rotation(v)) for v in G.vertices}
    for _ in range(40):
        G = PlaneGraph(rotation=rot)
        if rng.random() < 0.3:
            u = rng.choice(G.vertices)
            v, x = rng.choice(rot[u]), max(rot) + 1
            rot[u][rot[u].index(v)] = x
            rot[v][rot[v].index(u)] = x
            rot[x] = [u, v]
            continue
        walk = rng.choice(G.faces()).vertices
        i, j = rng.sample(range(len(walk)), 2)
        a, c = walk[i], walk[j]
        if (walk.count(a) > 1 or walk.count(c) > 1 or c in G.neighbors(a)
                or G.neighbors(a) & G.neighbors(c)):
            continue
        # walk[i - 1] -> a -> walk[i + 1] turns at a, so c goes between them
        rot[a].insert(rot[a].index(walk[i - 1]) + 1, c)
        rot[c].insert(rot[c].index(walk[j - 1]) + 1, a)
    return PlaneGraph(rotation=rot)
