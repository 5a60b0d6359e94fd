"""Seeded input graphs: triangle-free plane graphs as rotation systems, and
the small graphs whose choosability verdicts are known from theory.

The plane graphs start from a lattice patch of unit squares and grow by
inserting paths of length 2 or 3 across faces, then lose a few edges.  A
path a-x-c is only inserted when a and c are not adjacent, and any other new
cycle has length at least 4, so the result stays triangle-free; deleting an
edge that borders two different faces keeps it connected.  Faces of degree
4, 5, 6 and more occur, and vertex degrees run from 2 to `max_degree`.
"""

from __future__ import annotations

import random


def grid_rotations(w: int, h: int) -> dict[int, list[int]]:
    """Counterclockwise rotations of the (w+1) x (h+1) lattice patch."""
    def vid(x: int, y: int) -> int:
        return y * (w + 1) + x

    rot = {}
    for y in range(h + 1):
        for x in range(w + 1):
            nbrs = []
            if x < w:
                nbrs.append(vid(x + 1, y))
            if y < h:
                nbrs.append(vid(x, y + 1))
            if x > 0:
                nbrs.append(vid(x - 1, y))
            if y > 0:
                nbrs.append(vid(x, y - 1))
            rot[vid(x, y)] = nbrs
    return rot


def face_walks(rot: dict[int, list[int]]) -> list[list[int]]:
    """Vertex sequences of all faces, in linear time.

    Same convention as chooselab.plane: dart (u, v) is followed by
    (v, w) where w is the successor of u in the rotation at v.
    """
    pos = {v: {w: i for i, w in enumerate(ws)} for v, ws in rot.items()}
    seen = set()
    walks = []
    for u0 in rot:
        for v0 in rot[u0]:
            if (u0, v0) in seen:
                continue
            walk = []
            u, v = u0, v0
            while (u, v) not in seen:
                seen.add((u, v))
                walk.append(u)
                ws = rot[v]
                u, v = v, ws[(pos[v][u] + 1) % len(ws)]
            walks.append(walk)
    return walks


def _insert_after(rot: dict[int, list[int]], v: int, prev: int, new: int) -> None:
    ws = rot[v]
    ws.insert(ws.index(prev) + 1, new)


def triangle_free_plane_graph(rng: random.Random, n: int,
                              max_degree: int = 7) -> dict[int, list[int]]:
    """A connected triangle-free plane graph on exactly n vertices (n >= 60)."""
    side = max(3, int((n / 2) ** 0.5) - 1)
    rot = grid_rotations(side, side)
    next_id = len(rot)
    while next_id < n:
        walks = face_walks(rot)
        rng.shuffle(walks)
        used: set[int] = set()
        for walk in walks:
            k = len(walk)
            if next_id >= n:
                break
            if k < 4 or len(set(walk)) != k or used.intersection(walk):
                continue
            # ends of low degree first, so that few 2-vertices remain
            i = min(rng.sample(range(k), 2), key=lambda t: len(rot[walk[t]]))
            j = i + rng.randrange(2, k - 1)
            a, c = walk[i], walk[j % k]
            if len(rot[a]) >= max_degree or len(rot[c]) >= max_degree:
                continue
            length = 3 if c in rot[a] or rng.random() < 0.4 else 2
            length = min(length, 1 + n - next_id)
            if length == 2 and c in rot[a]:
                continue
            path = list(range(next_id, next_id + length - 1))
            next_id += length - 1
            _insert_after(rot, a, walk[i - 1], path[0])
            _insert_after(rot, c, walk[(j - 1) % k], path[-1])
            chain = [a] + path + [c]
            for t in range(1, len(chain) - 1):
                rot[chain[t]] = [chain[t - 1], chain[t + 1]]
            used.update(walk)
    # a few deletions make larger faces and lower degrees
    face_of = {}
    for fi, walk in enumerate(face_walks(rot)):
        for t, u in enumerate(walk):
            face_of[(u, walk[(t + 1) % len(walk)])] = fi
    touched: set[int] = set()
    edges = sorted((u, v) for u in rot for v in rot[u] if u < v)
    for u, v in rng.sample(edges, len(edges) // 25):
        fa, fb = face_of[(u, v)], face_of[(v, u)]
        if fa == fb or fa in touched or fb in touched:
            continue
        if len(rot[u]) < 3 or len(rot[v]) < 3:
            continue
        rot[u].remove(v)
        rot[v].remove(u)
        touched.update((fa, fb))
    return rot


def relabel(rng: random.Random, rot: dict[int, list[int]]) -> dict:
    """Graph JSON with shuffled vertex ids and rotated rotation lists."""
    ids = list(range(len(rot)))
    rng.shuffle(ids)
    mp = dict(zip(sorted(rot), ids))
    rotations = {}
    for v, ws in rot.items():
        s = rng.randrange(len(ws))
        rotations[str(mp[v])] = [mp[w] for w in ws[s:] + ws[:s]]
    return {"vertices": sorted(mp.values()), "rotations": rotations}


def edges_of(spec: dict) -> list[tuple[int, int]]:
    """Undirected edges of a graph JSON, either form, as sorted pairs."""
    if "edges" in spec:
        return sorted({(min(u, v), max(u, v)) for u, v in spec["edges"]})
    return sorted({(min(int(u), w), max(int(u), w))
                   for u, ws in spec["rotations"].items() for w in ws})
