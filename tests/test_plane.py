import pytest

from chooselab.plane import (AsymmetricRotation, DuplicateNeighbor,
                             NotNeighbor, NotQuadFace, PlaneGraph, SelfLoop,
                             UnknownVertex, build_plane_graph,
                             complete_bipartite, consecutive, cube_graph,
                             degree_class, dodecahedron_graph, grid_patch,
                             path_graph, trace_faces)

from fixtures_embedded import seeded_plane_graph


def test_build_cycle_from_rotations():
    G = build_plane_graph({"vertices": [0, 1, 2, 3],
                           "rotations": {"0": [1, 3], "1": [0, 2],
                                         "2": [1, 3], "3": [2, 0]}})
    assert G.num_edges() == 4
    assert not G.abstract


def test_asymmetric_rotation_rejected():
    with pytest.raises(AsymmetricRotation):
        PlaneGraph(rotation={0: [1], 1: []})


def test_duplicate_and_loop_rejected():
    with pytest.raises(DuplicateNeighbor):
        PlaneGraph(rotation={0: [1, 1], 1: [0, 0]})
    with pytest.raises(SelfLoop):
        PlaneGraph(rotation={0: [0]})
    with pytest.raises(SelfLoop):
        PlaneGraph(edges=[(2, 2)])


def test_cube_euler_and_faces():
    G = cube_graph()
    assert len(G.vertices) == 8 and G.num_edges() == 12
    faces = G.faces()
    assert len(faces) == 6
    assert all(f.degree == 4 for f in faces)


def test_single_edge_degenerate_face():
    G = PlaneGraph(rotation={0: [1], 1: [0]})
    faces = trace_faces(G)
    assert [f.degree for f in faces] == [2]


def test_trace_faces_requires_embedding():
    from chooselab.plane import NotEmbedded
    with pytest.raises(NotEmbedded):
        trace_faces(PlaneGraph(edges=[(0, 1)]))


def _reference_faces(G):
    """The face walk as first written: restart from min(darts) per face."""
    darts = {(u, v) for u in G.vertices for v in G.rotation(u)}
    faces = []
    while darts:
        start = min(darts)
        walk = []
        dart = start
        while True:
            walk.append(dart)
            darts.discard(dart)
            u, v = dart
            dart = (v, G.succ(v, u))
            if dart == start:
                break
        faces.append(walk)
    return sorted(faces, key=min)


def test_dart_partition():
    cube = {v: cube_graph().rotation(v) for v in range(8)}
    two_cubes = {**cube, **{v + 8: [w + 8 for w in ws]
                            for v, ws in cube.items()}}
    grid = grid_patch(2, 2)
    for G in (cube_graph(), dodecahedron_graph(), grid_patch(2, 3),
              grid_patch(9, 7), PlaneGraph(rotation=two_cubes),
              PlaneGraph(rotation={v: grid.rotation(v) for v in grid.vertices},
                         vertices=[50]),
              *(seeded_plane_graph(seed) for seed in range(40))):
        darts = {(u, v) for u in G.vertices for v in G.rotation(u)}
        covered = [d for f in G.faces() for d in f.boundary]
        assert len(covered) == len(darts)
        assert set(covered) == darts
        assert [list(f.boundary) for f in trace_faces(G)] == _reference_faces(G)


def test_double_counting():
    for G in (cube_graph(), dodecahedron_graph(), grid_patch(3, 2)):
        assert sum(G.degree(v) for v in G.vertices) == 2 * G.num_edges()
        assert sum(f.degree for f in G.faces()) == 2 * G.num_edges()


def test_degree_class_star_and_path():
    star = PlaneGraph(edges=[(0, 1), (0, 2), (0, 3)])
    assert (degree_class(star, 0).d, degree_class(star, 0).t) == (3, 0)
    p4 = path_graph(4)
    assert (degree_class(p4, 1).d, degree_class(p4, 1).t) == (2, 0)
    with pytest.raises(UnknownVertex):
        degree_class(p4, 99)


def test_degree_class_41_fixture():
    # a 4-vertex with exactly one degree-3 neighbor
    G = PlaneGraph(edges=[(0, 1), (0, 2), (0, 3), (0, 4),
                          (1, 5), (1, 6)])
    assert degree_class(G, 0).d == 4
    assert degree_class(G, 0).t == 1


def test_consecutive():
    G = PlaneGraph(rotation={0: [1, 2, 3, 4],
                             1: [0], 2: [0], 3: [0], 4: [0]})
    assert consecutive(G, 0, 1, 2)
    assert not consecutive(G, 0, 1, 3)
    assert consecutive(G, 0, 4, 1)  # cyclic wrap
    with pytest.raises(NotNeighbor):
        consecutive(G, 0, 1, 99)


def test_abstract_mode_and_json_roundtrip():
    G = PlaneGraph(edges=[(0, 1), (1, 2)])
    assert G.abstract
    G2 = build_plane_graph(G.to_json())
    assert G2.edges() == G.edges()
    G3 = build_plane_graph(cube_graph().to_json())
    assert len(G3.faces()) == 6


def test_lambda_pattern_errors():
    from chooselab.discharging import lambda_pattern
    G = dodecahedron_graph()
    with pytest.raises(NotQuadFace):
        lambda_pattern(G, 0, G.faces()[0])


def test_k33_triangle_free():
    assert complete_bipartite(3, 3).is_triangle_free()
    assert not PlaneGraph(edges=[(0, 1), (1, 2), (2, 0)]).is_triangle_free()
