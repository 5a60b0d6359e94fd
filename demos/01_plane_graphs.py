"""Rotation systems, face tracing, and degree classes.

A plane graph is stored as a cyclic neighbor order per vertex.  Faces come
out of dart tracing: from the dart (u, v) the walk continues to (v, w) with
w the successor of u in the rotation at v.
"""

from chooselab import build_plane_graph, consecutive, degree_class
from chooselab.plane import cube_graph

cube = cube_graph()
print("cube:", len(cube.vertices), "vertices,", cube.num_edges(), "edges")
faces = cube.faces()
print("faces:", [f.degree for f in faces], "->",
      len(cube.vertices) - cube.num_edges() + len(faces), "== 2 (Euler)")

from chooselab.plane import grid_patch
grid = grid_patch(3, 3)
print("\nrotation at inner grid vertex 5:", grid.rotation(5))
print("are 4 and 6 consecutive around 5?", consecutive(grid, 5, 4, 6))
print("are 1 and 6 consecutive around 5?", consecutive(grid, 5, 1, 6))

# degree classes: a k_t-vertex has degree k and exactly t neighbors of degree 3
star = build_plane_graph({"edges": [[0, 1], [0, 2], [0, 3], [1, 4], [1, 5]]})
c = degree_class(star, 0)
print(f"\ncenter of the star is a {c.d}_{c.t}-vertex")
