"""Each output check rejects a bad input.

    python3 -m pytest perfbench/test_checks.py

Kept out of the Tier-1 run: pytest's testpaths name only tests/.
"""

import io
import itertools
import json
import contextlib
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import graphs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import Mismatch  # noqa: E402

C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_triangle_check():
    assert not oracles.has_triangle(C4)
    assert oracles.has_triangle(C4 + [(0, 2)])


def test_coloring_check_rejects_each_fault():
    vertices = [0, 1, 2, 3]
    lists = {v: [1, 2, 3, 4] for v in vertices}
    demand = {v: 2 for v in vertices}
    good = {0: [1, 2], 1: [3, 4], 2: [1, 2], 3: [3, 4]}
    oracles.check_coloring(vertices, C4, lists, demand, good)
    bad = [
        None,
        {0: [1, 2], 1: [3, 4], 2: [1, 2]},               # a vertex missing
        {**good, 0: [1]},                                # too few colours
        {**good, 0: [1, 5]},                             # colour not in the list
        {**good, 1: [1, 4]},                             # edge 0-1 shares colour 1
    ]
    for col in bad:
        with pytest.raises(Mismatch):
            oracles.check_coloring(vertices, C4, lists, demand, col)


def test_no_witness_check():
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    same = {v: [1, 2] for v in range(5)}
    oracles.check_no_witness(range(5), c5, 2, 1, same)
    with pytest.raises(Mismatch):                       # C4 is 2-colourable
        oracles.check_no_witness(range(4), C4, 2, 1, {v: [1, 2] for v in range(4)})
    with pytest.raises(Mismatch):                       # lists of the wrong size
        oracles.check_no_witness(range(5), c5, 2, 1, {**same, 0: [1, 2, 3]})


def _count_by_enumeration(n, f):
    subsets = [m for m in range(1, 1 << n)]
    count = 0
    for vec in itertools.product(range(f + 1), repeat=len(subsets)):
        if all(sum(c for m, c in zip(subsets, vec) if m >> v & 1) == f
               for v in range(n)):
            count += 1
    return count


def test_class_count_matches_enumeration():
    for n, f in ((1, 3), (2, 2), (2, 4), (3, 1), (3, 2)):
        assert oracles.count_classes(n, f) == _count_by_enumeration(n, f)
    assert oracles.count_classes(2, 7) == 8     # P2: one class per overlap 0..7


def _ledger_of(spec):
    from chooselab import cli
    path = HERE / "out" / "test-ledger.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["discharge", "--graph", str(path), "--report", "json"]) == 0
    path.unlink()
    return json.loads(out.getvalue())


def test_ledger_check_rejects_each_fault():
    rng = random.Random(5)
    spec = graphs.relabel(rng, graphs.triangle_free_plane_graph(rng, 120))
    edges = graphs.edges_of(spec)
    ledger = _ledger_of(spec)
    oracles.check_ledger(spec["vertices"], edges, ledger)

    def tampered(fn):
        data = json.loads(json.dumps(ledger))
        fn(data)
        return data

    faces = [i for i, r in enumerate(ledger["rows"]) if r["element"].startswith("f")]
    verts = [i for i, r in enumerate(ledger["rows"]) if r["element"].startswith("v")]
    bad = [
        tampered(lambda d: d["rows"].pop(faces[0])),                    # Euler
        tampered(lambda d: d["rows"][faces[0]].update(initial="0")),    # face degree
        tampered(lambda d: d["rows"][verts[0]].update(initial="5")),    # vertex charge
        tampered(lambda d: d["rows"][verts[0]].update(final="100")),    # row arithmetic
        tampered(lambda d: d.update(total_final="-19")),                # conservation
    ]
    for data in bad:
        with pytest.raises(Mismatch):
            oracles.check_ledger(spec["vertices"], edges, data)


def test_generated_graphs_are_triangle_free_plane_graphs():
    from chooselab import plane
    for seed in range(3):
        rng = random.Random(seed)
        spec = graphs.relabel(rng, graphs.triangle_free_plane_graph(rng, 300))
        G = plane.build_plane_graph(spec)
        assert len(G.vertices) == 300
        assert G.is_connected() and G.is_triangle_free()
        assert len(G.faces()) == len(graphs.face_walks(
            {int(v): ws for v, ws in spec["rotations"].items()}))
        assert 2 <= min(map(G.degree, G.vertices))
        assert max(map(G.degree, G.vertices)) <= 7


def _op(wl, prefix):
    return next(op for op in wl.ops if op.label.startswith(prefix))


def test_workload_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.audits(1, tmp_path)
    op = _op(wl, "audit four-face")
    rc, out = op.run()
    op.check((rc, out))
    data = json.loads(out)
    with pytest.raises(Mismatch):
        op.check((rc, json.dumps({**data, "surviving": data["surviving"] + 1})))
    with pytest.raises(Mismatch):
        op.check((1, json.dumps({**data, "findings": [{"audit": "x", "detail": "y"}]})))

    wl = workloads.lists(1, tmp_path)
    op = _op(wl, "check-choosability C4 (2,1)")
    rc, out = op.run()
    op.check((rc, out))
    data = json.loads(out)
    with pytest.raises(Mismatch):
        op.check((rc, json.dumps({**data, "checked": data["checked"] - 1})))
    with pytest.raises(Mismatch):
        op.check((1, json.dumps({**data, "choosable": False})))

    wl = workloads.catalog(1, tmp_path)
    op = _op(wl, "verify-claims m=1")
    rc, out = op.run()
    op.check((rc, out))
    with pytest.raises(Mismatch):            # not byte-identical to the first report
        op.check((rc, out + " "))
    with pytest.raises(Mismatch):            # exit code against the report
        op.check((1 - rc, out))
    op = _op(wl, "schemes run")
    results = op.run()
    op.check(results)
    with pytest.raises(Mismatch):
        op.check([(1, json.dumps({"completed": False}))] + results[1:])

    wl = workloads.colorings(1, tmp_path)
    op = _op(wl, "find_coloring")
    col = op.run()
    op.check(col)
    v = min(col)
    with pytest.raises(Mismatch):
        op.check({**col, v: frozenset(list(col[v])[1:])})
