import collections
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chooselab import cli
from chooselab.cli import main
from chooselab.plane import cube_graph, cycle_graph, path_graph


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.json"
    p.write_text(cycle_graph(5).to_json())
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.json"
    p.write_text(cycle_graph(4).to_json())
    return str(p)


def test_verify_claims_single(capsys):
    rc = main(["verify-claims", "--claim", "star"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] star" in out
    assert "literal scheme fails" in out


def test_verify_claims_unknown(capsys):
    assert main(["verify-claims", "--claim", "nope"]) == 2


def test_verify_claims_json_schema(capsys):
    rc = main(["verify-claims", "--claim", "k2-no-3nbr", "--report", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["schema"] == 1
    assert data["passed"] is True


def test_verify_claims_all_reports_discrepancy(capsys):
    rc = main(["verify-claims", "--report", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["failed"] == ["cycle-63-434"]


def test_check_choosability_no_with_witness(capsys, c5_file):
    rc = main(["check-choosability", "--graph", c5_file, "--f", "2",
               "--g", "1", "--report", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["choosable"] is False
    assert all(cols == [1, 2] for cols in data["witness"].values())


def test_check_choosability_yes(capsys, c4_file):
    rc = main(["check-choosability", "--graph", c4_file, "--f", "2",
               "--g", "1"])
    assert rc == 0


def test_check_colorable(capsys, c5_file):
    assert main(["check-choosability", "--graph", c5_file, "--a", "5",
                 "--b", "2", "--colorable"]) == 0
    assert main(["check-choosability", "--graph", c5_file, "--a", "4",
                 "--b", "2", "--colorable"]) == 1


def test_check_choosability_bad_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["check-choosability", "--graph", str(p), "--f", "2",
                 "--g", "1"]) == 2


def test_discharge_cube(capsys, tmp_path):
    p = tmp_path / "cube.json"
    p.write_text(cube_graph().to_json())
    rc = main(["discharge", "--graph", str(p), "--report", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["total_final"] == "-20"
    assert data["conserved"] is True


def test_discharge_not_embedded(tmp_path, capsys):
    p = tmp_path / "abstract.json"
    p.write_text(json.dumps({"edges": [[0, 1], [1, 2]]}))
    assert main(["discharge", "--graph", str(p)]) == 2


def test_audit_commands(capsys):
    assert main(["audit", "families"]) == 0
    assert main(["audit", "ineq6plus", "--dmax", "8"]) == 0
    assert main(["audit", "case-ledger"]) == 0


@pytest.mark.parametrize("dmax", ["6", "-5"])
def test_ineq6plus_dmax_below_7_rejected(capsys, dmax):
    _assert_input_error(main(["audit", "ineq6plus", "--dmax", dmax]), capsys)


@pytest.mark.parametrize("dmax", ["51", "1000000"])
def test_ineq6plus_dmax_above_50_rejected(capsys, dmax):
    # rejected before the sweep, whose work grows as dmax^5
    _assert_input_error(main(["audit", "ineq6plus", "--dmax", dmax]), capsys)


def test_audit_four_face_json(capsys):
    rc = main(["audit", "four-face", "--report", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["findings"] == []
    assert data["surviving"] > 0


def test_schemes_run(tmp_path, capsys):
    cfg = {
        "graph": {"edges": [[0, 1], [0, 2]]},
        "profile": {"0": [11, 4], "1": [7, 4], "2": [7, 4]},
        "steps": [
            {"op": "save", "u": 0, "v": 1, "k": 1},
            {"op": "delete", "u": 1},
            {"op": "delete", "u": 0},
            {"op": "delete", "u": 2},
        ],
    }
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps(cfg))
    rc = main(["schemes", "run", "--config", str(p), "--report", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["legal"] is True and data["exhaustive"] is True
    steps = data["branches"][0]["steps"]
    assert all({"inequality", "lhs", "rhs", "verdict"} <= set(s) for s in steps)


def test_schemes_run_concrete(tmp_path, capsys):
    cfg = {
        "graph": {"edges": [[0, 1]]},
        "mode": "concrete",
        "lists": {"0": [1, 2, 3], "1": [1, 2]},
        "demand": {"0": 1, "1": 1},
        "steps": [
            {"op": "assume", "name": "A", "size": 1, "subset_of": [0],
             "avoids": [1]},
            {"op": "color", "phi": {"0": ["A"]}},
            {"op": "delete", "u": 0},
            {"op": "delete", "u": 1},
        ],
    }
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps(cfg))
    assert main(["schemes", "run", "--config", str(p)]) == 0


def _fresh(argv):
    """`chooselab ARGV` in a new interpreter: (exit code, stdout)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "chooselab.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout


def test_main_reuses_its_parser(capsys):
    """main keeps one parser per process; later calls, after a usage
    error too, parse and print as fresh ones do, to the current streams."""
    argvs = [["verify-claims", "--claim", "star", "--scale", s, "--report",
              "json"] for s in ("2", "1")]
    reused = []
    for argv in argvs:
        rc = main(argv)
        reused.append((rc, capsys.readouterr().out))
    assert reused == [_fresh(argv) for argv in argvs]

    with pytest.raises(SystemExit) as exc:
        main(["verify-claims", "--scale", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert main(argvs[1]) == 0
    assert (0, capsys.readouterr().out) == reused[1]

    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        main(["no-such-command"])
    assert "invalid choice" in err.getvalue()
    assert capsys.readouterr().err == ""
    with pytest.raises(SystemExit) as exc:
        main(["schemes", "run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_verify_claims_literal_strict(capsys):
    assert main(["verify-claims", "--claim", "star", "--literal",
                 "--strict"]) == 1
    assert main(["verify-claims", "--claim", "star", "--literal"]) == 0


# -- input errors: exit 2, one line on stderr, no traceback --------------------

def _assert_input_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    return err


SYMBOLIC_CFG = {
    "graph": {"edges": [[0, 1]]},
    "profile": {"0": [7, 4], "1": [7, 4]},
    "steps": [{"op": "delete", "u": 0}, {"op": "delete", "u": 1}],
}
CONCRETE_CFG = {
    "graph": {"edges": [[0, 1]]},
    "mode": "concrete",
    "lists": {"0": [1, 2, 3], "1": [1, 2]},
    "demand": {"0": 1, "1": 1},
    "steps": [{"op": "delete", "u": 0}, {"op": "delete", "u": 1}],
}


def _run_config(tmp_path, cfg):
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps(cfg))
    return main(["schemes", "run", "--config", str(p)])


@pytest.mark.parametrize("cfg, key", [(CONCRETE_CFG, "lists"),
                                      (CONCRETE_CFG, "demand"),
                                      (SYMBOLIC_CFG, "profile")])
def test_schemes_run_missing_key(tmp_path, capsys, cfg, key):
    assert _run_config(tmp_path, cfg) in (0, 1)
    capsys.readouterr()
    cfg = {k: v for k, v in cfg.items() if k != key}
    _assert_input_error(_run_config(tmp_path, cfg), capsys)


@pytest.mark.parametrize("cfg", [SYMBOLIC_CFG, CONCRETE_CFG])
def test_schemes_run_undeclared_set(tmp_path, capsys, cfg):
    cfg = dict(cfg, steps=[{"op": "color", "phi": {"0": ["X"]}}]
               + cfg["steps"])
    _assert_input_error(_run_config(tmp_path, cfg), capsys)


def test_schemes_run_too_many_branch_points(tmp_path, capsys):
    """12 pair saves would replay 3^12 corner branches: exit 2 before any
    replay; the bound's own value still runs."""
    def cfg(n):
        return {"graph": {"edges": [[0, 2], [2, 1]]},
                "profile": {"0": [60, 30], "1": [60, 30], "2": [40, 4]},
                "steps": [{"op": "pair_save", "u1": 0, "u2": 1, "v": 2,
                           "k": 1}] * n
                + [{"op": "delete", "u": u} for u in (2, 0, 1)]}
    _assert_input_error(_run_config(tmp_path, cfg(12)), capsys)
    assert _run_config(tmp_path, cfg(2)) in (0, 1)


def test_max_cells_env(monkeypatch, capsys, c4_file):
    args = ["check-choosability", "--graph", c4_file, "--f", "2", "--g", "1"]
    for spelling in ("1e8", "100000000"):
        monkeypatch.setenv("CHOOSELAB_MAX_CELLS", spelling)
        assert main(args) == 0, spelling
    capsys.readouterr()
    for bad in ("1.5e0", "lots", "", "nan"):
        monkeypatch.setenv("CHOOSELAB_MAX_CELLS", bad)
        _assert_input_error(main(args), capsys)
        _assert_input_error(main(["audit", "key-lemma"]), capsys)


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_scale_below_one_rejected(tmp_path, capsys, scale):
    _assert_input_error(main(["verify-claims", "--scale", scale]), capsys)
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps(SYMBOLIC_CFG))
    _assert_input_error(main(["schemes", "run", "--config", str(p),
                              "--scale", scale]), capsys)


def test_schemes_run_profile_vertex_not_in_graph(tmp_path, capsys):
    cfg = dict(SYMBOLIC_CFG, profile=dict(SYMBOLIC_CFG["profile"], **{"7": [7, 4]}))
    _assert_input_error(_run_config(tmp_path, cfg), capsys)


def test_schemes_run_concrete_color_vertex_without_list(tmp_path, capsys):
    cfg = dict(CONCRETE_CFG, steps=[
        {"op": "assume", "name": "A", "size": 1, "subset_of": [0],
         "avoids": [1]},
        {"op": "color", "phi": {"5": ["A"]}}] + CONCRETE_CFG["steps"])
    _assert_input_error(_run_config(tmp_path, cfg), capsys)


_DECLARE_AB = [{"op": "assume", "name": n, "size": 1, "subset_of": [0]}
               for n in "AB"]


@pytest.mark.parametrize("cfg", [SYMBOLIC_CFG, CONCRETE_CFG],
                         ids=["symbolic", "concrete"])
@pytest.mark.parametrize("steps", [
    [{"op": "delete", "u": [1]}],
    [{"op": "save", "u": 0, "v": 1, "k": "2"}],
    [{"op": "assume", "name": "A", "size": "1", "subset_of": [0]}],
    [{"op": "assume_three_sets", "names": ["S", "T", "R"], "a": 0, "b": 1,
      "c": 1, "z_cap": "1"}],
    [{"op": "save", "u": 0, "v": 1, "k": -1}],
    _DECLARE_AB + [{"op": "color", "phi": {"0": "AB"}}],
    [{"op": "assume", "name": "A", "size": 1, "subset_of": [5]}],
], ids=["vertex-list", "k-string", "size-string", "z_cap-string",
        "k-negative", "phi-string", "vertex-not-in-config"])
def test_schemes_run_malformed_step(tmp_path, capsys, cfg, steps):
    cfg = dict(cfg, steps=steps + cfg["steps"])
    _assert_input_error(_run_config(tmp_path, cfg), capsys)


def test_schemes_run_concrete_long_scheme(tmp_path, capsys):
    """1,500 deletes on a path: the concrete walk takes no frame per step."""
    G = path_graph(1500)
    cfg = {"graph": json.loads(G.to_json()), "mode": "concrete",
           "lists": {str(v): [1, 2, 3] for v in G.vertices},
           "demand": {str(v): 1 for v in G.vertices},
           "steps": [{"op": "delete", "u": v} for v in G.vertices]}
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps(cfg))
    assert main(["schemes", "run", "--config", str(p), "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["completed"] is True


@pytest.mark.parametrize("a, b", [("3", "5"), ("3", "0")])
def test_colorable_bad_a_b(capsys, c5_file, a, b):
    _assert_input_error(main(["check-choosability", "--graph", c5_file,
                              "--colorable", "--a", a, "--b", b]), capsys)


def test_check_choosability_c11_no_after_one_class(tmp_path, capsys):
    """An odd cycle fails on its first class; the walk over its 2,047 Venn
    cells takes no call frame per cell."""
    p = tmp_path / "c11.json"
    p.write_text(cycle_graph(11).to_json())
    rc = main(["check-choosability", "--graph", str(p), "--f", "2",
               "--g", "1", "--report", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["checked"] == 1
    assert all(cols == [1, 2] for cols in data["witness"].values())


def test_check_choosability_c10_cap_exits_2(tmp_path, capsys):
    """C10 is 2-choosable, so every class is checked and the cap stops it."""
    p = tmp_path / "c10.json"
    p.write_text(cycle_graph(10).to_json())
    rc = main(["check-choosability", "--graph", str(p), "--f", "2",
               "--g", "1", "--max-vectors", "50"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("TooLarge:") and "Traceback" not in err


@pytest.mark.parametrize("which", ["f", "g"])
def test_negative_demand_rejected(tmp_path, capsys, c5_file, which):
    p = tmp_path / "map.json"
    p.write_text(json.dumps({"0": 1, "1": 1, "2": 1, "3": 1, "4": -1}))
    for spec in ("-1", str(p)):
        fg = {"f": "1", "g": "1", which: spec}
        _assert_input_error(main(["check-choosability", "--graph", c5_file,
                                  f"--f={fg['f']}", f"--g={fg['g']}"]), capsys)


@pytest.mark.parametrize("fmap", [{"0": 2, "1": 2, "2": 2, "3": 2},
                                  {str(v): 2 for v in range(6)}, [2] * 5,
                                  {str(v): [2] for v in range(5)},
                                  {**{str(v): 2 for v in range(4)}, "4": 2.7},
                                  {**{str(v): 2 for v in range(4)}, "4": True},
                                  {**{str(v): 2 for v in range(4)}, "4": "3"}],
                         ids=["missing", "extra", "array", "list-value",
                              "float", "bool", "string"])
def test_bad_f_map_rejected(tmp_path, capsys, c5_file, fmap):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(fmap))
    _assert_input_error(main(["check-choosability", "--graph", c5_file,
                              "--f", str(p), "--g", "1"]), capsys)


@pytest.mark.parametrize("spec", [
    {"edges": [[0]]}, {"edges": 5}, {"edges": [["a", "b"]]},
    {"edges": [[0, None]]}, {"rotations": [1, 2]}, {"rotations": {"0": 5}},
    {"rotations": {"x": [1]}}, {"edges": [[0, 1]], "vertices": 3}, [1, 2], 5,
    # ids must be JSON ints: no digit strings, floats or bools
    {"rotations": {"0": "1", "1": "0"}},
    {"rotations": {"0": [1.9], "1": [0.2]}},
    {"edges": ["01", [1, 2]]}, {"edges": [["0", "1"]]},
    {"edges": [[True, 2]]},
    # the bad id comes after valid ones, in a later vertex's rotation
    {"rotations": {"0": [1, 2], "1": [0, 2], "2": [0, True]}},
    {"rotations": {"0": [1, 2], "1": [2, 0], "2": [1.0, 0]}},
    {"rotations": {"0": [1, 2], "1": [0, 2], "2": [1, "0"]}}])
def test_malformed_graph_rejected(tmp_path, capsys, spec):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(spec))
    rot = spec.get("rotations") if isinstance(spec, dict) else None
    ids = [x for nbrs in rot.values() if isinstance(nbrs, list)
           for x in nbrs] if isinstance(rot, dict) else []
    bad = next((x for x in ids if type(x) is not int), None)
    for argv in (["check-choosability", "--colorable", "--a", "2", "--b", "1"],
                 ["discharge"]):
        err = _assert_input_error(main([*argv, "--graph", str(p)]), capsys)
        if bad is not None:   # the first id that is not an int is named
            assert f"vertex id {bad!r} is not an integer" in err, err


# -- fuzz: every input exits 0, 1 or 2, never with a traceback -----------------

_SMALL = st.integers(-1, 3)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), edge_bits=st.integers(0, 2 ** 10 - 1),
       colorable=st.booleans(), a=_SMALL, b=_SMALL,
       f=st.one_of(_SMALL, st.dictionaries(st.integers(0, 5), _SMALL)),
       g=st.one_of(_SMALL, st.dictionaries(st.integers(0, 5), _SMALL)))
def test_check_choosability_fuzz(tmp_path_factory, n, edge_bits, colorable,
                                 a, b, f, g):
    tmp = tmp_path_factory.mktemp("fuzz")
    pairs = [(u, v) for v in range(5) for u in range(v)]
    edges = [[u, v] for i, (u, v) in enumerate(pairs)
             if v < n and edge_bits >> i & 1]
    (tmp / "g.json").write_text(json.dumps({"vertices": list(range(n)),
                                            "edges": edges}))
    argv = ["check-choosability", "--graph", str(tmp / "g.json")]
    if colorable:
        argv += ["--colorable", f"--a={a}", f"--b={b}"]
    else:
        for name, x in (("f", f), ("g", g)):
            if isinstance(x, dict):
                (tmp / f"{name}.json").write_text(
                    json.dumps({str(v): k for v, k in x.items()}))
                x = tmp / f"{name}.json"
            argv.append(f"--{name}={x}")
        # a full sweep at f = 3 on five vertices takes seconds; an
        # exceeded cap exits 2
        argv.append("--max-vectors=300")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse's usage errors
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(6, 10), edge_bits=st.integers(0, 2 ** 45 - 1),
       f=st.integers(0, 2), g=st.integers(0, 2))
@example(n=10, edge_bits=2 ** 45 - 1, f=2, g=1)
def test_check_choosability_fuzz_ten_vertices(tmp_path_factory, n, edge_bits,
                                              f, g):
    """Up to 2^9 Venn cells per vertex block, which once ran out of stack."""
    tmp = tmp_path_factory.mktemp("fuzz10")
    pairs = [(u, v) for v in range(10) for u in range(v)]
    edges = [[u, v] for i, (u, v) in enumerate(pairs)
             if v < n and edge_bits >> i & 1]
    (tmp / "g.json").write_text(json.dumps({"vertices": list(range(n)),
                                            "edges": edges}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["check-choosability", "--graph", str(tmp / "g.json"),
                   f"--f={f}", f"--g={g}", "--max-vectors=20"])
    assert rc in (0, 1, 2), (n, edges, f, g, rc)
    assert "Traceback" not in err.getvalue()


# every kind of step, on the path 0 - 1 - 2
_FUZZ_STEPS = [
    {"op": "assume", "name": "A", "size": 1, "subset_of": [0], "avoids": [1],
     "avoid_sets": [], "disjoint_from": [], "tag": "t"},
    {"op": "color", "phi": {"0": ["A"]}},
    {"op": "save", "u": 2, "v": 1, "k": 1},
    {"op": "assume_three_sets", "names": ["S", "T", "R"], "a": 0, "b": 2,
     "c": 1, "k": 1, "minus": ["A"], "z_cap": None, "s_avoids_c": True,
     "tag": "t"},
    {"op": "pair_save", "u1": 0, "u2": 2, "v": 1, "k": 1, "assume": "x"},
    {"op": "delete", "u": 1}, {"op": "delete", "u": 0},
    {"op": "delete", "u": 2},
]
_FUZZ_CFGS = [
    {"graph": {"edges": [[0, 1], [1, 2]]}, "mode": "symbolic",
     "profile": {"0": [6, 2], "1": [4, 2], "2": [6, 2]},
     "steps": _FUZZ_STEPS},
    {"graph": {"edges": [[0, 1], [1, 2]]}, "mode": "concrete",
     "lists": {"0": [1, 2, 3, 4, 5, 6], "1": [1, 2, 3, 4],
               "2": [3, 4, 5, 6, 7, 8]},
     "demand": {"0": 2, "1": 2, "2": 2}, "steps": _FUZZ_STEPS},
]


def _paths(x, path=()):
    """Every key path into a JSON value, the root first."""
    yield path
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for k, y in items:
        yield from _paths(y, (*path, k))


def _at(x, path):
    for k in path:
        x = x[k]
    return x


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_schemes_run_fuzz(tmp_path_factory, data):
    """Drop a key, give a field a value of the wrong type, or make an int
    negative, anywhere in a valid config: exit 0, 1 or 2, no traceback.
    The configs as they stand complete (exit 0)."""
    cfg = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_CFGS)))
    how = data.draw(st.sampled_from(["keep", "drop", "retype", "negate"]))
    if how != "keep":
        paths = [p for p in _paths(cfg) if p
                 and (how != "negate" or _is_int(_at(cfg, p)))]
        *head, last = data.draw(st.sampled_from(paths))
        parent = _at(cfg, head)
        if how == "drop":
            del parent[last]
        elif how == "negate":
            parent[last] = -parent[last] or -1
        else:
            parent[last] = data.draw(st.sampled_from(
                [None, True, 1.5, "x", "1", [], [1], {}, {"0": 1}]))
    p = tmp_path_factory.mktemp("fuzz") / "scheme.json"
    p.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["schemes", "run", "--config", str(p)])
    assert rc in ((0,) if how == "keep" else (0, 1, 2)), (cfg, rc)
    assert "Traceback" not in err.getvalue()


# -- json reports: the layout of json.dumps(indent=2), from the C encoder ------

class _Dict(dict):
    pass


class _List(list):
    pass


_TRICKY = ["},\n      {", "\n", '"', '\\"}', "é", " ", "}, {"]
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 90, 2 ** 90),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                  -0.0]),
    st.text(max_size=6), st.sampled_from(_TRICKY))
_JSON_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(_TRICKY),
                       st.integers(), st.floats(), st.booleans(), st.none())
# an empty container is written alike at every depth, so it may sit in a
# flat container
_FLAT_DICTS = st.dictionaries(_JSON_KEYS, _JSON_SCALARS | st.sampled_from(
    [[], {}, ()]), max_size=4)


def _json_trees(kids):
    dicts = st.dictionaries(_JSON_KEYS, kids, max_size=4)
    return st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.lists(kids, max_size=4).map(_List), dicts,
        dicts.map(collections.OrderedDict), dicts.map(_Dict),
        # rows: a list of flat dicts, some of them empty or subclasses
        st.lists(st.one_of(_FLAT_DICTS, _FLAT_DICTS.map(_Dict)), max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=st.recursive(_JSON_SCALARS, _json_trees, max_leaves=30))
@example(tree={"rows": [{"a": 1, "b": "},\n      {"}, {"c": None}],
               "gaps": ["\n"]})
@example(tree=[{"a": 1}, {}])
@example(tree={"rows": [{"a": [], "b": {}}, {"c": ()}], "x": [[], {"y": {}}]})
@example(tree=(_Dict(a=(1, [])), collections.OrderedDict(b=_List([{}]))))
@example(tree={None: [], True: {"x": []}, 1.5: [[]], float("nan"): [{}],
               -0.0: [1], 10 ** 30: [{"k": -float("inf")}]})
def test_dumps_is_indent_2(tree):
    assert cli._dumps(tree) == json.dumps(tree, indent=2)


def test_dumps_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(cli, "c_make_encoder", None)
    tree = {"rows": [{"a": 1}], 1: [float("nan")]}
    assert cli._dumps(tree) == json.dumps(tree, indent=2)


def _layout_argvs(tmp_path):
    """One small input for each command that writes a json report."""
    c4, c5, cube = (tmp_path / "c4.json", tmp_path / "c5.json",
                    tmp_path / "cube.json")
    c4.write_text(cycle_graph(4).to_json())
    c5.write_text(cycle_graph(5).to_json())
    cube.write_text(cube_graph().to_json())
    sym, conc = tmp_path / "sym.json", tmp_path / "conc.json"
    sym.write_text(json.dumps(dict(SYMBOLIC_CFG, steps=[
        {"op": "save", "u": 0, "v": 1, "k": 1}, *SYMBOLIC_CFG["steps"]])))
    conc.write_text(json.dumps(CONCRETE_CFG))
    return [
        ["verify-claims", "--claim", "star", "--literal"],
        ["check-choosability", "--graph", str(c4), "--f", "2", "--g", "1"],
        ["check-choosability", "--graph", str(c5), "--f", "2", "--g", "1"],
        ["check-choosability", "--graph", str(c5), "--a", "5", "--b", "2",
         "--colorable"],
        ["discharge", "--graph", str(cube)],
        ["audit", "families"], ["audit", "observations"],
        ["audit", "ineq6plus", "--dmax", "8"], ["audit", "case-ledger"],
        ["audit", "four-face"],
        ["schemes", "run", "--config", str(sym)],
        ["schemes", "run", "--config", str(conc)],
    ]


def test_json_reports_have_the_indent_2_layout(tmp_path, capsys):
    """The layout contract, whichever encoder writes it."""
    for argv in _layout_argvs(tmp_path):
        main([*argv, "--report", "json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
