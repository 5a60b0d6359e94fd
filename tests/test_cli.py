import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from chooselab.cli import main
from chooselab.plane import cube_graph, cycle_graph


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


@pytest.mark.parametrize("a, b", [("3", "5"), ("3", "0")])
def test_colorable_bad_a_b(capsys, c5_file, a, b):
    _assert_input_error(main(["check-choosability", "--graph", c5_file,
                              "--colorable", "--a", a, "--b", b]), capsys)


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
                                  {str(v): [2] for v in range(5)}],
                         ids=["missing", "extra", "array", "list-value"])
def test_bad_f_map_rejected(tmp_path, capsys, c5_file, fmap):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(fmap))
    _assert_input_error(main(["check-choosability", "--graph", c5_file,
                              "--f", str(p), "--g", "1"]), capsys)


@pytest.mark.parametrize("spec", [
    {"edges": [[0]]}, {"edges": 5}, {"edges": [["a", "b"]]},
    {"edges": [[0, None]]}, {"rotations": [1, 2]}, {"rotations": {"0": 5}},
    {"rotations": {"x": [1]}}, {"edges": [[0, 1]], "vertices": 3}, [1, 2], 5])
def test_malformed_graph_rejected(tmp_path, capsys, spec):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(spec))
    _assert_input_error(main(["check-choosability", "--graph", str(p),
                              "--colorable", "--a", "2", "--b", "1"]), capsys)


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
