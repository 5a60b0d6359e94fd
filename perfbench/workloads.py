"""The four workloads: inputs made from a seed, the operations of one
session, the units of work a session does, and the checks on every output.

An operation is timed as a user would see it: a `chooselab` command run
in-process through `chooselab.cli.main`, reading its inputs from files, or,
where the CLI has no command, a public function fed from files.  Graphs are
read and built again by every operation, so no graph cache carries over.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import graphs
import oracles
from oracles import Mismatch

HERE = Path(__file__).resolve().parent
GOLDEN_AUDITS = HERE / "golden" / "audits.json"

# their findings and counts are pinned in golden/audits.json
AUDIT_COMMANDS = (
    ("audit", "families"),
    ("audit", "observations"),
    ("audit", "case-ledger"),
    ("audit", "four-face"),
    ("audit", "ineq6plus", "--dmax", "8"),
    ("audit", "ineq6plus", "--dmax", "12"),
    ("audit", "ineq6plus", "--dmax", "20"),
)
# five graphs of 500 vertices sit between the five lighter and the five
# heavier operations, so command_p50_ms is the median of all their runs and
# no single seeded graph's speed sets it
DISCHARGE_SIZES = (250, 500, 500, 500, 500, 500, 1000, 2000)

# (name, graph kind, size, f, g, verdict, reason); every verdict is a theorem
LIST_CASES = (
    ("C5", "cycle", 5, 2, 1, False, "odd cycle, not 2-colourable"),
    ("K2,4", "kab", (2, 4), 2, 1, False,
     "Erdos-Rubin-Taylor: core K2,4 is not K1, C2k or theta(2,2,2k)"),
    ("C4", "cycle", 4, 2, 1, True, "Erdos-Rubin-Taylor: even cycle"),
    ("K2,3", "kab", (2, 3), 2, 1, True, "Erdos-Rubin-Taylor: theta(2,2,2)"),
    ("C4", "cycle", 4, 3, 1, True, "2-choosable, so 3-choosable"),
    ("K1,3", "kab", (1, 3), 3, 1, True, "tree"),
    ("P3", "path", 3, 4, 2, True, "Tuza-Voigt: 2-choosable gives (2m,m), m=2"),
)
KEY_LEMMA_CASES = (("P2", 2), ("P3", 3))      # (case, vertices); lists of 7, demand 4

COLORING_SIZES = (300, 450, 600)            # below the find_coloring recursion limit
CONCRETE_PER_VARIANT = 5


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    name: str
    unit: str
    ops: list[Op]
    units: int = 0                 # units of work in one session
    # set from the first session when a count is only known from the output
    units_from_output: Callable[[list], int] | None = None


# -- helpers ----------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`chooselab ARGV` in-process: (exit code, stdout)."""
    from chooselab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cli_op(label: str, argv: list[str], check: Callable[[Any], None]) -> Op:
    return Op(label, lambda: run_cli(argv), check)


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# -- catalog ------------------------------------------------------------------


def _branch_points(steps: list[dict]) -> list[int]:
    return [s.get("k", 1) for s in steps
            if s["op"] in ("pair_save", "assume_three_sets")]


def catalog(seed: int, tmp: Path) -> Workload:
    """verify-claims at m = 1, 2, 3; all-split replays at m = 1..5; concrete
    `schemes run` replays on seeded list assignments (m = 1, the scale the
    concrete engine runs at)."""
    from chooselab import claims, reduction

    rng = random.Random(seed)
    variants = [(c["id"], name) for c in claims.list_claims()
                for name in c["variants"]]
    schemes, literals, edge_sets = {}, {}, {}
    for cid, name in variants:
        bv = claims.build_claim(cid, name)
        schemes[cid, name] = [reduction.step_to_json(s) for s in bv.scheme]
        literals[cid, name] = [reduction.step_to_json(s)
                               for s in bv.literal or []]
        edge_sets[cid, name] = bv.graph.edges()

    # reference verdicts: the first report of the run
    _, out0 = run_cli(["verify-claims", "--report", "json"])
    ref = {(c["claim"], v["variant"]): v for c in json.loads(out0)["claims"]
           for v in c["variants"]}
    free = [key for key in variants
            if ref[key]["legal"] and ref[key]["exhaustive"]
            and not ref[key]["assumptions"]]

    ops: list[Op] = []
    units = 0
    first_bytes: dict[int, str] = {}

    def check_report(m):
        def check(result):
            rc, out = result
            digest = hashlib.sha256(out.encode()).hexdigest()
            _expect(first_bytes.setdefault(m, digest) == digest,
                    f"verify-claims m={m}: report differs between sessions")
            data = json.loads(out)
            _expect(rc == (0 if data["passed"] else 1),
                    f"verify-claims m={m}: exit {rc} with passed={data['passed']}")
            for c in data["claims"]:
                for v in c["variants"]:
                    key = (c["claim"], v["variant"])
                    _expect(v["triangle_free"]
                            and not oracles.has_triangle(edge_sets[key]),
                            f"{key}: host graph has a triangle")
                    for field_ in ("legal", "exhaustive", "passed"):
                        _expect(v[field_] == ref[key][field_],
                                f"{key}: {field_} changes with the scale (m={m})")
        return check

    for m in (1, 2, 3):
        ops.append(cli_op(f"verify-claims m={m}",
                          ["verify-claims", "--report", "json", "--scale", str(m)],
                          check_report(m)))
        for key in variants:
            units += 3 ** len(_branch_points(schemes[key]))
            if literals[key]:
                units += 3 ** len(_branch_points(literals[key]))

    def all_splits(m):
        def run():
            out = {}
            for cid, name in variants:
                bv = claims.build_claim(cid, name)
                state = claims.initial_state(bv, m)
                tr = reduction.run_scheme_all_splits(state, bv.scheme, m)
                out[cid, name] = (tr.legal, tr.exhaustive, len(tr.branches))
            return out

        def check(out):
            for key, (legal, exhaustive, n) in out.items():
                _expect(n == want[key], f"{key} m={m}: {n} split branches, "
                        f"expected {want[key]}")
                _expect((legal, exhaustive)
                        == (ref[key]["legal"], ref[key]["exhaustive"]),
                        f"{key} m={m}: all-split verdict differs from corners")
        want = {key: math.prod((k * m + 1) * (k * m + 2) // 2
                               for k in _branch_points(schemes[key]))
                for key in variants}
        return Op(f"all-splits m={m}", run, check), sum(want.values())

    for m in range(1, 6):
        op, n = all_splits(m)
        ops.append(op)
        units += n

    def check_concrete(result):
        rc, out = result
        _expect(rc == 0 and json.loads(out)["completed"] is True,
                "a legal, assumption-free scheme did not complete concretely")

    for cid, name in free:
        bv = claims.build_claim(cid, name)
        state = claims.initial_state(bv, 1)
        graph = {"vertices": bv.graph.vertices,
                 "edges": [list(e) for e in bv.graph.edges()]}
        big = max(state.lo.values())
        paths = []
        for i in range(CONCRETE_PER_VARIANT):
            pool = range(1, big + rng.randrange(0, big + 1) + 1)
            cfg = {"graph": graph, "mode": "concrete",
                   "steps": schemes[cid, name],
                   "lists": {str(v): sorted(rng.sample(pool, state.lo[v]))
                             for v in sorted(state.lo)},
                   "demand": {str(v): state.g[v] for v in sorted(state.g)}}
            paths.append(_write(tmp / f"scheme-{len(ops)}-{i}.json", cfg))
        def run(paths=paths):
            return [run_cli(["schemes", "run", "--config", p, "--report", "json"])
                    for p in paths]

        def check(results):
            for r in results:
                check_concrete(r)
        ops.append(Op(f"schemes run {cid}/{name} x{len(paths)}", run, check))
        units += len(paths)
    return Workload("catalog", "scheme branches replayed", ops, units)


# -- audits ---------------------------------------------------------------------


def audit_outputs() -> dict:
    """Today's audit outputs, as pinned in golden/audits.json."""
    out = {}
    for argv in AUDIT_COMMANDS:
        rc, text = run_cli([*argv, "--report", "json"])
        data = json.loads(text)
        data.pop("schema", None)
        out[" ".join(argv)] = {"exit": rc, **data}
    return out


def audits(seed: int, tmp: Path) -> Workload:
    """The rule-table audits and `discharge` on seeded plane graphs."""
    rng = random.Random(seed)
    golden = json.loads(GOLDEN_AUDITS.read_text())
    ops = []

    def check_audit(key):
        def check(result):
            rc, out = result
            want = golden[key]
            data = json.loads(out)
            _expect(rc == want["exit"], f"{key}: exit {rc}")
            for k, v in want.items():
                if k != "exit":
                    _expect(data.get(k) == v, f"{key}: {k} differs from golden")
        return check

    for argv in AUDIT_COMMANDS:
        key = " ".join(argv)
        ops.append(cli_op(key, [*argv, "--report", "json"], check_audit(key)))

    for i, n in enumerate(DISCHARGE_SIZES):
        spec = graphs.relabel(rng, graphs.triangle_free_plane_graph(rng, n))
        edges = graphs.edges_of(spec)
        path = _write(tmp / f"plane-{i}.json", spec)

        def check(result, vertices=spec["vertices"], edges=edges):
            rc, out = result
            data = json.loads(out)
            _expect(rc == 0 and data["conserved"], "discharge: not conserved")
            oracles.check_ledger(vertices, edges, data)
        ops.append(cli_op(f"discharge n={n} #{i}",
                          ["discharge", "--graph", path, "--report", "json"], check))
    return Workload("audits", "commands to verdict", ops, len(ops))


# -- lists --------------------------------------------------------------------


def _small_graph(kind: str, size) -> list[tuple[int, int]]:
    if kind == "cycle":
        return [(i, (i + 1) % size) for i in range(size)]
    if kind == "path":
        return [(i, i + 1) for i in range(size - 1)]
    a, b = size
    return [(i, a + j) for i in range(a) for j in range(b)]


def lists(seed: int, tmp: Path) -> Workload:
    """check-choosability on graphs whose verdicts are theorems, and the
    key-lemma P2 and P3 sweeps."""
    rng = random.Random(seed)
    ops = []
    units = 0
    for name, kind, size, f, g, expect, why in LIST_CASES:
        edges = _small_graph(kind, size)
        n = 1 + max(max(e) for e in edges)
        if expect:
            # a "yes" decides every class, whatever the labels; a "no" stops
            # at a label-dependent witness, so its graph keeps fixed labels
            ids = rng.sample(range(60), n)
            edges = [(ids[u], ids[v]) if rng.random() < 0.5 else (ids[v], ids[u])
                     for u, v in edges]
            rng.shuffle(edges)
        vertices = sorted({x for e in edges for x in e})
        path = _write(tmp / f"small-{len(ops)}.json", {"edges": edges})
        total = oracles.count_classes(n, f)

        def check(result, name=name, f=f, g=g, expect=expect, why=why,
                  vertices=vertices, edges=edges, total=total):
            rc, out = result
            data = json.loads(out)
            _expect(data["choosable"] is expect and rc == (0 if expect else 1),
                    f"{name} ({f},{g}): verdict {data['choosable']} against "
                    f"theory ({why})")
            if expect:
                _expect(data["checked"] == total,
                        f"{name} ({f},{g}): checked {data['checked']}, "
                        f"independent count {total}")
            else:
                _expect(1 <= data["checked"] <= total, f"{name}: checked out of range")
                witness = {int(v): c for v, c in data["witness"].items()}
                oracles.check_no_witness(vertices, edges, f, g, witness)
        ops.append(cli_op(f"check-choosability {name} ({f},{g})",
                          ["check-choosability", "--graph", path, "--f", str(f),
                           "--g", str(g), "--report", "json"], check))
        if expect:
            units += total

    def key_lemma_op(case, n):
        total = oracles.count_classes(n, 7)

        def run():
            from chooselab import key_lemma
            return key_lemma.verify_case(case)

        def check(rep):
            _expect(not rep.counterexamples, f"key lemma {case}: counterexamples")
            _expect(rep.classes_total == total and not rep.sampled,
                    f"key lemma {case}: {rep.classes_total} classes, "
                    f"independent count {total}")
        return Op(f"key-lemma {case}", run, check), total

    for case, n in KEY_LEMMA_CASES:
        op, total = key_lemma_op(case, n)
        ops.append(op)
        units += total

    def no_units(results):
        # a "no" decides the classes up to and including its witness
        return sum(json.loads(out)["checked"]
                   for (_, out), case in zip(results, LIST_CASES) if not case[5])
    return Workload("lists", "canonical classes decided", ops, units,
                    units_from_output=no_units)


# -- colorings ----------------------------------------------------------------


def colorings(seed: int, tmp: Path) -> Workload:
    """find_coloring on seeded (15m, 4m) list assignments, m = 1, 2, and
    check-choosability --colorable."""
    rng = random.Random(seed)
    ops = []
    units = 0
    for n in COLORING_SIZES:
        spec = graphs.relabel(rng, graphs.triangle_free_plane_graph(rng, n))
        gpath = _write(tmp / f"plane-{n}.json", spec)
        edges = graphs.edges_of(spec)
        for m in (1, 2):
            palette = range(1, 24 * m + 1)
            lst = {v: sorted(rng.sample(palette, 15 * m)) for v in spec["vertices"]}
            lpath = _write(tmp / f"lists-{n}-{m}.json", lst)

            def run(gpath=gpath, lpath=lpath, m=m):
                from chooselab import multicolor, plane
                G = plane.build_plane_graph(json.loads(Path(gpath).read_text()))
                L = {int(v): frozenset(c)
                     for v, c in json.loads(Path(lpath).read_text()).items()}
                return multicolor.find_coloring(G, L, {v: 4 * m for v in L})

            def check(col, vertices=spec["vertices"], edges=edges, lst=lst, m=m):
                oracles.check_coloring(vertices, edges, lst,
                                       {v: 4 * m for v in vertices}, col)
            ops.append(Op(f"find_coloring n={n} m={m}", run, check))
            units += n

        def check(result):
            rc, out = result
            _expect(rc == 0 and json.loads(out)["colorable"] is True,
                    "no (32,4)-colouring found; greedy gives one at max degree 7")
        # 32 = 4 (max degree 7 + 1), so no branch of the search can fail.  At
        # (15, 4) and (30, 8) one shared palette makes the search backtrack
        # exponentially on a few seeded graphs (see CHANGES.md).
        ops.append(cli_op(f"colorable n={n} (32,4)",
                          ["check-choosability", "--graph", gpath, "--a", "32",
                           "--b", "4", "--colorable", "--report", "json"], check))
        units += n
    return Workload("colorings", "vertices coloured", ops, units)


WORKLOADS = {"catalog": catalog, "audits": audits, "lists": lists,
             "colorings": colorings}
