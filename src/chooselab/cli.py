"""Command-line entry point.

    chooselab verify-claims [--claim ID] [--literal] [--strict] [--scale M]
    chooselab check-choosability --graph FILE (--f N --g N | --a N --b N --colorable)
    chooselab discharge --graph FILE [--report json|text]
    chooselab audit {families,observations,ineq6plus,case-ledger,four-face,key-lemma} ...
    chooselab schemes run --config FILE

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import claims as claims_mod
from . import discharging, key_lemma
from .multicolor import TooLarge, choosable, colorable_ab
from .plane import GraphError, NotEmbedded, build_plane_graph
from .reduction import (ConcreteState, SchemeError, SymbolicState,
                        run_scheme, run_scheme_concrete, step_from_json)

SCHEMA_VERSION = 1
# symbolic `schemes run` replays 3^n corner branches for n branch points and
# holds them all before printing; the catalog's schemes have at most 2
MAX_BRANCH_POINTS = 8


def _load_graph(path: str):
    with open(path) as fh:
        return build_plane_graph(json.load(fh))


def _int_or_map(spec: str):
    try:
        return int(spec)
    except ValueError:
        with open(spec) as fh:
            data = json.load(fh)
        if not (isinstance(data, dict) and all(map(_is_int, data.values()))):
            raise ValueError(f"{spec} is not a JSON object of ints") from None
        return {int(v): n for v, n in data.items()}


def _bad_demand(name: str, x, G) -> str | None:
    """Why an f or g value (an int or a vertex map) is not usable on G."""
    if isinstance(x, dict) and set(x) != set(G.vertices):
        return f"the --{name} map must give a value for each vertex of the graph"
    if min([x] if isinstance(x, int) else x.values(), default=0) < 0:
        return f"--{name} must not be negative"
    return None


_NESTED = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(pad: str):
    """A C encoder whose item separator starts a new line indented by pad."""
    return c_make_encoder(None, json.JSONEncoder().default,
                          encode_basestring_ascii, None, ": ", ",\n" + pad,
                          False, False, True)


def _flat(values) -> bool:
    """No value is a non-empty container; an empty one reads alike anywhere."""
    return _SCALARS.issuperset(map(type, values)) or not any(
        isinstance(v, _NESTED) and v for v in values)


def _dumps(x, pad: str = "") -> str:
    """json.dumps(x, indent=2), byte for byte, mostly from the C encoder.

    A flat container, or a list of non-empty flat dicts (the ledger's rows),
    is one C call.  The C encoder escapes every newline inside a string, so
    a row boundary "},<newline><pad>{" can only come from a separator."""
    if c_make_encoder is None:
        return json.dumps(x, indent=2)
    if not isinstance(x, _NESTED) or not x:
        return "".join(_encoder("")(x, 0))
    inner, enc = pad + "  ", _encoder(pad + "  ")
    if _flat(x.values() if isinstance(x, dict) else x):
        s = "".join(enc(x, 0))
        return f"{s[0]}\n{inner}{s[1:-1]}\n{pad}{s[-1]}"
    if isinstance(x, dict):  # a one-item dict gives a key as json writes it
        parts = [(encode_basestring_ascii(k) if isinstance(k, str)
                  else "".join(enc({k: 0}, 0))[1:-4]) + ": " + _dumps(v, inner)
                 for k, v in x.items()]
    elif {dict}.issuperset(map(type, x)) and all(x) and _flat(
            list(itertools.chain.from_iterable(map(dict.values, x)))):
        row = inner + "  "
        s = "".join(_encoder(row)(x, 0))[2:-2].replace(
            "},\n" + row + "{", f"\n{inner}}},\n{inner}{{\n{row}")
        return f"[\n{inner}{{\n{row}{s}\n{inner}}}\n{pad}]"
    else:
        parts = [_dumps(v, inner) for v in x]
    o, c = "{}" if isinstance(x, dict) else "[]"
    return f"{o}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{c}"


def _emit(data: dict, fmt: str, text: str | None = None) -> None:
    if fmt == "json":
        print(_dumps({"schema": SCHEMA_VERSION, **data}))
    else:
        print(text if text is not None else _dumps(data))


def _bad_scale(args) -> bool:
    """Every bound is a multiple of m, so m < 1 would pass claims vacuously."""
    if args.scale >= 1:
        return False
    print(f"--scale must be at least 1, not {args.scale}", file=sys.stderr)
    return True


def cmd_verify_claims(args) -> int:
    if _bad_scale(args):
        return 2
    try:
        if args.claim:
            reports = [claims_mod.verify_claim(args.claim, m=args.scale)]
            summary = claims_mod.CatalogSummary(reports=reports)
        else:
            summary = claims_mod.verify_all(m=args.scale)
    except claims_mod.UnknownClaim as exc:
        print(f"unknown claim: {exc}", file=sys.stderr)
        return 2
    failed = not summary.passed
    if args.literal and args.strict:
        failed = failed or any(
            v.literal_trace is not None and not v.literal_trace.legal
            for rep in summary.reports for v in rep.variants)
    _emit(summary.as_dict(), args.report, summary.text())
    return 1 if failed else 0


def cmd_check_choosability(args) -> int:
    try:
        G = _load_graph(args.graph)
    except (OSError, GraphError, json.JSONDecodeError) as exc:
        print(f"bad graph input: {exc}", file=sys.stderr)
        return 2
    if args.colorable:
        if args.a is None or args.b is None:
            print("--colorable needs --a and --b", file=sys.stderr)
            return 2
        try:
            ok = colorable_ab(G, args.a, args.b)
        except ValueError as exc:
            print(f"bad input: {exc}", file=sys.stderr)
            return 2
        _emit({"colorable": ok, "a": args.a, "b": args.b}, args.report,
              f"({args.a},{args.b})-colorable: {'yes' if ok else 'no'}")
        return 0 if ok else 1
    if args.f is None or args.g is None:
        print("need --f and --g (or --a/--b with --colorable)", file=sys.stderr)
        return 2
    try:
        f = _int_or_map(args.f)
        g = _int_or_map(args.g)
    except (OSError, ValueError, TypeError) as exc:
        print(f"bad f/g spec: {exc}", file=sys.stderr)
        return 2
    for name, x in (("f", f), ("g", g)):
        if (why := _bad_demand(name, x, G)) is not None:
            print(f"bad f/g spec: {why}", file=sys.stderr)
            return 2
    try:
        verdict = choosable(G, f, g, max_vectors=args.max_vectors)
    except TooLarge as exc:
        print(f"TooLarge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    data = {"choosable": verdict.ok, "checked": verdict.checked}
    text = f"({args.f},{args.g})-choosable: {'yes' if verdict.ok else 'no'}"
    if verdict.witness is not None:
        data["witness"] = {str(v): sorted(c) for v, c in verdict.witness.items()}
        text += "\nwitness: " + json.dumps(data["witness"])
    _emit(data, args.report, text)
    return 0 if verdict.ok else 1


def cmd_discharge(args) -> int:
    try:
        G = _load_graph(args.graph)
        ledger = discharging.final_charges(G)
    except (OSError, GraphError, json.JSONDecodeError, NotEmbedded) as exc:
        print(f"bad graph input: {exc}", file=sys.stderr)
        return 2
    if args.report == "json":
        _emit(ledger.as_dict(), "json")
    else:
        tw = discharging.twelfths_str
        lines = [f"{r['element']:>6}  initial {tw(r['initial']):>6}"
                 f"  in {tw(r['in']):>6}  out {tw(r['out']):>6}"
                 f"  final {tw(r['final']):>6}"
                 + ("   <0" if r["final"] < 0 else "")
                 for r in ledger.rows]
        lines.append(f"total: {tw(ledger.total_final)} "
                     f"(conserved: {ledger.conserved})")
        lines.extend(f"note: {gap}" for gap in ledger.gaps)
        print("\n".join(lines))
    return 0 if ledger.conserved else 1


def cmd_audit(args) -> int:
    which = args.what
    findings = []
    data: dict = {"audit": which}
    if which == "families":
        findings, catch_all = discharging.audit_family_partition()
        data["catch_all_patterns"] = catch_all
    elif which == "observations":
        findings = discharging.audit_transfer_observations()
    elif which == "ineq6plus":
        # the audit checks the negative d = 6 cases and the tight d = 7 one;
        # its work grows as dmax^5
        if not 7 <= args.dmax <= 50:
            print(f"--dmax must be in 7..50, not {args.dmax}",
                  file=sys.stderr)
            return 2
        findings = discharging.audit_inequality_6plus(args.dmax)
        data["dmax"] = args.dmax
    elif which == "case-ledger":
        findings = discharging.audit_case_ledger()
    elif which == "four-face":
        findings, surviving, excluded = discharging.sweep_4face()
        data["surviving"] = surviving
        data["excluded"] = excluded
    elif which == "key-lemma":
        try:
            reports = key_lemma.verify_all_cases()
        except (TooLarge, ValueError) as exc:
            print(f"bad input: {exc}", file=sys.stderr)
            return 2
        data["cases"] = [r.as_dict() for r in reports]
        for r in reports:
            for ce in r.counterexamples:
                findings.append(discharging.Finding("key-lemma",
                                                    f"{r.case}: {ce}"))
    data["findings"] = [f.as_dict() for f in findings]
    text = "\n".join(f"{f.audit}: {f.detail}" for f in findings) or \
        f"audit {which}: no findings"
    _emit(data, args.report, text)
    if findings and which == "four-face" and args.lenient:
        return 0
    return 1 if findings else 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _nat(x) -> bool:
    return _is_int(x) and x >= 0


def _vertex_map(cfg: dict, key: str, ok, what: str) -> dict:
    """cfg[key]: a JSON object from vertices to values that pass `ok`."""
    data = cfg[key]
    if not (isinstance(data, dict) and all(map(ok, data.values()))):
        raise ValueError(f"{key!r} must map each vertex to {what}")
    return {int(v): x for v, x in data.items()}


def cmd_schemes_run(args) -> int:
    if _bad_scale(args):
        return 2
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        G = build_plane_graph(cfg["graph"])
        steps = [step_from_json(d) for d in cfg["steps"]]
        mode = cfg.get("mode", "symbolic")
        if mode == "symbolic":
            prof = _vertex_map(cfg, "profile", lambda fg: isinstance(fg, list)
                               and len(fg) == 2 and all(map(_nat, fg)),
                               "a pair [f, g] of ints >= 0")
            points = sum(s.branch_point for s in steps)
            if points > MAX_BRANCH_POINTS:
                raise ValueError(f"{points} branch points would replay "
                                 f"3^{points} corner branches; at most "
                                 f"{MAX_BRANCH_POINTS} are allowed")
        elif mode == "concrete":
            lists = _vertex_map(cfg, "lists", lambda c: isinstance(c, list)
                                and all(map(_is_int, c)),
                                "a list of int colors")
            demand = _vertex_map(cfg, "demand", _nat, "an int >= 0")
            if set(demand) != set(lists):
                raise ValueError("'demand' and 'lists' must name the same vertices")
        else:
            raise ValueError(f"mode must be symbolic or concrete, not {mode!r}")
    except KeyError as exc:
        print(f"bad scheme config: missing key {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError, AttributeError, GraphError) as exc:
        print(f"bad scheme config: {exc}", file=sys.stderr)
        return 2
    try:
        if mode == "symbolic":
            state = SymbolicState.from_profile(G, prof, m=args.scale)
            trace = run_scheme(state, steps, m=args.scale)
        else:
            state = ConcreteState.from_assignment(
                G, {v: frozenset(c) for v, c in lists.items()}, demand)
            final = run_scheme_concrete(state, steps)
    except (SchemeError, GraphError) as exc:
        print(f"bad scheme: {exc}", file=sys.stderr)
        return 2
    if mode == "symbolic":
        _emit(trace.as_dict(), args.report)
        return 0 if trace.legal and trace.exhaustive else 1
    ok = final is not None
    _emit({"completed": ok}, args.report,
          "scheme completed" if ok else "no concrete choices complete the scheme")
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chooselab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--report", choices=("json", "text"), default="text")

    sp = sub.add_parser("verify-claims", help="run the configuration catalog")
    sp.add_argument("--claim")
    sp.add_argument("--literal", action="store_true",
                    help="with --strict, a failing printed (literal) scheme "
                         "exits 1; such failures are reported either way")
    sp.add_argument("--strict", action="store_true",
                    help="with --literal, literal-scheme failures affect "
                         "the exit code")
    sp.add_argument("--scale", type=int, default=1, metavar="M")
    add_common(sp)
    sp.set_defaults(func=cmd_verify_claims)

    sp = sub.add_parser("check-choosability", help="exhaustive (f,g) verdicts")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--f", help="uniform integer or a JSON file {vertex: n}")
    sp.add_argument("--g", help="uniform integer or a JSON file {vertex: n}")
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--colorable", action="store_true")
    sp.add_argument("--max-vectors", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_check_choosability)

    sp = sub.add_parser("discharge", help="exact charge ledger for a graph")
    sp.add_argument("--graph", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_discharge)

    sp = sub.add_parser("audit", help="rule-table and inequality audits")
    sp.add_argument("what", choices=("families", "observations", "ineq6plus",
                                     "case-ledger", "four-face", "key-lemma"))
    sp.add_argument("--dmax", type=int, default=12)
    sp.add_argument("--lenient", action="store_true",
                    help="four-face findings become warnings")
    add_common(sp)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("schemes", help="scheme utilities")
    ssub = sp.add_subparsers(dest="scmd", required=True)
    sp2 = ssub.add_parser("run", help="run a scheme file")
    sp2.add_argument("--config", required=True)
    sp2.add_argument("--scale", type=int, default=1)
    add_common(sp2)
    sp2.set_defaults(func=cmd_schemes_run)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main rather than at import, so
    a cold start does not pay for it; in-process callers then reuse it."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
