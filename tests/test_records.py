"""What every record type of the package promises, whatever builds it.

Each case gives a type, its required fields, the values its defaulted
fields take when left out, the exact repr of a full instance, and whether
the type is frozen.  Frozen types hash the tuple of their fields, so set
and dict orders, and every report built from them, stay put.
"""

import copy
import pickle

import pytest

from chooselab.claims import (BuiltVariant, CatalogSummary, ClaimReport,
                              VariantReport)
from chooselab.discharging import (ClassSpec, Finding, Ledger, RuleOutput,
                                   Scenario, TransferRecord)
from chooselab.key_lemma import CaseReport
from chooselab.multicolor import (ChoosableVerdict, EdgeConflict, NotInList,
                                  SizeShort)
from chooselab.nice import ComponentInfo, NiceProfile
from chooselab.plane import DegreeClass, Face
from chooselab.reduction import (AssumeSet, AssumeThreeSets, BranchTrace,
                                 Color, ConcreteState, Delete, PairSave, Save,
                                 SchemeError, SchemeTrace, SetVar, StepRecord,
                                 SymbolicState, _Json)

FROZEN, MUTABLE = True, False

# (type, required fields, defaulted fields with their defaults, repr, frozen)
CASES = [
    (Face, {"boundary": ((0, 1), (1, 0))}, {},
     "Face(boundary=((0, 1), (1, 0)))", FROZEN),
    (DegreeClass, {"d": 4, "t": 1}, {}, "DegreeClass(d=4, t=1)", FROZEN),
    (ComponentInfo, {"kind": "P2", "vertices": (0, 1)}, {},
     "ComponentInfo(kind='P2', vertices=(0, 1))", FROZEN),
    (NiceProfile, {"core": frozenset({0}), "frontier": frozenset(),
                   "components": [], "f": {0: 7}, "g": {0: 4},
                   "trivially_unchoosable": []}, {},
     "NiceProfile(core=frozenset({0}), frontier=frozenset(), components=[], "
     "f={0: 7}, g={0: 4}, trivially_unchoosable=[])", MUTABLE),
    (SizeShort, {"v": 1}, {}, "SizeShort(v=1)", FROZEN),
    (NotInList, {"v": 1}, {}, "NotInList(v=1)", FROZEN),
    (EdgeConflict, {"u": 0, "v": 1}, {}, "EdgeConflict(u=0, v=1)", FROZEN),
    (ChoosableVerdict, {"ok": True}, {"witness": None, "checked": 0},
     "ChoosableVerdict(ok=True, witness=None, checked=0)", MUTABLE),
    (SetVar, {"size": 1, "containers": frozenset({0}), "avoids": frozenset()},
     {}, "SetVar(size=1, containers=frozenset({0}), avoids=frozenset())",
     FROZEN),
    (SymbolicState, {"adj": {0: ()}, "live": {0}, "lo": {0: 4}, "hi": {0: 4},
                     "g": {0: 4}}, {"setvars": {}, "hits": set()},
     "SymbolicState(adj={0: ()}, live={0}, lo={0: 4}, hi={0: 4}, g={0: 4}, "
     "setvars={}, hits=set())", MUTABLE),
    (ConcreteState, {"adj": {0: ()}, "live": {0}, "lists": {0: frozenset()},
                     "g": {0: 1}}, {"sets": {}},
     "ConcreteState(adj={0: ()}, live={0}, lists={0: frozenset()}, "
     "g={0: 1}, sets={})", MUTABLE),
    (StepRecord, {"step": "<0>", "check": "c", "lhs": 1, "rhs": 2,
                  "verdict": "legal"}, {"detail": ""},
     "StepRecord(step='<0>', check='c', lhs=1, rhs=2, verdict='legal', "
     "detail='')", MUTABLE),
    (BranchTrace, {"corners": ("S",)}, {"records": [], "all_deleted": False},
     "BranchTrace(corners=('S',), records=[], all_deleted=False)", MUTABLE),
    (SchemeTrace, {"branches": []}, {"flags": []},
     "SchemeTrace(branches=[], flags=[])", MUTABLE),
    (_Json, {"what": "w", "ok": bool, "decode": max, "encode": list,
             "omit_empty": True}, {},
     "_Json(what='w', ok=<class 'bool'>, decode=<built-in function max>, "
     "encode=<class 'list'>, omit_empty=True)", FROZEN),
    (Delete, {"u": 3}, {"assume": None}, "Delete(u=3, assume=None)", FROZEN),
    (Save, {"u": 0, "v": 1}, {"k": 1, "assume": None},
     "Save(u=0, v=1, k=1, assume=None)", FROZEN),
    (PairSave, {"u1": 0, "u2": 1, "v": 2}, {"k": 1, "assume": None},
     "PairSave(u1=0, u2=1, v=2, k=1, assume=None)", FROZEN),
    (Color, {"phi": ((0, ("A",)),)}, {"assume": None},
     "Color(phi=((0, ('A',)),), assume=None)", FROZEN),
    (AssumeSet, {"name": "A", "size": 1, "subset_of": (0,)},
     {"avoids": (), "avoid_sets": (), "disjoint_from": (), "tag": ""},
     "AssumeSet(name='A', size=1, subset_of=(0,), avoids=(), avoid_sets=(), "
     "disjoint_from=(), tag='')", FROZEN),
    (AssumeThreeSets, {"s_name": "S", "t_name": "T", "r_name": "R", "a": 0,
                       "b": 1, "c": 2},
     {"k": 1, "minus": (), "z_cap": None, "s_avoids_c": True, "tag": ""},
     "AssumeThreeSets(s_name='S', t_name='T', r_name='R', a=0, b=1, c=2, "
     "k=1, minus=(), z_cap=None, s_avoids_c=True, tag='')", FROZEN),
    (BuiltVariant, {"claim_id": "c", "name": "n", "graph": None,
                    "h": frozenset(), "labels": {}, "golden_profile": None,
                    "state_override": None, "scheme": [], "literal": None,
                    "nice_expected": True}, {},
     "BuiltVariant(claim_id='c', name='n', graph=None, h=frozenset(), "
     "labels={}, golden_profile=None, state_override=None, scheme=[], "
     "literal=None, nice_expected=True)", MUTABLE),
    (VariantReport, {"claim_id": "c", "name": "n", "triangle_free": True,
                     "nice": True, "nice_reason": "nice",
                     "nice_as_expected": True, "profile_ok": None,
                     "profile_diffs": [], "trace": None,
                     "literal_trace": None}, {},
     "VariantReport(claim_id='c', name='n', triangle_free=True, nice=True, "
     "nice_reason='nice', nice_as_expected=True, profile_ok=None, "
     "profile_diffs=[], trace=None, literal_trace=None)", MUTABLE),
    (ClaimReport, {"claim_id": "c", "anchor": "a", "variants": []},
     {"notes": ""},
     "ClaimReport(claim_id='c', anchor='a', variants=[], notes='')", MUTABLE),
    (CatalogSummary, {"reports": []}, {"skipped": []},
     "CatalogSummary(reports=[], skipped=[])", MUTABLE),
    (CaseReport, {"case": "P2", "classes_total": 8, "classes_colorable": 8},
     {"counterexamples": [], "sampled": False},
     "CaseReport(case='P2', classes_total=8, classes_colorable=8, "
     "counterexamples=[], sampled=False)", MUTABLE),
    (ClassSpec, {"d": 5}, {"d_atleast": False, "t": None, "t_atleast": False},
     "ClassSpec(d=5, d_atleast=False, t=None, t_atleast=False)", FROZEN),
    (TransferRecord, {"sender": 0, "receiver_kind": "f", "receiver": 1,
                      "amount": 6, "rule": "R1"}, {},
     "TransferRecord(sender=0, receiver_kind='f', receiver=1, amount=6, "
     "rule='R1')", FROZEN),
    (RuleOutput, {"transfers": []}, {"gaps": []},
     "RuleOutput(transfers=[], gaps=[])", MUTABLE),
    (Ledger, {"rows": [], "total_initial": 0, "total_final": 0, "gaps": []},
     {}, "Ledger(rows=[], total_initial=0, total_final=0, gaps=[])", MUTABLE),
    (Finding, {"audit": "a", "detail": "d"}, {},
     "Finding(audit='a', detail='d')", MUTABLE),
    (Scenario, {"corners": ((3, 0), (4, 0), (3, 0), (4, 0))}, {},
     "Scenario(corners=((3, 0), (4, 0), (3, 0), (4, 0)))", FROZEN),
]

_IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, required, defaults, text, frozen", CASES,
                         ids=_IDS)
def test_construction_and_repr(cls, required, defaults, text, frozen):
    values = {**required, **defaults}
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert by_position == by_keyword == cls(**required)
    assert cls(*required.values()) == by_keyword
    for name, x in values.items():
        assert getattr(by_keyword, name) == x
    assert repr(by_keyword) == text


@pytest.mark.parametrize("cls, required, defaults, text, frozen", CASES,
                         ids=_IDS)
def test_equality_hash_and_assignment(cls, required, defaults, text, frozen):
    values = {**required, **defaults}
    a, b = cls(**values), cls(*values.values())
    assert a == b and not a != b
    assert a != object()
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if frozen:
        assert hash(a) == hash(b) == hash(tuple(values.values()))
        assert len({a, b}) == 1
        with pytest.raises(AttributeError):
            setattr(a, next(iter(values)), 0)


@pytest.mark.parametrize("cls, required, defaults, text, frozen", CASES,
                         ids=_IDS)
def test_records_are_slotted(cls, required, defaults, text, frozen):
    assert not hasattr(cls(**required), "__dict__")


def test_step_constructor_rejects_unknown_and_missing_fields():
    with pytest.raises(TypeError):
        Save(0)
    with pytest.raises(TypeError):
        Save(0, 1, 1, None, "extra")
    with pytest.raises(TypeError):
        Save(0, 1, w=2)
    with pytest.raises(TypeError):
        Save(0, 1, u=0)


def test_json_type_defaults():
    bare = _Json("w")
    assert bare.ok(object()) and not bare.omit_empty
    assert bare.decode(5, None) == 5
    assert bare.encode((1, 2)) == [1, 2]


@pytest.mark.parametrize("cls, required, defaults, text, frozen",
                         [c for c in CASES
                          if any(isinstance(x, (list, dict, set))
                                 for x in c[2].values())],
                         ids=lambda x: getattr(x, "__name__", ""))
def test_each_instance_gets_its_own_default_containers(cls, required,
                                                       defaults, text, frozen):
    a, b = cls(**required), cls(**required)
    for name, x in defaults.items():
        if isinstance(x, (list, dict, set)):
            assert getattr(a, name) == x
            assert getattr(a, name) is not getattr(b, name)


def test_violation_kinds_stay_apart():
    assert SizeShort(1) != NotInList(1)
    assert not SizeShort(1) == NotInList(1)
    assert EdgeConflict(0, 1) != (0, 1)
    assert SizeShort(1) == SizeShort(1) and NotInList(2) != NotInList(3)


def test_pair_save_rejects_equal_ends_on_construction():
    with pytest.raises(SchemeError, match="u1 and u2 must differ"):
        PairSave(1, 1, 2)
    with pytest.raises(SchemeError):
        PairSave(u1=4, u2=4, v=2, k=2)


def test_step_kinds_differ_from_each_other():
    assert Delete(0) != Save(0, 1)
    assert Save(0, 1) != Save(0, 1, 2)
    assert len({Save(0, 1), Save(0, 1, k=1), Save(0, 2)}) == 2
