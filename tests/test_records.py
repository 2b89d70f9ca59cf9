"""The package's records and what ``import ghwlab`` loads.

The five frozen records are named tuples: immutable, equal by value, with a
``Name(field=value, ...)`` repr and the same ``to_dict()`` as before.
``CodeParams`` is a plain ``__slots__`` class equal only to itself.  Neither
needs ``dataclasses`` (which loads ``inspect``), and a sweep at any job
count forks its own children without ``multiprocessing``; a fresh
interpreter checks that none of the three is loaded, since pytest itself
loads all three.
"""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ghwlab.codes import (AssumptionCheck, AssumptionReport, CodeParams, HypothesisReport,
                          check_closed_form_hypotheses, derive_params)
from ghwlab.hierarchy import FormulaParams
from ghwlab.oracle import GHWResult

SRC = Path(__file__).resolve().parents[1] / "src"
EX1 = (7, 1, 2, 2, 2, 6)
HEAVY = ("dataclasses", "inspect", "multiprocessing")

PROBE = """
import importlib, json, sys
import ghwlab.cli
# the modules perfbench/replay.py imports
for sub in ("codes", "cyclotomy", "fields", "hierarchy", "linalg", "oracle", "subspaces"):
    importlib.import_module("ghwlab." + sub)
heavy = %r
seen = {"import": [m for m in heavy if m in sys.modules]}
ex1 = ["ghw", "--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6",
       "--method", "all", "--no-timing"]
codes = [ghwlab.cli.main(ex1 + ["--jobs", "1"])]
seen["jobs1"] = [m for m in heavy if m in sys.modules]
codes.append(ghwlab.cli.main(ex1 + ["--r", "1", "--jobs", "2"]))
seen["jobs2"] = [m for m in heavy if m in sys.modules]
seen["exit"] = codes
print(json.dumps(seen))
""" % (HEAVY,)


def test_import_loads_no_dataclasses_inspect_or_multiprocessing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["exit"] == [0, 0]
    assert seen["import"] == []
    assert seen["jobs1"] == []
    assert seen["jobs2"] == []   # the fan-out forks without multiprocessing


def test_heavy_imports_in_source():
    # the package imports none of them, not even inside a function
    found = []
    for path in sorted((SRC / "ghwlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (walk is breadth first)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.stem, owner.get(node), name)
                      for name in names if name.split(".")[0] in HEAVY]
    assert found == []


def _records():
    params = derive_params(*EX1)
    return [
        AssumptionCheck(True, "ok"),
        params.assumptions,
        check_closed_form_hypotheses(params),
        FormulaParams(7, 2, 4),
        GHWResult(r=1, d_r=6, common_zeros=2, witness=((1, 0),), examined=400),
    ]


@pytest.mark.parametrize("index", range(5))
def test_frozen_records_reject_assignment(index):
    record = _records()[index]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("index", range(5))
def test_frozen_records_compare_by_value(index):
    a, b = _records()[index], _records()[index]
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != _records()[(index + 1) % 5]
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a


def test_record_reprs():
    assert repr(AssumptionCheck(True, "ok")) == "AssumptionCheck(ok=True, detail='ok')"
    assert repr(FormulaParams(7, 2, 4)) == "FormulaParams(q=7, m=2, N=4)"
    assert repr(GHWResult(1, 6, 2, ((1, 0),), 400)) == (
        "GHWResult(r=1, d_r=6, common_zeros=2, witness=((1, 0),), examined=400)")
    assert repr(derive_params(*EX1).assumptions).startswith(
        "AssumptionReport(i=AssumptionCheck(ok=True, detail='e=2 divides Q-1; ")


def test_formula_params_validates_and_derives():
    fp = FormulaParams(2, 6, 3)
    assert (fp.q, fp.m, fp.N, fp.p, fp.s, fp.j) == (2, 6, 3, 2, 1, 1)
    assert FormulaParams(q=2, m=6, N=3) == fp
    with pytest.raises(ValueError):
        FormulaParams(2, 4, 3)


def test_record_to_dicts_are_unchanged():
    params = derive_params(*EX1)
    assert params.assumptions.to_dict() == {
        "i": {"ok": True, "detail": "e=2 divides Q-1; a=6 is nonzero mod Q-1; e=2 >= t=2 >= 1"},
        "ii": {"ok": True, "detail": "deltas distinct mod e and difference gcd is 1"},
        "iii": {"ok": True, "detail": "all degrees equal 2 and polynomials pairwise distinct"},
        "all_ok": True,
    }
    assert check_closed_form_hypotheses(params).to_dict() == {
        "e_equals_t": True, "N_in_range": True, "semiprimitive": True, "j": 1,
        "sm_over_2j_odd": True, "m_even": True, "irreducible": False, "all_hold": True,
    }
    assert GHWResult(1, 6, 2, ((1, 0),), 400).to_dict() == {
        "r": 1, "d_r": 6, "common_zeros": 2, "witness_basis": [[1, 0]],
        "subspaces_examined": 400,
    }
    assert params.to_dict() == {
        "p": 7, "s": 1, "m": 2, "e": 2, "t": 2, "a": 6, "deltas": [0, 1],
        "q": 7, "Q": 49, "a_i": [6, 30], "delta": 6, "n": 8, "N": 4, "k": 4,
    }


def test_code_params_equal_only_to_themselves():
    a, b = derive_params(*EX1), derive_params(*EX1)
    assert a.to_dict() == b.to_dict()
    assert a == a and a != b
    c = copy.copy(a)
    assert c != a and c.field is a.field and c.to_dict() == a.to_dict()
    c.a = 2   # mutable, like the record it replaced
    assert (c.a, a.a) == (2, 6)
    assert repr(a).startswith("CodeParams(p=7, s=1, m=2, e=2, t=2, a=6, deltas=(0, 1), ")


def test_code_params_takes_exactly_its_fields():
    fields = {name: getattr(derive_params(*EX1), name) for name in CodeParams.__slots__}
    with pytest.raises(TypeError):
        CodeParams(**{k: v for k, v in fields.items() if k != "field"})
    with pytest.raises(TypeError):
        CodeParams(**fields, extra=1)
    assert CodeParams(**fields).to_dict() == derive_params(*EX1).to_dict()
    with pytest.raises(AttributeError):
        CodeParams(**fields).extra = 1
