"""The package's records and what ``import ghwlab`` loads.

The package's seven records are named tuples: immutable, equal by value,
with a ``Name(field=value, ...)`` repr and the same ``to_dict()`` as before.
Five of them are checked together.  ``CodeParams`` is checked on its own:
its ``field`` compares by value, so two ``derive_params`` calls with the same
arguments are equal even when another field was built between them,
``_replace`` makes a variant that shares the field, and its class body writes
no ``__init__`` or ``__repr__`` of its own.  None of them
needs ``dataclasses`` (which loads ``inspect``), and a sweep at any job
count forks its own children without ``multiprocessing``; a fresh
interpreter checks that none of the three is loaded, since pytest itself
loads all three.  ``verify`` and a formula-only ``ghw`` run no sweep, and a
fresh interpreter checks that they load no sweep module, and that an r = 1
``verify`` never builds the field's Zech table.  The arithmetic modules ``fields`` and
``linalg`` import no other module of the package.
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

from ghwlab.codes import AssumptionCheck, CodeParams, check_closed_form_hypotheses, derive_params
from ghwlab.fields import build_field
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


NO_SWEEP_PROBE = """
import json, sys
import ghwlab.cli
code = ghwlab.cli.main(%r + ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6"])
sweep = ("ghwlab.oracle", "ghwlab.subspaces")
print(json.dumps({"exit": code, "loaded": [m for m in sweep if m in sys.modules]}))
"""


def loaded_sweep_modules(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NO_SWEEP_PROBE % (argv,)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_verify_loads_no_sweep_modules():
    assert loaded_sweep_modules(["verify", "--count", "3"]) == {"exit": 0, "loaded": []}


def test_formula_ghw_loads_no_sweep_modules():
    # the sweeps' worker count is sized only when a sweep is planned
    seen = loaded_sweep_modules(["ghw", "--method", "formula", "--format", "csv"])
    assert seen == {"exit": 0, "loaded": []}


ZECH_PROBE = """
import json
import ghwlab.cli
from ghwlab.fields import build_field
code = ghwlab.cli.main(["verify", "--p", "3", "--s", "10", "--m", "1", "--e", "1", "--t", "1",
                        "--a", "968", "--count", "4"])
# the field the CLI built: build_field keeps the last one by (p, degree, s)
field = build_field(3, 10, subfield_degree=10)
print(json.dumps({"exit": code, "zech": field._zech is not None,
                  "traces": {d: type(t).__name__ for d, t in field._trace_tables.items()}}))
"""


def test_r1_verify_builds_no_zech_table():
    # an r = 1 character sum adds no two nonzero elements, and the trace table
    # onto GF(3) is built by digit sums, one byte per element
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", ZECH_PROBE], env=env, capture_output=True,
                          text=True, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"exit": 0, "zech": False, "traces": {"1": "bytes"}}


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


@pytest.mark.parametrize("module", ["fields", "linalg"])
def test_arithmetic_layer_imports_no_ghwlab_module(module):
    # fields and linalg are the leaves every other module builds on
    tree = ast.parse((SRC / "ghwlab" / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "ghwlab"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "ghwlab":
                found.append("." * node.level + (node.module or ""))
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


def test_formula_params_holds_q_m_and_n():
    fp = FormulaParams(2, 6, 3)
    assert (fp.q, fp.m, fp.N) == (2, 6, 3)
    assert FormulaParams(q=2, m=6, N=3) == fp


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


def test_code_params_are_frozen_and_equal_by_value():
    a, b = derive_params(*EX1), derive_params(*EX1)
    assert isinstance(a, tuple) and a is not b
    assert a == b and hash(a) == hash(b) and a.to_dict() == b.to_dict()
    with pytest.raises(AttributeError):
        a.a = 2
    with pytest.raises(AttributeError):
        a.extra = 1
    c = a._replace(a=2)
    assert (c.a, a.a) == (2, 6) and c != a and c.field is a.field
    assert repr(a).startswith("CodeParams(p=7, s=1, m=2, e=2, t=2, a=6, deltas=(0, 1), ")


def test_code_params_stay_equal_across_another_field():
    # build_field keeps only the last field, so the second ex1 gets a new one
    a = derive_params(*EX1)
    derive_params(3, 1, 4, 2, 2, 1)
    b = derive_params(*EX1)
    assert a.field is not b.field
    assert a == b and hash(a) == hash(b)
    assert a.field != build_field(7, 2, subfield_degree=2)  # GF(49) over itself: s = 2


def test_code_params_takes_exactly_its_fields():
    assert CodeParams._fields == ("p", "s", "m", "e", "t", "a", "deltas", "q", "Q", "a_list",
                                  "delta", "n", "N", "k", "field", "assumptions")
    assert not {"__init__", "__repr__"} & vars(CodeParams).keys()
    fields = derive_params(*EX1)._asdict()
    with pytest.raises(TypeError):
        CodeParams(**{k: v for k, v in fields.items() if k != "field"})
    with pytest.raises(TypeError):
        CodeParams(**fields, extra=1)
    assert CodeParams(**fields) == derive_params(*EX1)
