"""Every definition in ``src/ghwlab`` is reached from the CLI or the benchmark.

Roots: the names, attribute names and identifier-shaped strings (the
benchmark patches methods by name) of ``cli.py``, ``__main__.py`` and
``perfbench/*.py``; the module-level statements of ``src/ghwlab`` other than
imports and definitions; and the bodies of dunder methods, which Python calls
implicitly.  A reached function or method adds the identifiers of its body, a
reached class those of its class-level statements but not of its methods.
Matching is by bare name, so a method sharing a name with any reached
identifier counts as reached.  Test-only code belongs under ``tests/``.

Also: every name a module-level import in ``src/ghwlab`` or ``tests`` binds
is read in its module, the modules that hold Gauss periods and sum them exactly
import no complex arithmetic, every record is a named tuple with empty
``__slots__`` and no ``__init__`` or ``__new__`` of its own, the dual
sweep pairs with C_0 itself, one slot, negating nothing, the sweep
kernel holds zero sets, which both scores count with no complement, and the
exact count is the one reader of ``codeword``.
"""

import ast
from pathlib import Path

from ghwlab.codes import HypothesisReport

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ghwlab"
ENTRIES = [SRC / "cli.py", SRC / "__main__.py", *(ROOT / "perfbench").glob("*.py")]
DEFS = (ast.FunctionDef, ast.ClassDef)


def identifiers(nodes):
    out = set()
    for node in (sub for n in nodes for sub in ast.walk(n)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            out.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
            out.add(node.value)
    return out


def unreached():
    names = identifiers(ast.parse(path.read_text()) for path in ENTRIES)
    pending = {}  # label -> (bare name, nodes whose identifiers it adds)
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFS):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    names |= identifiers([node])
                continue
            body = [node]
            if isinstance(node, ast.ClassDef):
                body = [*node.bases, *node.decorator_list,
                        *(s for s in node.body if not isinstance(s, DEFS))]
                for meth in (s for s in node.body if isinstance(s, DEFS)):
                    if meth.name.startswith("__") and meth.name.endswith("__"):
                        names |= identifiers([meth])
                    else:
                        pending[f"{path.stem}.{node.name}.{meth.name}"] = (meth.name, [meth])
            pending[f"{path.stem}.{node.name}"] = (node.name, body)
    while reached := [label for label, (name, _) in pending.items() if name in names]:
        for label in reached:
            names |= identifiers(pending.pop(label)[1])
    return sorted(pending)


def test_every_src_definition_is_reached_from_cli_or_perfbench():
    assert unreached() == []


def imported(name):
    """The modules that ``src/ghwlab/<name>`` imports at any depth."""
    found = set()
    for node in ast.walk(ast.parse((SRC / name).read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return found


def test_exact_modules_import_no_cmath():
    # the periods are trace counts and the character sum is an int sum, so
    # neither module needs a complex value, not even inside a function
    for name in ("cyclotomy.py", "hierarchy.py"):
        assert "cmath" not in imported(name), name


def unused_imports(path):
    """The names that ``path``'s module-level imports bind and it never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_src_modules_read_every_module_level_import():
    for path in SRC.glob("*.py"):
        assert unused_imports(path) == [], path.name


def test_test_modules_read_every_module_level_import():
    for path in (ROOT / "tests").glob("*.py"):
        assert unused_imports(path) == [], path.name


def holders(match):
    """Qualified names of the functions in ``src/ghwlab`` whose own bodies,
    nested definitions excluded, hold a node that ``match`` accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif match(child):
                found.add(scope)
            visit(child, inner)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(found)


def callers(name):
    """The ``holders`` of a call to ``name``."""
    return holders(lambda node: isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_one_function_evaluates_the_closed_form_regime():
    # the report holds this one evaluation, and the gate builds the regime from it
    assert callers("semiprimitive_j") == ["codes.HypothesisReport.of"]


def test_one_function_starts_every_record():
    # every JSON record gets its schema_version and tool header in one place
    assert holders(lambda node: isinstance(node, ast.Constant)
                   and node.value == "schema_version") == ["cli._record"]


def test_one_loop_times_every_row():
    # formula and sweep rows alike are timed by the one row loop
    assert callers("perf_counter") == ["cli._run_methods"]


def import_graph():
    """Each module of ``src/ghwlab`` -> the package modules it imports, from
    every ``import`` and ``from`` statement at any depth, function level too."""
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {}
    for path in SRC.glob("*.py"):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets |= {alias.name.removeprefix("ghwlab.") for alias in node.names
                            if alias.name.startswith("ghwlab.")}
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0:  # absolute: only the package's own modules count
                    if module != "ghwlab" and not module.startswith("ghwlab."):
                        continue
                    module = module.removeprefix("ghwlab").lstrip(".")
                if module:
                    targets.add(module.partition(".")[0])
                else:  # from . import name: name may be a module
                    targets |= {alias.name for alias in node.names}
        graph[path.stem] = targets & modules
    return graph


def test_src_imports_form_no_cycle():
    graph = import_graph()
    assert graph["oracle"] and graph["cli"]  # the graph does see the package's imports
    # peel modules that import nothing left; a cycle is what cannot be peeled
    while leaves := [name for name, targets in graph.items() if not targets - {name}]:
        for name in leaves:
            del graph[name]
        for targets in graph.values():
            targets.difference_update(leaves)
    assert graph == {}


def test_oracle_plans_every_sweep():
    # the sweeps are sized and their job count picked in one place
    assert callers("sched_getaffinity") == ["oracle.plan_sweeps"]
    assert not [name for name in callers("gaussian_binomial") if name.startswith("cli.")]
    assert not imported("cli.py") & {"os", "math"}


def compares_e_with_t(node):
    return isinstance(node, ast.Compare) and {"e", "t"} <= {
        getattr(side, "attr", None) for side in (node.left, *node.comparators)}


def test_the_method_plan_is_the_one_place_that_decides():
    # no CLI function sizes a sweep or drops a method for e != t inline:
    # cli._plan_methods reads the closed-form gate and oracle.plan_sweeps
    assert callers("sweep_size") == ["oracle._sweep", "oracle.plan_sweeps"]
    assert "codes.require_e_equals_t" in holders(compares_e_with_t)  # the matcher sees one
    assert not [name for name in holders(compares_e_with_t) if name.startswith("cli.")]


def definition(module, qualname):
    """The ``ast`` node of ``qualname`` in ``src/ghwlab/<module>.py``."""
    node = ast.parse((SRC / f"{module}.py").read_text())
    for name in qualname.split("."):
        node = next(sub for sub in node.body if isinstance(sub, DEFS) and sub.name == name)
    return node


def test_one_builder_reads_the_trace_coordinates():
    # both sweep matrices are trace pairings, built by linalg.pairing_matrix
    readers = holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "trace_coords")
    assert "linalg.pairing_matrix" in readers  # the matcher sees one
    assert [name for name in readers if not name.startswith("linalg.")] == []
    assert callers("pairing_matrix") == ["codes.TraceCode.generator_matrix", "oracle._dual_scorer"]


def test_the_dual_sweep_pairs_with_one_slot_of_c0():
    # -C_0 = C_0, so no oracle function negates, and the block is paired once
    assert "linalg.ScalarTable._root_row" in callers("neg")  # the matcher sees one
    assert [name for name in callers("neg") if name.startswith("oracle.")] == []
    calls = [node for node in ast.walk(definition("oracle", "_dual_scorer"))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "pairing_matrix"]
    assert len(calls) == 1
    slots = calls[0].args[1]
    assert isinstance(slots, ast.List) and len(slots.elts) == 1
    assert not isinstance(slots.elts[0], ast.Starred)
    assert "class_elements" in identifiers(slots.elts)


def test_each_question_is_answered_once():
    # e = t: one function compares the attributes, and every count calls it
    assert holders(compares_e_with_t) == ["codes.require_e_equals_t"]
    assert callers("require_e_equals_t") == ["cli.cmd_verify", "hierarchy.character_sum_count",
                                             "oracle.sweep_size"]
    # assumptions i-iii: every reader iterates the report, none names a field
    assert holders(lambda node: isinstance(node, ast.Attribute)
                   and node.attr in {"i", "ii", "iii"}) == []
    # primality: the trial division of prime_factors, not a second loop
    is_prime = definition("fields", "is_prime")
    assert not [node for node in ast.walk(is_prime)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert "prime_factors" in identifiers([is_prime])
    # the hypotheses: all_hold is "no failure", from the one list of them
    assert "failures" in identifiers([definition("codes", "HypothesisReport.all_hold")])


def records():
    """Qualified name -> ``ast`` node of every class in ``src/ghwlab`` whose
    base is a ``namedtuple(...)`` call."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Call)
                    and "namedtuple" in (getattr(base.func, "id", None), getattr(base.func, "attr", None))
                    for base in node.bases):
                found[f"{path.stem}.{node.name}"] = node
    return found


def test_every_record_is_built_by_its_named_tuple_alone():
    # empty __slots__, and no __init__ or __new__ to fork the one constructor
    found = records()
    assert len(found) == 7  # the matcher sees every record
    for name, node in found.items():
        slots = [stmt.value for stmt in node.body if isinstance(stmt, ast.Assign)
                 and [getattr(target, "id", None) for target in stmt.targets] == ["__slots__"]]
        assert len(slots) == 1 and isinstance(slots[0], ast.Tuple) and not slots[0].elts, name
        assert not {stmt.name for stmt in node.body
                    if isinstance(stmt, DEFS)} & {"__init__", "__new__"}, name


def test_each_record_has_one_constructor_and_one_serialisation():
    # only the gate builds the regime, and hierarchy keeps no second check of it
    assert callers("FormulaParams") == ["hierarchy.ClosedFormGate.of"]
    assert "itertools" not in imported("hierarchy.py")
    assert "prime_factors" not in identifiers([ast.parse((SRC / "hierarchy.py").read_text())])
    # the report's JSON is its fields, in order, then all_hold
    assert "semiprimitive" in HypothesisReport._fields
    to_dict = definition("codes", "HypothesisReport.to_dict")
    assert {node.value for node in ast.walk(to_dict) if isinstance(node, ast.Constant)
            and isinstance(node.value, str)} == {"all_hold"}


def complements_full(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor) and "full" in {
        getattr(side, "id", getattr(side, "attr", None)) for side in (node.left, node.right)}


def test_the_sweep_kernel_holds_zero_sets():
    # a row choice's mask is its zero set, and both scores read its count:
    # no complement into a support, no unmarked-count helper
    assert complements_full(ast.parse("full ^ (zz | b)", mode="eval").body)  # the matcher sees one
    assert not [name for name in holders(complements_full) if name.startswith("oracle.")]
    oracle_ast = ast.parse((SRC / "oracle.py").read_text())
    assert "_unmarked" not in identifiers([oracle_ast])
    # the brute score is the builtin max: oracle rebinds no name max
    (ret,) = [node for node in ast.walk(definition("oracle", "_brute_scorer"))
              if isinstance(node, ast.Return)]
    assert isinstance(ret.value, ast.Tuple) and getattr(ret.value.elts[1], "id", None) == "max"
    bound = set()
    for node in ast.walk(oracle_ast):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (*DEFS, ast.arg, ast.alias)):
            bound.add(getattr(node, "asname", None) or getattr(node, "name", None) or node.arg)
    assert "_RowMasks" in bound and "max" not in bound


def test_the_exact_count_alone_reads_codewords():
    # the brute recount is a real check: the exact count reads words only
    # through codeword, and the kernel's generator matrix never does
    assert callers("codeword") == ["codes.count_common_zeros"]
    assert callers("generator_matrix") == ["oracle._brute_scorer"]
    codes_ast = ast.parse((SRC / "codes.py").read_text())
    assert "support_union" not in {node.name for node in ast.walk(codes_ast) if isinstance(node, DEFS)}
