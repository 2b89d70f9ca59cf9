"""Every definition in ``src/ghwlab`` is reached from the CLI or the benchmark.

Roots: the names, attribute names and identifier-shaped strings (the
benchmark patches methods by name) of ``cli.py``, ``__main__.py`` and
``perfbench/*.py``; the module-level statements of ``src/ghwlab`` other than
imports and definitions; and the bodies of dunder methods, which Python calls
implicitly.  A reached function or method adds the identifiers of its body, a
reached class those of its class-level statements but not of its methods.
Matching is by bare name, so a method sharing a name with any reached
identifier counts as reached.  Test-only code belongs under ``tests/``.

Also: every name a module-level import in ``src/ghwlab`` binds is read in
its module, and the modules that hold Gauss periods and sum them exactly
import no complex arithmetic.
"""

import ast
from pathlib import Path

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


def test_exact_modules_import_no_cmath():
    # the periods are trace counts and the character sum is an int sum, so
    # neither module needs a complex value, not even inside a function
    for name in ("cyclotomy.py", "hierarchy.py"):
        imported = set()
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "cmath" not in imported, name


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
