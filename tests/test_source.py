"""Checks read off the package source with ``ast``, not off the imported modules.

``import qinet`` loads every module, so which module imports what, and
where a type is defined, can only be seen in the source.  No linter runs
on the package; the unused-import check stands in for one.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

import qinet
import qinet.model

SRC = Path(__file__).resolve().parents[1] / "src" / "qinet"
MODULES = sorted(SRC.glob("*.py"))


def _boundaries():
    """``BOUNDARIES`` of ``perfbench/spans.py``, read without changing the file."""
    path = SRC.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _dotted(node):
    """``a.b.c`` for a name or an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _assigns(node, name):
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)


def _imports(tree):
    """``(bound name, line)`` of every import in the module but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name read, and every dotted chain read off a name (``importlib.util`` too)."""
    return {chain for node in ast.walk(tree) if (chain := _dotted(node))}


def _all(tree):
    return {name for node in tree.body if _assigns(node, "__all__")
            for name in ast.literal_eval(node.value)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    # perfbench/spans.py wraps some functions where a module imports them,
    # so those bindings stay even where the module never calls them.
    module = "qinet" if path.stem == "__init__" else f"qinet.{path.stem}"
    traced = {attr for target, attr, _ in _boundaries() if target == module}
    tree = _tree(path)
    used = _used(tree) | _all(tree) | traced
    unused = [(name, line) for name, line in _imports(tree) if name not in used]
    assert unused == []


def test_theta_measure_has_one_home():
    defined = {
        path.name
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, ast.ClassDef) and node.name == "ThetaMeasure" or _assigns(node, "PROVENANCES")
    }
    assert defined == {"model.py"}
    assert qinet.ThetaMeasure is qinet.model.ThetaMeasure


def _divides_by_weight_times_outflow(node):
    """``x / (a * b)`` with ``outflow`` in the product: a relative imbalance."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Mult) and "outflow" in ast.unparse(node.right))


def test_the_balance_gate_has_one_home():
    # Every solve returns its measure through generator.gated: its refusal
    # text, its floor and the relative imbalance it reads live nowhere else.
    trees = {path.name: _tree(path) for path in MODULES}
    refusing = {name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and "balances to" in str(node.value)}
    flooring = {name for name, tree in trees.items() if "TINY" in _references(tree)}
    dividing = {name for name, tree in trees.items() if any(map(_divides_by_weight_times_outflow, ast.walk(tree)))}
    assert refusing == flooring == dividing == {"generator.py"}


def test_cell_codes_have_one_reader():
    # The cell-code layout belongs to simulate.py: every other module reads
    # a run through SimulationResult's queue(j), queues and states.
    readers = {
        path.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in ("codes", "_n_states")
    }
    assert readers == {"simulate.py"}


def test_only_the_front_ends_import_the_exact_solvers():
    importers = {
        path.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "exact"
    }
    assert importers == {"cli.py", "__init__.py"}


def _defined_privately(tree):
    """``(name, line)`` of each top-level private function and upper-case constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
            yield node.name, node.lineno
        for target in node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]:
            name = getattr(target, "id", "")
            if name.isupper() and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    """Every name the module reads, reads as an attribute, or imports by name."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names})


def test_every_private_function_and_constant_is_used():
    # A helper or a tolerance left behind by a refactor is referenced
    # nowhere in the package, though tests or tools may still import it.
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_references, trees.values()))
    unused = [(module, name, line) for module, tree in trees.items()
              for name, line in _defined_privately(tree) if name not in referenced]
    assert unused == []
