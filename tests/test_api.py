"""The package API that outside code names must exist: the benchmark's
tracer wraps functions by name, and `__all__` promises its names.  Only
the command line prints."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import shiftdetect

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


def _resolve(module_name, attr):
    module = importlib.import_module(f"shiftdetect.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        # the tracer replaces the method in the class's own namespace
        assert meth in vars(cls), f"{attr} is not defined on {cls_name}"
        return getattr(cls, meth)
    return getattr(module, attr)


@pytest.mark.parametrize("module_name, attr, span, counter", TARGETS,
                         ids=[t[2] + ":" + t[1] for t in TARGETS])
def test_traced_target_resolves(module_name, attr, span, counter):
    target = _resolve(module_name, attr)
    assert callable(target)
    if counter is None:
        return
    # a counter reads the call's bound arguments by name
    read = set(re.findall(r'\bb\["(\w+)"\]', inspect.getsource(counter)))
    missing = read - set(inspect.signature(target).parameters)
    assert not missing, f"{attr} has no parameter {sorted(missing)}"


@pytest.mark.parametrize("name", shiftdetect.__all__)
def test_exported_name_resolves(name):
    assert hasattr(shiftdetect, name)


def test_library_code_does_not_print():
    package = Path(shiftdetect.__file__).parent
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert not calls, f"print outside cli.py: {calls}"


# Settable values: parameters with a default in every function and method,
# dataclass fields with a default, and command-line options.  A change
# that adds a knob raises the budget in the same diff and says why.
SETTABLE_VALUES_BUDGET = 99
# Lines of src/shiftdetect/*.py, as `wc -l` counts them; a change that
# needs more raises the budget in the same diff and says why.
SOURCE_LINES_BUDGET = 2631


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id",
                       None) == "dataclass" for d in node.decorator_list)


def count_settable_values(package: Path) -> int:
    count = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign)
                             and s.value is not None for s in node.body)
            elif (path.name == "cli.py" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                count += 1
    return count


def test_settable_values_within_budget():
    count = count_settable_values(Path(shiftdetect.__file__).parent)
    assert count <= SETTABLE_VALUES_BUDGET, (
        f"{count} settable values, budget {SETTABLE_VALUES_BUDGET}")


def test_source_lines_within_budget():
    package = Path(shiftdetect.__file__).parent
    count = sum(path.read_bytes().count(b"\n")
                for path in package.glob("*.py"))
    assert count <= SOURCE_LINES_BUDGET, (
        f"{count} source lines, budget {SOURCE_LINES_BUDGET}")
