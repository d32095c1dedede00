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
