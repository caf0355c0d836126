"""Source-level contracts of the package."""

import ast
import importlib
import importlib.util
import pathlib

import mrt

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_no_assert_statements():
    # python -O strips assert statements, so runtime invariants raise errors
    found = []
    for path in sorted(pathlib.Path(mrt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_public_name_resolves():
    # the package resolves its public names lazily, from a name -> module table
    missing = [name for name in mrt.__all__ if not hasattr(mrt, name)]
    assert missing == []


def test_traced_functions_exist():
    # every function the benchmark's tracer wraps must still exist
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for _layer, modname, qualname in tracer.TARGETS:
        owner_name, _, attr = qualname.rpartition(".")
        owner = importlib.import_module(modname)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        # the tracer replaces the attribute where it is defined
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{modname}.{qualname}")
    assert missing == []
