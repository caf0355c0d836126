"""Source-level contracts of the package."""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import mrt
from mrt.cli import save_measure

from _samples import segment_cantor_mixture

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


#: counters each tracer hook takes at its span's boundary
HOOK_ATTRS = {"beta.beta_multi": {"distinct", "computed"}, "geometry.pattern_search": {"evals"},
              "parallel.pmap": {"items"}}


@pytest.mark.parametrize(
    "args, names, square_sums",
    [
        (["decompose", "--k-max", "3"], {"measure.density_profile", "beta.beta_multi", "parallel.pmap"}, 0),
        (["tst", "--k-hi", "1"], {"beta.beta_multi", "geometry.pattern_search", "jones.square_sum"}, 1),
    ],
    ids=["decompose", "tst"],
)
def test_traced_run(tmp_path, args, names, square_sums):
    # a traced name that resolves can still break the tracer: its hooks bind
    # arguments by name or position (beta_multi's refine and cache, pmap's
    # third argument, pattern_search's f), so run the tracer end to end
    measure = tmp_path / "measure.json"
    save_measure(segment_cantor_mixture(1)[0], measure)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), args[0], str(measure),
            *args[1:], "-o", str(tmp_path / "report.json")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert names <= {s["name"] for s in spans}
    # tst makes its one pass over the cubes inside the span the benchmark times
    assert sum(s["name"] == "jones.square_sum" for s in spans) == square_sums
    for s in spans:
        assert HOOK_ATTRS.get(s["name"], set()) <= set(s.get("attrs", {})), s


def test_benchmark_selftest():
    # one round of each workload through every benchmark check, so a report
    # edit that breaks a check fails here and not only in a benchmark run;
    # the self-test writes only under the ignored .perfbench_out/
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_pattern_search_objective_is_named_f():
    # the tracer counts objective calls by wrapping the argument named f
    from mrt.geometry import pattern_search

    assert next(iter(inspect.signature(pattern_search).parameters)) == "f"


def test_no_unused_imports():
    # every name a module-level import binds is used in that module; the
    # modules import annotations from __future__, so no annotation is a string
    unused = []
    for path in sorted(pathlib.Path(mrt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def test_cells_come_from_the_measure():
    # cell_index runs in two places: DiscreteMeasure.cells, which computes
    # every atom's cell once per scale for the tables and passes that read
    # it, and cube_at, which places one point. A per-atom chain walk would
    # need a third call, so it cannot come back unnoticed
    callers = set()
    for path in sorted(pathlib.Path(mrt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(path.stem, tree)]
        while scopes:
            name, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scopes.append((f"{name}.{child.name}", child))
                    continue
                f = child.func if isinstance(child, ast.Call) else None
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "cell_index":
                    callers.add(name)
                scopes.append((name, child))
    assert callers == {"measure.DiscreteMeasure.cells", "dyadic.cube_at"}


# public names that no module calls, kept on purpose: the json writer whose
# files load_measure reads back exactly (the tests write every measure file
# with it), and the family enumeration that perfbench traces by
# name (beta_multi reads the same members by their positions in the per-scale
# triple lists)
UNREFERENCED_ALLOWED = {"cli.save_measure", "beta.nearby_cubes_with_mass"}


def _typing_nodes(tree: ast.Module) -> set[int]:
    """ids of the annotations in tree and of its module-level union aliases (X = A | B)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            found |= {id(arg.annotation) for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if arg is not None and arg.annotation is not None}
            if node.returns is not None:
                found.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            found.add(id(node.annotation))
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.BitOr):
            found.add(id(node.value))
    return found


def test_public_names_are_referenced():
    # every public module-level function and class, and every public method,
    # is referenced by name (as a name or an attribute) somewhere in the
    # package, so helpers that only tests call do not come back. A name in
    # an annotation or in a type alias does not count: it calls nothing
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(pathlib.Path(mrt.__file__).parent.glob("*.py"))
    }
    referenced = set()
    for tree in trees.values():
        skip = _typing_nodes(tree)
        stack = [tree]
        while stack:
            node = stack.pop()
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{m.name}", m.name)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    unreferenced = {full for full, name in defined if name not in referenced}
    assert unreferenced == UNREFERENCED_ALLOWED


# optional parameters that no call in the package sets, kept on purpose
UNSET_OPTIONS_ALLOWED = {
    # the console entry point, which parses sys.argv when given no argument list
    "cli.main(argv)",
    # perfbench's tracer forwards (fn, items, threads) positionally
    "_parallel.pmap(_unused)",
    # perfbench's tracer binds p into its beta_multi cube key
    "beta.beta_multi(p)",
    # the family enumeration perfbench traces by name (see UNREFERENCED_ALLOWED)
    "beta.nearby_cubes_with_mass(cache)",
}


def test_no_unset_options():
    # every optional parameter of a package function is set, by keyword or by
    # position, by some call in the package, so options that only ever take
    # their default do not come back
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(pathlib.Path(mrt.__file__).parent.glob("*.py"))
    }
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def is_set(call: ast.Call, name: str, position: float) -> bool:
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position

    unset = set()
    for module, tree in trees.items():
        methods = {
            id(m): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for m in cls.body if isinstance(m, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            # a method's callers pass self implicitly; a constructor call names the class
            shift = int(id(fn) in methods)
            callee = methods[id(fn)] if fn.name == "__init__" else fn.name
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            optional = [(a.arg, i - shift) for i, a in enumerate(params) if i >= first]
            kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            optional += [(a.arg, math.inf) for a, d in kwonly if d is not None]
            for name, position in optional:
                if not any(is_set(call, name, position) for call in calls.get(callee, ())):
                    unset.add(f"{module}.{callee}({name})")
    assert unset == UNSET_OPTIONS_ALLOWED
