"""The package's public surface."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import odl
import odl.cli
import odl.engine
import odl.reference
from odl.parser import Token


def _run(*argv):
    """`python ARGV` run by a fresh interpreter that imports this odl."""
    src = str(Path(odl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def _fresh(code):
    """The output of `code` run by a fresh interpreter that imports this odl."""
    done = _run("-c", code)
    done.check_returncode()
    return done.stdout


def test_all_lists_exactly_the_public_names_the_package_binds():
    # The names bound at import, plus those bound on first use, which other
    # tests may already have bound.
    bound = {
        name
        for name, value in vars(odl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(odl.__all__) == len(set(odl.__all__))
    assert set(odl.__all__) == bound | set(odl._LAZY)
    for name, module in odl._LAZY.items():
        assert getattr(odl, name) is getattr(importlib.import_module(f"odl.{module}"), name)
    # dir() before any name is used, and after.
    assert _fresh("import odl; print(sorted(set(odl.__all__) - set(dir(odl))))") == "[]\n"
    assert set(odl.__all__) <= set(dir(odl))


def test_importing_the_package_and_cli_leaves_out_statistics():
    # statistics brings fractions, decimal and numbers: ~2 ms a process.
    # odl.scenario and odl.catalog are imported on first use of their names.
    left_out = {"statistics", "fractions", "decimal", "odl.scenario", "odl.catalog"}
    assert _fresh(f"import sys, odl, odl.cli; print(sorted({left_out!r} & set(sys.modules)))") == "[]\n"


N = odl.Kind.NUMBER
# Each value type as it is used: a function that builds a value, another
# value of the type, the value's repr, a field, and whether the value hashes
# (a dict inside it does not).
VALUE_TYPES = {
    "Point2": (lambda: odl.Point2(1.0, 2.0), odl.Point2(1.0, -2.0), "Point2(x=1.0, y=2.0)", "x", True),
    "TraceSchema": (
        lambda: odl.TraceSchema((("v", N),)), odl.TraceSchema(()),
        "TraceSchema(fields=(('v', <Kind.NUMBER: 'number'>),))", "fields", True,
    ),
    "TraceMessage": (
        lambda: odl.TraceMessage(0.5, {"p": odl.Point2(0.0, 1.0)}), odl.TraceMessage(0.5, {}),
        "TraceMessage(t=0.5, values={'p': Point2(x=0.0, y=1.0)})", "t", False,
    ),
    "Trace": (
        lambda: odl.Trace(odl.TraceSchema(()), (odl.TraceMessage(1.0, {}),)), odl.Trace(odl.TraceSchema(()), ()),
        "Trace(schema=TraceSchema(fields=()), messages=(TraceMessage(t=1.0, values={}),))", "messages", False,
    ),
    "Firing": (
        lambda: odl.Firing(3, "f", 1.5, (("g", "c", 2.0),)), odl.Firing(3, "f", 1.5),
        "Firing(message_index=3, function='f', delta=1.5, notifications=(('g', 'c', 2.0),))", "delta", True,
    ),
    "ScoreReport": (
        lambda: odl.ScoreReport((("f", 1.5),), 1.5), odl.ScoreReport((("f", 1.5),), 1.5, (odl.Firing(0, "f", 1.5),)),
        "ScoreReport(scores=(('f', 1.5),), summary=1.5, firings=())", "summary", True,
    ),
    "Token": (
        lambda: Token("NUMBER", "2", 1, 5, 2.0), Token("NUMBER", "2", 1, 6, 2.0),
        "Token(kind='NUMBER', text='2', line=1, column=5, value=2.0)", "column", True,
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_keep_their_repr_equality_hashing_and_immutability(name):
    make, other, text, field, hashable = VALUE_TYPES[name]
    value, copy = make(), make()
    assert type(value).__name__ == name and type(other) is type(value)
    assert repr(value) == text
    assert copy == value and not copy != value
    assert other != value and not other == value
    if hashable:
        assert hash(copy) == hash(value)
        assert len({value, copy, other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    assert getattr(value, field) == getattr(copy, field)


def test_the_benchmark_probe_runs_traced(tmp_path):
    # bench/probe.py --trace rebinds these names; a refactor that drops one
    # would break traced benchmark runs only.
    for module, name in [(odl.cli, "main"), (odl.engine, "eval_expr"), (odl.reference, "eval_expr")]:
        assert callable(getattr(module, name)), (module.__name__, name)
    scenario = odl.load_scenario(odl.load_example_scenario("eventful"))
    trace = tmp_path / "trace.jsonl"
    trace.write_text(odl.dump_trace(odl.generate_trace(scenario, 1)), encoding="utf-8")
    record = tmp_path / "record.json"
    probe = Path(__file__).resolve().parents[1] / "bench" / "probe.py"
    oracle = Path(odl.__file__).parent / "assets" / "listing1.odl"
    done = _run(str(probe), str(record), "--trace", "differential", str(trace), str(oracle))
    assert (done.returncode, done.stdout) == (0, "listing1 equal\n"), done.stderr
    assert {"ready", "peak_kb", "counts", "spans"} <= set(json.loads(record.read_text(encoding="utf-8")))


@pytest.mark.parametrize("path", sorted(Path(odl.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    """No module imports a name it never reads, leaving out `__future__`
    imports and names on a line marked `# noqa: F401`. The package reads
    the names it imports through `__all__`, which lists each one it binds."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if path.name == "__init__.py":
        read |= set(odl.__all__)
    imported = [
        (alias.asname or alias.name.split(".")[0], alias.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    assert [(name, lineno) for name, lineno in imported if name not in read] == []
