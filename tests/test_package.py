"""The package's public surface."""

import ast
import copy
import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import odl
import odl.cli
import odl.engine
import odl.reference
from odl.parser import _REQUIRED, Token
from odl.syntax import KEYWORDS, Struct


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


def test_importing_the_scorers_leaves_out_dataclasses_and_inspect(tmp_path):
    # dataclasses, with the inspect it imports, costs each process time at
    # start-up, and more to make the methods of each class it makes. Only
    # odl.scenario, which `odl gen` imports on first use, imports it.
    code = "import sys, odl, odl.cli, odl.engine, odl.reference; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh(code) == "[]\n"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(odl.load_example_scenario("eventful"), encoding="utf-8")
    done = _run("-m", "odl", "gen", "--scenario", str(scenario), "--seed", "3")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == odl.dump_trace(odl.generate_trace(odl.load_scenario(scenario.read_text(encoding="utf-8")), 3))


N = odl.Kind.NUMBER
_X, _ONE = odl.Ident("x"), odl.Literal(1.0)
_FIRES = odl.ScoringFunction("f", odl.Binary(">", _X, odl.Literal(0.0)), odl.Frequency.FIRST)
_CHECKED = odl.CheckedOracle(odl.OracleDefinition(functions=(_FIRES,)), odl.TraceSchema((("x", N),)))
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
    "Literal": (lambda: odl.Literal(1.0), odl.Literal(2.0), "Literal(value=1.0)", "value", True),
    "Ident": (lambda: odl.Ident("x"), odl.Ident("y"), "Ident(name='x')", "name", True),
    "Unary": (lambda: odl.Unary("-", _X), odl.Unary("not", _X), "Unary(op='-', operand=Ident(name='x'))", "op", True),
    "Binary": (
        lambda: odl.Binary(">", _X, odl.Literal(0.0)), odl.Binary(">", _X, _ONE),
        "Binary(op='>', left=Ident(name='x'), right=Literal(value=0.0))", "right", True,
    ),
    "Call": (lambda: odl.Call("abs", (_X,)), odl.Call("abs", (_ONE,)), "Call(name='abs', args=(Ident(name='x'),))", "args", True),
    "Notification": (
        lambda: odl.Notification("g", (("tm", _ONE),)), odl.Notification("h", (("tm", _ONE),)),
        "Notification(target='g', bindings=(('tm', Literal(value=1.0)),))", "target", True,
    ),
    "ScoringFunction": (
        lambda: odl.ScoringFunction("f", _X, odl.Frequency.ALL_SUM, initial=2.0),
        odl.ScoringFunction("f", _X, odl.Frequency.ALL_SUM),
        "ScoringFunction(name='f', event=Ident(name='x'), frequency=<Frequency.ALL_SUM: 'all_sum'>, condition=None, "
        "action=None, notifications=(), initial=2.0)", "initial", True,
    ),
    "OracleDefinition": (
        lambda: odl.OracleDefinition(summary=_ONE), odl.OracleDefinition(),
        "OracleDefinition(constants=(), functions=(), summary=Literal(value=1.0))", "summary", True,
    ),
    "CheckedOracle": (
        lambda: odl.check_od(_CHECKED.od, _CHECKED.schema), odl.CheckedOracle(_CHECKED.od, odl.TraceSchema((("x", N), ("y", N)))),
        "CheckedOracle(od=OracleDefinition(constants=(), functions=(ScoringFunction(name='f', event=Binary(op='>', "
        "left=Ident(name='x'), right=Literal(value=0.0)), frequency=<Frequency.FIRST: 'first'>, condition=None, "
        "action=None, notifications=(), initial=0.0),), summary=None), schema=TraceSchema(fields=(('x', "
        "<Kind.NUMBER: 'number'>),)), timers={'f': frozenset()})", "od", False,
    ),
    "Token": (
        lambda: Token("NUMBER", "2", 4), Token("NUMBER", "2", 5),
        "Token(kind='NUMBER', text='2', start=4)", "start", True,
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


# A value of each tree type, with every field given.
_NOTIFIES = odl.Notification("g", (("tm", _ONE),))
TREE_VALUES = [
    _ONE, _X, odl.Unary("-", _X), odl.Binary(">", _X, _ONE), odl.Call("abs", (_X,)), _NOTIFIES,
    odl.ScoringFunction("f", _X, odl.Frequency.ACTION_SUM, odl.Ident("c"), _ONE, (_NOTIFIES,), 1.5),
    odl.OracleDefinition((("K", 1.0),), (_FIRES,), odl.Ident("K")),
]


def _frozen_dataclass(cls):
    """A frozen dataclass of `cls`'s name, fields and defaults: what each
    type of the tree was made as before it was a Struct."""
    defaults = cls.__init__.__defaults__ or ()
    required = len(cls._fields) - len(defaults)
    optional = [(name, object, dataclasses.field(default=d)) for name, d in zip(cls._fields[required:], defaults)]
    return dataclasses.make_dataclass(cls.__name__, [*cls._fields[:required], *optional], frozen=True)


def _outcome(build, field):
    """The repr and hash of what `build()` gives, and the texts of assigning
    and deleting `field` and adding an attribute, or its TypeError's text."""
    try:
        value = build()
    except TypeError as exc:
        return f"TypeError: {exc}"
    texts = []
    for change in (
        lambda: setattr(value, field, None),
        lambda: delattr(value, field),
        lambda: setattr(value, "other", None),
    ):
        with pytest.raises(AttributeError) as refused:
            change()
        texts.append(str(refused.value))
    return repr(value), hash(value), texts


@pytest.mark.parametrize("value", TREE_VALUES, ids=lambda value: type(value).__name__)
def test_tree_types_behave_as_the_frozen_dataclasses_they_were(value):
    """Each constructor call, good or refused, gives what the frozen
    dataclass of the same fields gave: repr, hash and refusals, or the
    TypeError text."""
    cls = type(value)
    fields, values = cls._fields, tuple(getattr(value, name) for name in cls._fields)
    twin = _frozen_dataclass(cls)
    assert tuple(field.name for field in dataclasses.fields(twin)) == fields
    for args, kwargs in [
        (values, {}), ((), dict(zip(fields, values))), (values[:1], {}), ((), {}), ((*values, None), {}),
        (values, {"nope": None}), (values, {fields[0]: values[0]}), (values[:-1], {fields[-1]: values[-1]}),
    ]:
        outcome = _outcome(lambda: cls(*args, **kwargs), fields[-1])
        assert outcome == _outcome(lambda: twin(*args, **kwargs), fields[-1]), (args, kwargs)
    assert cls(*values) == value and hash(cls(*values)) == hash(value) == hash(values)
    assert value != values and value != twin(*values)


def test_structs_compare_equal_only_within_their_type_and_replace_through_their_constructor():
    class Named(Struct):
        __slots__ = _fields = ("name",)

        def __init__(self, name):
            object.__setattr__(self, "name", name)

    assert odl.Literal(1.0) != (1.0,) and (1.0,) != odl.Literal(1.0)
    assert Named("x") != odl.Ident("x") and odl.Ident("x") == odl.Ident("x")
    assert odl.Literal.__hash__ is not None and odl.Env.__hash__ is None
    binary = odl.Binary(">", _X, _ONE)
    assert binary._replace(op="<") == odl.Binary("<", _X, _ONE) and binary.op == ">"
    with pytest.raises(TypeError, match=r"^Binary\.__init__\(\) got an unexpected keyword argument 'nope'$"):
        binary._replace(nope=1)
    od = TREE_VALUES[-1]
    for value in (*TREE_VALUES, _CHECKED):
        assert pickle.loads(pickle.dumps(value)) == copy.copy(value) == copy.deepcopy(value) == value
    assert odl.ScoringFunction._fields == ("name", "event", "frequency", "condition", "action", "notifications", "initial")
    assert odl.OracleDefinition._fields == ("constants", "functions", "summary") and odl.OracleDefinition() == od._replace(
        constants=(), functions=(), summary=None
    )
    assert odl.CheckedOracle._fields == ("od", "schema", "timers")
    assert odl.Env._fields == ("fields", "constants", "timers", "seq_time", "scores")
    # The parser's required parameters and the grammar words come of ScoringFunction's fields.
    assert _REQUIRED == ["event", "frequency"]
    assert {"event", "condition", "action", "frequency", "notifications", "initial"} < KEYWORDS
    assert "name" not in KEYWORDS


def test_checked_oracles_are_checked_when_replaced_and_keep_their_programs():
    assert _CHECKED._replace() == _CHECKED and _CHECKED._replace().timers == {"f": frozenset()}
    wider = _CHECKED._replace(schema=odl.TraceSchema((("x", N), ("y", N))))
    assert wider.od is _CHECKED.od and wider != _CHECKED
    with pytest.raises(odl.CheckError, match="^event of 'f': timer 'x' has no notification targeting 'f'"):
        _CHECKED._replace(schema=odl.TraceSchema((("y", N),)))
    with pytest.raises(TypeError, match="unexpected keyword argument 'timers'"):
        _CHECKED._replace(timers={})
    checked = odl.check_od(_CHECKED.od, _CHECKED.schema)
    assert checked.program is checked.program and "program" not in repr(checked)
    with pytest.raises(AttributeError, match="^cannot assign to field 'program'$"):
        checked.program = None


def test_env_is_a_mutable_struct_with_a_fresh_table_per_default():
    env, other = odl.Env(), odl.Env()
    assert env == other and env.fields is not other.fields and env.fields == {}
    assert repr(env) == "Env(fields={}, constants={}, timers={}, seq_time=None, scores={})"
    env.seq_time = 1.5
    assert env != other and env == odl.Env(seq_time=1.5) and env._replace(seq_time=None) == other
    with pytest.raises(TypeError, match="unhashable"):
        hash(env)
    with pytest.raises(TypeError, match=r"^Env\.__init__\(\) got an unexpected keyword argument 'nope'$"):
        odl.Env(nope={})


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


def test_an_install_carries_every_asset_and_the_console_script():
    """Every file under src/odl/assets matches a package-data glob of
    pyproject.toml, so an installed odl has it, and the `odl` script is the
    CLI's entry point."""
    tomllib = pytest.importorskip("tomllib")  # 3.11 on
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    package = root / "src" / "odl"
    assets = {path for path in (package / "assets").rglob("*") if path.is_file()}
    shipped = {path for glob in project["tool"]["setuptools"]["package-data"]["odl"] for path in package.glob(glob)}
    assert assets and sorted(map(str, assets - shipped)) == []
    assert project["project"]["scripts"] == {"odl": "odl.cli:run"}
    assert callable(odl.cli.run)


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
