"""Child side of the benchmark: one timed operation in its own process.

    python bench/probe.py RECORD [--trace] cli ARGS...
    python bench/probe.py RECORD [--trace] differential TRACE OD...

`cli` runs `odl.cli.main(ARGS)`, as the `odl` console script does.
`differential` scores TRACE with the streaming engine and with
`reference_score` for every oracle file OD and prints one line per oracle,
`<stem> equal` or `<stem> differ`.

On exit it writes RECORD, a JSON object with `ready`, the clock reading
once `odl` is imported, and `peak_kb`, the process's peak resident set.

With `--trace` the layer entry points are wrapped before anything runs:
every `odl` function that `odl` or `odl.cli` imports from a submodule, plus
`odl.cli.main`. Each call records a span (name, start, end, parent). The
`eval_expr` references held by `odl.engine` and `odl.reference` are only
counted, not spanned, because they run millions of times per run. The spans
and counts stay in memory and go into RECORD at exit. Times come from
`time.perf_counter`, which on Linux is the system-wide monotonic clock, so
they compare with the parent's readings.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import odl
import odl.cli
import odl.engine
import odl.reference

READY = time.perf_counter()


def wide_oracle() -> odl.OracleDefinition:
    """All bundled scoring functions in one definition, summary = sum.

    The bundled oracles share constant names only where they agree on the
    value, and no two declare the same function, so the merge is a plain
    concatenation; a clash raises instead of renaming.
    """
    constants: dict[str, object] = {}
    functions = []
    for name in odl.BUILTIN_NAMES:
        od = odl.parse_od(odl.load_builtin(name))
        for key, value in od.constants:
            if constants.setdefault(key, value) != value:
                raise ValueError(f"constant {key} differs between bundled oracles")
        functions.extend(od.functions)
    names = [fn.name for fn in functions]
    if len(set(names)) != len(names):
        raise ValueError("bundled oracles declare the same scoring function twice")
    od = odl.OracleDefinition(constants=tuple(constants.items()), functions=tuple(functions))
    return odl.parse_od(odl.format_od(od))


def oracle_names() -> dict[tuple[str, ...], str]:
    """Map each known oracle's function-name tuple to its name."""
    known = {
        odl.parse_od(odl.load_builtin(name)).function_names(): name
        for name in odl.BUILTIN_NAMES
    }
    known[wide_oracle().function_names()] = "wide"
    return known


class Recorder:
    """In-memory spans and counters for one child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._oracles = oracle_names()

    def _describe(self, name: str, args: tuple, result: object) -> dict:
        # Message and firing counts turn span times into per-message costs.
        if name == "trace.parse_trace":
            return {"messages": len(result.messages)}
        if name in ("engine.score_trace", "reference.reference_score"):
            checked, trace = args
            return {
                "oracle": self._oracles.get(checked.od.function_names(), "other"),
                "messages": len(trace.messages),
                "firings": len(result.firings),
            }
        return {}

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, {}]
            spans[index][4] = self._describe(name, args, result)
            return result

        return wrapper

    def count(self, key: str, fn):
        counts = self.counts

        def wrapper(expr, env):
            counts[key] += 1
            return fn(expr, env)

        return wrapper

    def install(self) -> None:
        for namespace in (odl, odl.cli):
            for attr, obj in list(vars(namespace).items()):
                module = getattr(obj, "__module__", "")
                if inspect.isfunction(obj) and module.startswith("odl.") and module != namespace.__name__:
                    layer = module.rsplit(".", 1)[1]
                    setattr(namespace, attr, self.span(f"{layer}.{attr}", obj))
        odl.cli.main = self.span("cli.main", odl.cli.main)
        odl.engine.eval_expr = self.count("engine", odl.engine.eval_expr)
        odl.reference.eval_expr = self.count("reference", odl.reference.eval_expr)

    def record(self) -> dict:
        return {
            "counts": dict(self.counts),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, **info}
                for n, s, e, p, info in self.spans
            ],
        }


def differential(trace_path: str, od_paths: list[str]) -> int:
    """Engine against reference for each oracle; the verdicts are the output."""
    trace = odl.parse_trace(Path(trace_path).read_text(encoding="utf-8"))
    for od_path in od_paths:
        checked = odl.check_od(odl.parse_od(Path(od_path).read_text(encoding="utf-8")), trace.schema)
        same = odl.score_trace(checked, trace) == odl.reference_score(checked, trace)
        print(f"{Path(od_path).stem} {'equal' if same else 'differ'}")
    return 0


def peak_rss_kb() -> int:
    """This process's own peak resident set since exec (Linux VmHWM). Unlike
    ru_maxrss it excludes the memory of the parent that spawned it."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    record_path, argv = argv[0], argv[1:]
    recorder = None
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        recorder = Recorder()
        recorder.install()
    mode, args = argv[0], argv[1:]
    try:
        if mode == "cli":
            return odl.cli.main(args)
        if mode == "differential":
            return differential(args[0], args[1:])
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        record = {"ready": READY, "peak_kb": peak_rss_kb()}
        if recorder is not None:
            record.update(recorder.record())
        Path(record_path).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
