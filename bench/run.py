"""Benchmark of the odl pipeline: oracle definition + trace -> score -> ranks
-> rank correlation, end to end and layer by layer. Stdlib only.

    python3 bench/run.py --workload long_score --seed 1 --seconds 30 --trace 0

It imports `odl` from the `src/` directory next to `bench/` and refuses to
run without it. One invocation runs one workload:

1. Set-up: seeded scenarios -> `generate_trace` -> `dump_trace` -> files
   under `.bench_work/`, plus the merged oracle for `long_score`.
2. Verification, once and untimed: the expected output of every command is
   computed from the in-memory traces with `reference_score` and the rank
   functions, never with the engine under test.
3. Until `--seconds` are spent: one more set-up, timed, then one run. A run
   is one pass over the workload's commands, each in its own child process
   (`probe.py`), one at a time. `--trace 1` alternates untraced runs with
   traced runs, in which `probe.py` wraps each layer's entry points and
   records spans.

`setup_s` is the median set-up time. `msgs_per_s` is the median over the
untraced runs of message-scorings per second: a message counts once for each
oracle, and in `differential` once more for the reference. `peak_rss_mb` is
the median over untraced runs of the largest child's own peak resident set.

Times are speed-scaled: a short fixed pure-Python task that does not use
odl runs before and after every set-up and every child, and each of those
times is multiplied by CAL_NOMINAL_S over the mean of its two calibrations.
On a shared machine whose speed drifts by tens of percent within a minute,
this keeps two sets of runs of the same code within a few percent of each
other, where raw times are not. The raw medians are in the `report` line
and in the printed `wall-clock` lines.

Every operation's output is compared with the expected output; an operation
is one CLI command, or one (oracle, trace) verdict in `differential`. The
metrics are printed one per line with their units, then a `report` line
holding every raw figure as JSON, then one JSON line with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. `fail_ratio` is `failed / attempted`.
Figures from other machines or Python versions, such as the Python 3.10
numbers in ROADMAP.md, are not comparable with these.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ASSETS = SRC / "odl" / "assets"
PROBE = BENCH_DIR / "probe.py"

sys.path.insert(0, str(SRC))
try:
    import odl
    import probe
except ImportError:  # main() refuses to run without the sources
    odl = probe = None

TRACES_PER_SOLUTION = 2
CAL_ROWS = 10000
CAL_NOMINAL_S = 0.1
GRACE_S = 120
COMPOSITES = ("od1_rubric", "od2_competition", "od3_framework")
LAYERS = ("trace", "parser", "checker", "engine", "reference", "rank", "cli")
END_TO_END_UNITS = {"setup_s": "s", "msgs_per_s": "msg/s", "peak_rss_mb": "MiB"}


def layer_units() -> dict[str, str]:
    """Per-layer metrics and units, in output order. Every one is reported
    on every workload; a layer the workload does not reach reads 0.

    Each is the median over traced runs of a per-run figure: self time in
    µs or s and counts are totals for the run, `*_per_msg` divide by the
    messages the layer handled, `share.*` divide by the run's wall time.
    The set-up figures come from the timed set-ups, `parsed_bytes_per_msg`
    from one tracemalloc-ed `parse_trace` of the workload's first trace."""
    builtins = odl.BUILTIN_NAMES
    return {
        "scenario.generate_us_per_msg": "us/msg",
        "trace.dump_us_per_msg": "us/msg",
        "trace.parse_us_per_msg": "us/msg",
        "trace.parse_calls": "count",
        "trace.parsed_bytes_per_msg": "B/msg",
        "parser.parse_od_us": "us",
        "checker.check_od_us": "us",
        "checker.check_od_calls": "count",
        **{f"engine.us_per_msg.{o}": "us/msg" for o in (*builtins, "wide")},
        **{f"engine.firings.{o}": "count" for o in (*builtins, "wide")},
        "engine.report_us": "us",
        "evaluate.calls_per_msg.engine": "calls/msg",
        "evaluate.calls_per_msg.reference": "calls/msg",
        **{f"reference.us_per_msg.{o}": "us/msg" for o in builtins},
        "rank.total_us": "us",
        "cli.self_s": "s",
        "cli.startup_s": "s",
        **{f"share.{part}": "ratio" for part in (*LAYERS, "startup", "other")},
        "bench.tracing_overhead": "ratio",
    }


# ---------------------------------------------------------------- inputs


@dataclass
class Built:
    """One set-up's inputs: files on disk plus the in-memory traces."""

    dir: Path
    traces: dict[str, "odl.Trace"] = field(default_factory=dict)  # by file stem
    oracles: dict[str, Path] = field(default_factory=dict)
    generate_s: float = 0.0
    dump_s: float = 0.0

    def messages(self) -> int:
        return sum(len(trace.messages) for trace in self.traces.values())

    def trace_path(self, stem: str) -> Path:
        return self.dir / f"{stem}.jsonl"

    def add_trace(self, stem: str, scenario: "odl.Scenario", seed: int) -> None:
        start = time.perf_counter()
        trace = odl.generate_trace(scenario, seed)
        generated = time.perf_counter()
        text = odl.dump_trace(trace)
        self.generate_s += generated - start
        self.dump_s += time.perf_counter() - generated
        self.trace_path(stem).write_text(text, encoding="utf-8")
        self.traces[stem] = trace


def eventful() -> "odl.Scenario":
    return odl.load_scenario(odl.load_example_scenario("eventful"))


def bundled(*names: str) -> dict[str, Path]:
    return {name: ASSETS / f"{name}.odl" for name in names}


def setup_long_score(seed: int, scale: float, d: Path) -> Built:
    # The eventful 40 s block repeated, arrival only in the last 2 s.
    base = eventful()
    blocks = max(1, round(50 * scale))
    duration = base.duration * blocks
    episodes = [
        replace(ep, start=ep.start + base.duration * k, end=ep.end + base.duration * k)
        for k in range(blocks)
        for ep in base.episodes
        if ep.kind != "arrival"
    ]
    episodes.append(odl.Episode("arrival", duration - 2.0, duration))
    built = Built(d)
    built.add_trace("long", replace(base, duration=duration, episodes=tuple(episodes)), seed)
    built.oracles = {"wide": d / "wide.odl"}
    built.oracles["wide"].write_text(odl.format_od(probe.wide_oracle()), encoding="utf-8")
    return built


def corpus_scenario(rng: random.Random, base: "odl.Scenario", skill: dict[str, float], arrives: bool) -> "odl.Scenario":
    """One 40 s run of a solution: each episode kind occurs with the
    solution's own probability, with random timing and strength."""

    def draw(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 1)

    episodes = []
    if rng.random() < skill["speeding"]:
        start = draw(1, 20)
        episodes.append(odl.Episode("speeding", start, start + draw(0.4, 8), {"peak_speed": draw(23.5, 30)}))
    if rng.random() < skill["lane_departure"]:
        start = draw(2, 25)
        episodes.append(odl.Episode("lane_departure", start, start + draw(1, 8), {"offset": rng.choice((3.7, 7.4))}))
    brake_end = None
    if rng.random() < skill["deceleration"]:
        start = draw(5, 30)
        brake_end = start + draw(0.6, 5)
        episodes.append(odl.Episode("deceleration", start, brake_end, {"rate": draw(-4, -0.5)}))
    if rng.random() < skill["collision"]:
        # Right after braking the collision counts as mitigated (listing4).
        at = brake_end + 0.2 if brake_end is not None and rng.random() < 0.5 else draw(1, 37)
        episodes.append(odl.Episode("collision", round(at, 1), round(at, 1)))
    if arrives:
        episodes.append(odl.Episode("arrival", 38.0, 40.0))
    return replace(base, episodes=tuple(episodes))


def setup_corpus_compare(seed: int, scale: float, d: Path) -> Built:
    # Every other solution arrives, so no oracle can rank all solutions equal.
    rng = random.Random(seed)
    base = eventful()
    built = Built(d)
    for s in range(max(2, round(30 * scale))):
        skill = {kind: rng.random() for kind in ("speeding", "lane_departure", "deceleration", "collision")}
        for r in range(TRACES_PER_SOLUTION):
            built.add_trace(f"s{s:02d}__r{r}", corpus_scenario(rng, base, skill, s % 2 == 0), rng.randrange(2**31))
    built.oracles = bundled(*COMPOSITES)
    return built


def setup_differential(seed: int, scale: float, d: Path) -> Built:
    # Eventful at tick 0.02, parked at the destination from 38 s to the end.
    base = eventful()
    duration = max(40.0, round(60 * scale))
    episodes = tuple(replace(ep, end=duration) if ep.kind == "arrival" else ep for ep in base.episodes)
    built = Built(d)
    built.add_trace("parked", replace(base, duration=duration, tick=0.02, episodes=episodes), seed)
    built.oracles = bundled(*odl.BUILTIN_NAMES)
    return built


# ---------------------------------------------------------------- commands


@dataclass
class Op:
    """One child process of a run and the output it must produce."""

    mode: str  # "cli" or "differential", see probe.py
    args: list[str]
    out: Path | None  # file the command writes its result to; None: stdout
    expected: str
    operations: int = 1  # differential: one verdict per oracle, one per line


def checked(path: Path) -> "odl.CheckedOracle":
    return odl.check_od(odl.parse_od(path.read_text(encoding="utf-8")), odl.GEN_SCHEMA)


def plan_long_score(built: Built) -> list[Op]:
    (stem, trace), = built.traces.items()
    expected = odl.report_to_json(odl.reference_score(checked(built.oracles["wide"]), trace)) + "\n"
    args = ["score", "--od", str(built.oracles["wide"]), "--trace", str(built.trace_path(stem)), "--report", "machine"]
    return [Op("cli", args, None, expected)]


def plan_corpus_compare(built: Built) -> list[Op]:
    traces = str(built.dir / "*__*.jsonl")
    batches, ranks, tables = [], [], []
    for name, path in built.oracles.items():
        oracle = checked(path)
        rows = sorted(
            (*stem.rsplit("__", 1), odl.reference_score(oracle, trace).summary)
            for stem, trace in built.traces.items()
        )
        table = defaultdict(list)
        for solution, _, score in rows:
            table[solution].append(score)
        tables.append(table)
        scores_csv, ranks_csv = built.dir / f"scores-{name}.csv", built.dir / f"{name}.csv"
        batches.append(Op("cli", ["batch", "--od", str(path), "--traces", traces, "--out", str(scores_csv)],
                          scores_csv, odl.write_scores_csv(rows)))
        ranks.append(Op("cli", ["rank", "--scores", str(scores_csv), "--out", str(ranks_csv)],
                        ranks_csv, odl.write_ranks_csv(odl.rank_solutions(odl.mean_scores(table)))))
    matrix = built.dir / "matrix.csv"
    compare = Op("cli", ["compare", *(op.out.as_posix() for op in ranks), "--out", str(matrix)],
                 matrix, odl.write_matrix_csv(list(built.oracles), odl.correlation_matrix(tables)))
    return [*batches, *ranks, compare]


def plan_differential(built: Built) -> list[Op]:
    # The child compares the engine's report with the reference's itself.
    (stem,) = built.traces
    expected = "".join(f"{name} equal\n" for name in built.oracles)
    args = [str(built.trace_path(stem)), *map(str, built.oracles.values())]
    return [Op("differential", args, None, expected, operations=len(built.oracles))]


@dataclass(frozen=True)
class Workload:
    why: str  # starts with the layer the workload stresses
    setup: Callable[[int, float, Path], Built]
    plan: Callable[[Built], list[Op]]
    scorers: Callable[[Built], int]  # scorings of each message in one run


WORKLOADS = {  # each `why` is also the workload's entry in BENCHMARK.json
    "long_score": Workload(
        why="engine-bound: one 10001-message eventful trace scored by odl score with all 17 bundled scoring"
        " functions merged into one oracle; the whole trace is held in memory",
        setup=setup_long_score,
        plan=plan_long_score,
        scorers=lambda built: 1,
    ),
    "corpus_compare": Workload(
        why="ingest-bound: the README pipeline (batch x3, rank x3, compare) as 7 CLI processes over 30 solutions"
        " x 2 traces of 201 messages; each trace is parsed once per oracle",
        setup=setup_corpus_compare,
        plan=plan_corpus_compare,
        scorers=lambda built: len(built.oracles),
    ),
    "differential": Workload(
        why="reference-bound: engine vs reference_score for the 7 bundled oracles on one 3001-message eventful"
        " trace parked at the destination from 38 s on",
        setup=setup_differential,
        plan=plan_differential,
        scorers=lambda built: 2 * len(built.oracles),
    ),
}


# ---------------------------------------------------------------- children


def run_child(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path,
              timeout: int) -> tuple[int, float, float]:
    """Run one child to its end, killing it after `timeout` seconds:
    (exit code, spawn clock, wall s)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, path in ((1, stdout), (2, stderr))
    ]
    spawned = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = False
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    try:
        _, status = os.waitpid(pid, 0)
        wall = time.perf_counter() - spawned
        reaped = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), spawned, wall


def failures(op: Op, code: int, output: Path) -> int:
    if code != 0 or not output.is_file():
        return op.operations
    text = output.read_text(encoding="utf-8")
    if op.operations == 1:
        return int(text != op.expected)
    pairs = zip_longest(text.splitlines(), op.expected.splitlines())
    return min(op.operations, sum(got != want for got, want in pairs))


def calibration_s() -> float:
    """Time of a fixed pure-Python task that never touches odl."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(CAL_ROWS):
        obj = json.loads(json.dumps({"t": i * 0.2, "v": [i % 97 / 7.0, -i]}))
        table[i % 101] = table.get(i % 101, 0.0) + obj["v"][0] * obj["t"]
    return time.perf_counter() - start


class Calibration:
    """Scales a timed step to the machine speed at which the calibration
    task takes CAL_NOMINAL_S, from the calibrations just before and after
    it: a step and its neighbouring calibrations slow down together."""

    def __init__(self) -> None:
        self._last = calibration_s()

    def adjust(self, seconds: float) -> float:
        now = calibration_s()
        scaled = seconds * 2 * CAL_NOMINAL_S / (self._last + now)
        self._last = now
        return scaled


@dataclass
class Run:
    """One pass over a workload's commands."""

    traced: bool
    wall: float = 0.0
    scaled: float = 0.0  # wall, each child scaled by its calibrations
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    children: list[tuple[float, dict]] = field(default_factory=list)  # (spawn clock, probe record)


def run_once(ops: list[Op], work: Path, env: dict[str, str], traced: bool, calibration: Calibration,
             deadline: float) -> Run:
    run = Run(traced)
    for i, op in enumerate(ops):
        stdout, stderr, record = (work / f"op{i}.{ext}" for ext in ("out", "err", "json"))
        for stale in (op.out, record):
            if stale is not None:
                stale.unlink(missing_ok=True)
        argv = [sys.executable, str(PROBE), str(record), *(["--trace"] if traced else []), op.mode, *op.args]
        timeout = max(1, math.ceil(deadline - time.perf_counter()))
        code, spawned, wall = run_child(argv, env, stdout, stderr, timeout)
        run.wall += wall
        run.scaled += calibration.adjust(wall)
        run.attempted += op.operations
        run.failed += failures(op, code, op.out or stdout)
        if record.is_file():
            child = json.loads(record.read_text(encoding="utf-8"))
            run.rss_mb = max(run.rss_mb, child["peak_kb"] / 1024)
            run.children.append((spawned, child))
    return run


# ---------------------------------------------------------------- layers


def layer_metrics(run: Run) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer figures of one traced run, and its exact counts.

    A span's self time is its duration minus its direct children's."""
    own_by_name: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    layer_self: Counter[str] = Counter()
    by_oracle: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0, 0])
    evals: Counter[str] = Counter()
    parsed = startup = 0.0
    for spawned, record in run.children:
        spans = record["spans"]
        own = [span["end"] - span["start"] for span in spans]
        for span in spans:
            if span["parent"] >= 0:
                own[span["parent"]] -= span["end"] - span["start"]
        startup += record["ready"] - spawned
        evals.update(record["counts"])
        for span, self_s in zip(spans, own):
            name = span["name"]
            layer = name.split(".")[0]
            own_by_name[name] += self_s
            calls[name] += 1
            layer_self[layer] += self_s
            parsed += span.get("messages", 0) if name == "trace.parse_trace" else 0
            if "oracle" in span:
                acc = by_oracle[layer, span["oracle"]]
                acc[0] += self_s
                acc[1] += span["messages"]
                acc[2] += span["firings"]

    def per_msg(seconds: float, messages: float) -> float:
        return 1e6 * seconds / messages if messages else 0.0

    scored = {side: sum(acc[1] for (layer, _), acc in by_oracle.items() if layer == side)
              for side in ("engine", "reference")}
    metrics: dict[str, float] = {
        "trace.parse_us_per_msg": per_msg(own_by_name["trace.parse_trace"], parsed),
        "trace.parse_calls": calls["trace.parse_trace"],
        "parser.parse_od_us": 1e6 * own_by_name["parser.parse_od"],
        "checker.check_od_us": 1e6 * own_by_name["checker.check_od"],
        "checker.check_od_calls": calls["checker.check_od"],
        "engine.report_us": 1e6 * own_by_name["engine.report_to_json"],
        "rank.total_us": 1e6 * layer_self["rank"],
        "cli.self_s": layer_self["cli"],
        "cli.startup_s": startup,
    }
    for side in ("engine", "reference"):
        metrics[f"evaluate.calls_per_msg.{side}"] = evals[side] / scored[side] if scored[side] else 0.0
    for (layer, oracle), (seconds, messages, firings) in by_oracle.items():
        metrics[f"{layer}.us_per_msg.{oracle}"] = per_msg(seconds, messages)
        if layer == "engine":
            metrics[f"engine.firings.{oracle}"] = firings
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / run.wall
    metrics["share.startup"] = startup / run.wall
    metrics["share.other"] = 1.0 - sum(layer_self[layer] for layer in LAYERS) / run.wall - startup / run.wall
    exact = {
        name: int(value) for name, value in metrics.items()
        if name.endswith("_calls") or name.startswith("engine.firings.")
    }
    exact.update({f"evaluate.calls.{side}": evals[side] for side in ("engine", "reference")})
    return metrics, exact


def parsed_bytes_per_msg(path: Path) -> float:
    """Memory a parsed trace retains per message, by tracemalloc."""
    text = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        trace = odl.parse_trace(text)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / len(trace.messages)


# ---------------------------------------------------------------- provenance


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    package = SRC / "odl"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- main


@dataclass
class Setup:
    """Times of one set-up: all of it, and the generate and dump calls in it."""

    total_s: float
    generate_s: float
    dump_s: float
    scaled_s: float = 0.0  # total_s scaled by its calibrations


def set_up(workload: Workload, seed: int, scale: float, d: Path) -> tuple[Built, Setup]:
    """Build the inputs into a fresh directory `d`."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    start = time.perf_counter()
    built = workload.setup(seed, scale, d)
    return built, Setup(time.perf_counter() - start, built.generate_s, built.dump_s)


def measure(workload: Workload, seed: int, scale: float, ops: list[Op], work: Path,
            seconds: float, trace: bool) -> tuple[list[Run], list[Setup]]:
    """Alternate set-ups (into a scratch directory) with runs until the next
    pair would end past `seconds`, so that both sample the same stretch of
    machine time. With tracing, untraced and traced runs alternate, and each
    kind runs at least once. A child still running GRACE_S after `seconds`
    is killed and its operations fail."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    cycle = (False, True) if trace else (False,)
    runs: list[Run] = []
    setups: list[Setup] = []
    start = time.perf_counter()
    deadline = start + seconds + GRACE_S
    calibration = Calibration()
    while True:
        _, setup = set_up(workload, seed, scale, work / "setup")
        setup.scaled_s = calibration.adjust(setup.total_s)
        setups.append(setup)
        runs.append(run_once(ops, work, env, cycle[len(runs) % len(cycle)], calibration, deadline))
        elapsed = time.perf_counter() - start
        if len(runs) >= len(cycle) and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs, setups


def benchmark(name: str, seed: int, seconds: float, trace: bool, scale: float, work: Path) -> dict:
    workload = WORKLOADS[name]
    built, _ = set_up(workload, seed, scale, work / "inputs")
    messages = built.messages()

    start = time.perf_counter()
    ops = workload.plan(built)
    verify_s = time.perf_counter() - start

    runs, setups = measure(workload, seed, scale, ops, work, seconds, trace)
    plain = [run for run in runs if not run.traced]
    traced = [run for run in runs if run.traced]
    scorings = messages * workload.scorers(built)

    def rate(group: list[Run]) -> float:
        return statistics.median(scorings / run.scaled for run in group)

    end_to_end = {
        "setup_s": statistics.median(setup.scaled_s for setup in setups),
        "msgs_per_s": rate(plain),
        "peak_rss_mb": statistics.median(run.rss_mb for run in plain),
    }
    unscaled = {
        "setup_s": statistics.median(setup.total_s for setup in setups),
        "msgs_per_s": statistics.median(scorings / run.wall for run in plain),
    }
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)

    per_layer = dict.fromkeys(layer_units(), 0.0)
    nondeterministic = 0
    if traced:
        figures = [layer_metrics(run) for run in traced]
        nondeterministic = sum(exact != figures[0][1] for _, exact in figures)
        for key in per_layer:
            per_layer[key] = statistics.median(metrics.get(key, 0.0) for metrics, _ in figures)
        per_layer["scenario.generate_us_per_msg"] = statistics.median(1e6 * s.generate_s / messages for s in setups)
        per_layer["trace.dump_us_per_msg"] = statistics.median(1e6 * s.dump_s / messages for s in setups)
        per_layer["trace.parsed_bytes_per_msg"] = parsed_bytes_per_msg(built.trace_path(next(iter(built.traces))))
        per_layer["bench.tracing_overhead"] = rate(traced) / end_to_end["msgs_per_s"]
    failed += nondeterministic

    oracles = {name: len(checked(path).od.functions) for name, path in built.oracles.items()}
    return {
        "workload": name,
        "why": workload.why,
        "environment": {
            "seed": seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "src_sha256": src_digest(),
            "scale": scale,
            "seconds": seconds,
        },
        "input": {
            "messages_per_trace": sorted({len(t.messages) for t in built.traces.values()}),
            "traces": len(built.traces),
            "oracles": len(oracles),
            "functions_per_oracle": oracles,
            "scorings_per_run": scorings,
            "commands_per_run": len(ops),
        },
        "verify_s": verify_s,
        "setups": [{"wall_s": s.total_s, "scaled_s": s.scaled_s} for s in setups],
        "runs": [
            {"traced": run.traced, "wall_s": run.wall, "scaled_s": run.scaled, "rss_mb": run.rss_mb,
             "attempted": run.attempted, "failed": run.failed}
            for run in runs
        ],
        "nondeterministic_runs": nondeterministic,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "end_to_end": end_to_end,
        "unscaled": unscaled,
        "per_layer": per_layer if traced else {},
    }


def print_report(report: dict, trace: bool) -> None:
    inp, env = report["input"], report["environment"]
    print(f"workload     {report['workload']}")
    print(f"why          {report['why']}")
    print(f"input        {inp['messages_per_trace']} messages per trace x {inp['traces']} traces; "
          f"oracles {inp['functions_per_oracle']} (scoring functions each); "
          f"{inp['scorings_per_run']} message-scorings and {inp['commands_per_run']} commands per run")
    print(f"environment  seed {env['seed']}, Python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit'] or 'unknown'}, src sha256 {env['src_sha256'][:16]}")
    print("note         figures from other machines or Python versions, such as ROADMAP.md's Python 3.10 "
          "baseline, are not comparable with these")
    plain = [run for run in report["runs"] if not run["traced"]]
    notes = {
        "setup_s": f"median of {len(report['setups'])} set-ups",
        "msgs_per_s": f"median of {len(plain)} untraced runs",
        "peak_rss_mb": f"median over {len(plain)} untraced runs of the largest child",
    }
    for name, value in report["end_to_end"].items():
        print(f"{name:<34} {value:14.4f} {END_TO_END_UNITS[name]:<9} {notes[name]}")
    for name, value in report["unscaled"].items():
        print(f"{name + ' wall-clock':<34} {value:14.4f} {END_TO_END_UNITS[name]:<9} unscaled")
    print(f"{'fail_ratio':<34} {report['fail_ratio']:14.4f} {'ratio':<9} "
          f"{report['failed']} failed of {report['attempted']} operations")
    units = layer_units()
    for name, value in report["per_layer"].items():
        print(f"{name:<34} {value:14.4f} {units[name]}")
    print("report " + json.dumps(report))
    metrics = report["per_layer"] if trace else report["end_to_end"]
    unit_of = units if trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent in set-ups and timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add traced runs, report per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0, help="input size relative to the default")
    args = parser.parse_args(argv)
    if odl is None or Path(odl.__file__).resolve().parent != SRC / "odl":
        print(f"error: cannot import odl from {SRC}; run the benchmark inside an odl checkout", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and args.scale > 0):
        parser.error("--seconds and --scale must be positive")
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print_report(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
