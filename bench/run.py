"""bucketlens benchmark: whole CLI commands over generated fleets.

Usage (from the root of a checkout; stdlib only, nothing to install):

    python3 bench/run.py --workload paper-evaluate --seed 42 --seconds 32 --trace 0
    python3 bench/run.py --workload all --repeat 10

Each command runs as a fresh ``python -m bucketlens.cli`` process with
``src`` on ``PYTHONPATH``, started by the small helper ``bench/launcher.py``,
one at a time, in a closed loop: the next command starts only when the
previous one has exited. A run first sets up: it
generates the workload's fleet and truth files from ``--seed``
(``SETUP_REPEATS`` times, for a median ``setup_s``). It then repeats the
workload's command sequence (a "batch") until ``--seconds`` have passed,
and checks every command's output outside the timed interval; a command
that exits non-zero or whose output fails a check counts as failed.

Before and after each ``generate`` of the set-up and each untraced batch the
run times ``bench/reference.py``, a fixed pure-Python task.
``buckets_per_ref`` measures each batch in units of it, and ``setup_s`` each
``generate``, which cancels the drift in speed of a shared machine.

With ``--trace 0`` the run reports end-to-end metrics. With ``--trace 1``
each untraced batch is followed by the same batch traced in-process by
``bench/tracer.py``, and the run reports per-layer metrics, the tracing
overhead, and writes the merged trace to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, where ``metrics`` holds exactly
the metrics ``BENCHMARK.json`` declares for the mode. The lines before it,
prefixed with ``#``, print every metric the run measured, the
workload-specific ones included, and an environment stamp. ``--repeat K`` or
``--workload all`` runs each chosen workload K times on seeds SEED..SEED+K-1
and prints the median and quartiles of every metric instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RULE_FILE = ROOT / "rules" / "unified.rule"
CONTRACT = ROOT / "BENCHMARK.json"
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 42
SETUP_REPEATS = 7
# Median wall time of bench/reference.py on the machine the benchmark was
# calibrated on (2 cores, x86-64, Python 3.11.7). ``setup_s`` is the set-up
# time in seconds of that machine: generate's wall time in reference units,
# times this constant.
REFERENCE_S = 0.27
# Commands still running this long after the measuring time has ended are
# killed and count as failed, so a run always ends within 180 s of its start
# plus its measuring time.
GRACE_S = 140.0


class SetupError(Exception):
    """The fleet could not be generated, so the workload cannot run."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    max_rss_kb: int


class Launcher:
    """Runs CLI commands through the ``bench/launcher.py`` helper process.

    The helper starts each command, so that a command's peak RSS is its own
    and not the benchmark's (see that file). Environment of the commands:
    this process's, with ``src`` on ``PYTHONPATH`` and no restrictive-key
    override.
    """

    def __enter__(self) -> "Launcher":
        env = {k: v for k, v in os.environ.items() if k != "BUCKETLENS_RESTRICTIVE_KEYS"}
        env["PYTHONPATH"] = str(SRC)
        self.helper = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        return self

    def __call__(self, cli_args: list[str], stdout: Path, deadline: float,
                 trace: Path | None = None) -> Proc:
        """Run one CLI command to completion; it is killed at ``deadline`` (a perf_counter value)."""
        if trace is None:
            argv = [sys.executable, "-m", "bucketlens.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace), "--", *cli_args]
        return self.run(argv, stdout, deadline)

    def run(self, argv: list[str], stdout: Path, deadline: float) -> Proc:
        request = {"argv": argv, "stdout": str(stdout),
                   "timeout": max(0.0, deadline - time.perf_counter())}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher helper exited")
        return Proc(**json.loads(reply))

    def __exit__(self, *exc_info) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

@dataclass
class Command:
    metric: str
    proc: Proc
    stdout_bytes: int
    evaluates_fleet: bool
    trace: Path | None


@dataclass
class Run:
    workload: "Workload"
    seed: int
    buckets: int
    workdir: Path
    deadline: float
    digests: dict[str, str] | None  # recorded stdout digests, checked at the default seed and size
    launch: Launcher
    fleet: Path = field(init=False)
    truth: Path = field(init=False)
    risky: frozenset[str] = frozenset()
    explain_bucket: str = ""
    setup_walls: list[float] = field(default_factory=list)
    setup_reference_walls: list[float] = field(default_factory=list)  # around each generate
    reference_walls: list[float] = field(default_factory=list)  # around each untraced batch
    attempted: int = 0
    failed: int = 0
    untraced: list[list[Command]] = field(default_factory=list)
    traced: list[list[Command]] = field(default_factory=list)
    setup_trace: Path | None = None
    notes: dict[str, str] = field(default_factory=dict)
    state_bytes: int = 0
    _batch: list[Command] = field(default_factory=list)
    _tracing: bool = False

    def __post_init__(self) -> None:
        self.fleet = self.workdir / "fleet.jsonl"
        self.truth = self.workdir / "fleet.truth.jsonl"

    def generate(self, out: Path, trace: Path | None = None) -> float:
        args = ["generate", "--total", str(self.buckets), "--mix", self.workload.mix,
                "--seed", str(self.seed), "--out", str(out)]
        proc = self.launch(args, self.workdir / "generate.out", self.deadline, trace)
        if proc.code != 0:
            err = (self.workdir / "generate.out.err").read_text(encoding="utf-8", errors="replace")
            raise SetupError(f"generate exited with {proc.code}: {err.strip()}")
        return proc.wall_s

    def reference(self) -> float:
        """Wall time of the reference task, run now."""
        proc = self.launch.run([sys.executable, str(BENCH_DIR / "reference.py")],
                               self.workdir / "reference.out", self.deadline)
        if proc.code != 0:
            raise SetupError(f"the reference task exited with {proc.code}")
        return proc.wall_s

    def setup(self, repeats: int, traced: bool) -> None:
        for _ in range(repeats):
            self.setup_reference_walls.append(self.reference())
            self.setup_walls.append(self.generate(self.fleet))
        self.setup_reference_walls.append(self.reference())
        if traced:
            self.setup_trace = self.workdir / "generate.trace.json"
            copy = self.workdir / "traced-fleet.jsonl"
            self.generate(copy, self.setup_trace)
            if sha256_file(copy) != sha256_file(self.fleet):
                raise SetupError("traced generate wrote a different fleet than untraced generate")
        risky = []
        with open(self.truth, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                if row["business_risk"]:
                    risky.append(row["name"])
        if not risky:
            raise SetupError("the generated fleet has no business-risk bucket")
        self.risky = frozenset(risky)
        self.explain_bucket = random.Random(self.seed).choice(sorted(risky))

    def command(
        self,
        metric: str,
        cli_args: list[str],
        check: Callable[[Path], str | None],
        evaluates_fleet: bool = True,
    ) -> None:
        """Run one timed command, then check its output outside the timed interval."""
        stdout = self.workdir / f"{metric}.out"
        trace = self.workdir / f"{metric}.trace.json" if self._tracing else None
        proc = self.launch(cli_args, stdout, self.deadline, trace)
        self.attempted += 1
        problem = None
        if proc.code != 0:
            problem = f"exit code {proc.code}"
        else:
            try:
                problem = self._check(metric, stdout, check)
            except Exception as exc:  # malformed output of any kind is a failed command
                problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            print(f"# FAILED {self.workload.name} {metric}: {problem}", file=sys.stderr)
        self._batch.append(
            Command(metric, proc, stdout.stat().st_size, evaluates_fleet, trace)
        )

    def _check(self, metric: str, stdout: Path, check: Callable[[Path], str | None]) -> str | None:
        problem = check(stdout)
        if problem is None and self.digests is not None:
            observed = sha256_file(stdout)
            if self.digests.get(metric) != observed:
                problem = f"stdout sha256 {observed} differs from the recorded digest"
        return problem

    def batch(self, tracing: bool) -> None:
        if not tracing:
            self.reference_walls.append(self.reference())
        self._batch, self._tracing = [], tracing
        self.workload.batch(self)
        (self.traced if tracing else self.untraced).append(self._batch)


def _load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def batch_paper_evaluate(run: Run) -> None:
    report = run.workdir / "report.json"
    report.unlink(missing_ok=True)

    def check(stdout: Path) -> str | None:
        doc = _load_json(report)
        unified = doc["rulesets"]["unified"]
        if unified["precision"] != 1.0:
            return f"unified precision is {unified['precision']}, expected 1.0"
        if unified["total_alerts"] != len(run.risky):
            return (f"unified total_alerts is {unified['total_alerts']}, "
                    f"expected {len(run.risky)} business-risk buckets")
        run.notes["paper table"] = (
            f"default {doc['rulesets']['default']['total_alerts']} alerts, "
            f"unified {unified['total_alerts']} alerts, reduction {doc['reduction_rate']}"
        )
        return None

    run.command("evaluate_s", ["evaluate", "--input", str(run.fleet), "--truth", str(run.truth),
                               "--report", str(report), "--format", "table"], check)


def batch_adversarial_scan_state(run: Run) -> None:
    state = run.workdir / "state.json"
    state.unlink(missing_ok=True)
    Path(str(state) + ".lock").unlink(missing_ok=True)
    first_total: list[int] = []

    def scan_args(scan_id: str) -> list[str]:
        return ["scan", "--input", str(run.fleet), "--rules", "both",
                "--state", str(state), "--scan-id", scan_id]

    def state_problem(total: int) -> str | None:
        held = len(_load_json(state)["first_seen"])
        run.state_bytes = state.stat().st_size
        return None if held == total else f"state holds {held} fingerprints, expected {total}"

    def check_first(stdout: Path) -> str | None:
        doc = _load_json(stdout)
        total, diff = doc["total_alerts"], doc["diff"]
        if len(doc["alerts"]) != total:
            return f"{len(doc['alerts'])} alerts listed but total_alerts is {total}"
        if len(diff["new"]) != total or diff["unchanged"] or diff["resolved"]:
            return "first scan's diff is not all new"
        first_total.append(total)
        return state_problem(total)

    def check_rescan(stdout: Path) -> str | None:
        doc = _load_json(stdout)
        total, diff = doc["total_alerts"], doc["diff"]
        if first_total != [total]:
            return f"rescan total_alerts {total} differs from the first scan's {first_total}"
        if len(diff["unchanged"]) != total or diff["new"] or diff["resolved"]:
            return "rescan's diff is not all unchanged"
        return state_problem(total)

    run.command("scan_s", scan_args("s1"), check_first)
    run.command("rescan_s", scan_args("s2"), check_rescan)


def batch_paper_unified_dsl(run: Run) -> None:
    scanned: list[set[str]] = []

    def alerted(stdout: Path) -> set[str]:
        doc = _load_json(stdout)
        if len(doc["alerts"]) != doc["total_alerts"]:
            raise ValueError("alert list length differs from total_alerts")
        return {alert["bucket_name"] for alert in doc["alerts"]}

    def check_scan(stdout: Path) -> str | None:
        scanned.append(alerted(stdout))
        return None

    def check_rules(stdout: Path) -> str | None:
        if not scanned:  # the scan failed and was counted; there is nothing to compare with
            alerted(stdout)
            return None
        if [alerted(stdout)] != scanned:
            return "rules run alerted other buckets than scan --rules unified"
        return None

    def check_explain(stdout: Path) -> str | None:
        lines = stdout.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith(f"bucket: {run.explain_bucket} "):
            return "explain did not describe the requested bucket"
        verdict = [line for line in lines if line.startswith("unified alert: ")]
        if verdict in ([], ["unified alert: none"]):
            return "explain reports no unified alert for an alerted bucket"
        return None

    run.command("scan_s", ["scan", "--input", str(run.fleet), "--rules", "unified"], check_scan)
    run.command("rules_run_s", ["rules", "run", "--file", str(RULE_FILE),
                                "--input", str(run.fleet)], check_rules)
    run.command("explain_s", ["explain", run.explain_bucket, "--input", str(run.fleet)],
                check_explain, evaluates_fleet=False)


@dataclass(frozen=True)
class Workload:
    name: str
    mix: str
    buckets: int
    batch: Callable[[Run], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-evaluate", "paper", 10_000, batch_paper_evaluate),
        Workload("adversarial-scan-state", "adversarial", 5_000, batch_adversarial_scan_state),
        Workload("paper-unified-dsl", "paper", 10_000, batch_paper_unified_dsl),
    )
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def in_reference_units(walls: list[float], references: list[float]) -> float:
    """Median of each wall time over the mean of the reference runs just before and after it.

    Both run on the same machine within seconds of each other, so the ratio
    cancels the drift in machine speed that raw times carry; bracketing
    halves the noise one short reference run adds.
    """
    return statistics.median(w / ((a + b) / 2) for w, a, b in zip(walls, references, references[1:]))


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    batches = run.untraced
    commands = [c for batch in batches for c in batch]
    walls = [sum(c.proc.wall_s for c in batch) for batch in batches]
    batch_s = statistics.median(walls)
    batch_ref = in_reference_units(walls, run.reference_walls)
    per_batch = run.buckets * len(batches[0])
    metrics = {
        "setup_s": (REFERENCE_S * in_reference_units(run.setup_walls, run.setup_reference_walls), "s"),
        "setup_wall_s": (statistics.median(run.setup_walls), "s"),
        "buckets_per_ref": (per_batch / batch_ref, "buckets/ref"),
        "buckets_per_s": (per_batch / batch_s, "buckets/s"),
        "batch_s": (batch_s, "s"),
        "reference_s": (statistics.median(run.reference_walls), "s"),
        "peak_rss_mb": (max(c.proc.max_rss_kb for c in commands) / 1024, "MB"),
        "error_rate": (run.failed / run.attempted, "ratio"),
    }
    per_command: dict[str, list[float]] = {}
    for c in commands:
        per_command.setdefault(c.metric, []).append(c.proc.wall_s)
    for name, values in per_command.items():
        metrics[name] = (statistics.median(values), "s")
    return metrics


def fold_traces(paths: list[Path]) -> dict[str, list[float]]:
    """Sum the traced calls of several commands per function: [count, total_s, self_s, hits]."""
    totals: dict[str, list[float]] = {}
    for path in paths:
        for call in _load_json(path)["calls"]:
            entry = totals.setdefault(call["name"], [0, 0.0, 0.0, 0])
            entry[0] += call["count"]
            entry[1] += call["total_s"]
            entry[2] += call["self_s"]
            entry[3] += call["hits"]
    return totals


def layer_metrics(run: Run, untraced: list[Command], traced: list[Command],
                  setup: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch; a layer the batch never calls is absent.

    Per-bucket and per-call figures of ``policy``, ``defaults`` and ``unified``
    count only the commands that evaluate the whole fleet, so one ``explain``
    call does not stand for a workload.
    """
    calls = fold_traces([c.trace for c in traced])
    fleet_passes = [c for c in traced if c.evaluates_fleet]
    fleet = fold_traces([c.trace for c in fleet_passes])
    fleet_buckets = run.buckets * len(fleet_passes)
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float | None, unit: str) -> None:
        if value is not None:
            metrics[name] = (value, unit)

    def seconds(func: str, source=calls) -> float | None:
        return source[func][1] if func in source else None

    def us_per_call(func: str, source=calls) -> float | None:
        return source[func][1] / source[func][0] * 1e6 if func in source else None

    def hits_per_call(func: str) -> float | None:
        return calls[func][3] / calls[func][0] if func in calls else None

    def alerts_per_bucket(func: str) -> float | None:
        """Alerts per call of a per-bucket rule function; 0 if no fleet pass calls it."""
        if not fleet_passes:
            return None
        return fleet[func][3] / fleet[func][0] if func in fleet else 0.0

    def scaled(value: float | None, factor: float) -> float | None:
        return None if value is None else value * factor

    for layer in LAYERS:
        own = [entry for name, entry in calls.items() if name.startswith(layer + ".")]
        if own:
            put(f"{layer}.self_s", sum(entry[2] for entry in own), "s")
    put("cli.stdout_bytes", sum(c.stdout_bytes for c in traced), "bytes")
    put("proc.wait_s", sum(c.proc.wall_s - c.proc.cpu_s for c in untraced), "s")
    put("trace.overhead_s", sum(c.proc.wall_s for c in traced) - sum(c.proc.wall_s for c in untraced), "s")

    put("model.load_fleet.s", seconds("model.load_fleet"), "s")
    put("model.parse_snapshot_line.us_per_call", us_per_call("model.parse_snapshot_line"), "us")
    put("model.input_bytes", run.fleet.stat().st_size, "bytes")
    put("model.serialize_snapshot_line.us_per_call", us_per_call("model.serialize_snapshot_line", setup), "us")
    put("fleetgen.generate_fleet.s", seconds("fleetgen.generate_fleet", setup), "s")
    put("fleetgen.ground_truth_for.us_per_call", us_per_call("fleetgen.ground_truth_for", setup), "us")
    put("policy.effective_anonymous_access.us_per_call",
        us_per_call("policy.effective_anonymous_access", setup), "us")
    put("fleetgen.write_truth.s", seconds("fleetgen.write_truth", setup), "s")
    put("fleetgen.load_truth.s", seconds("fleetgen.load_truth"), "s")

    if "policy.derive" in fleet:
        put("policy.derive.calls_per_bucket", fleet["policy.derive"][0] / fleet_buckets, "calls/bucket")
    put("policy.derive.us_per_call", us_per_call("policy.derive", fleet), "us")
    put("defaults.evaluate_default.us_per_call", us_per_call("defaults.evaluate_default", fleet), "us")
    put("defaults.alerts_per_bucket", alerts_per_bucket("defaults.evaluate_default"), "alerts/bucket")
    put("unified.evaluate_unified.us_per_call", us_per_call("unified.evaluate_unified", fleet), "us")
    put("unified.alerts_per_bucket", alerts_per_bucket("unified.evaluate_unified"), "alerts/bucket")

    put("dsl.parse_rule.ms", scaled(seconds("dsl.parse_rule"), 1e3), "ms")
    put("dsl.bind_record.us_per_call", us_per_call("dsl.bind_record"), "us")
    put("dsl.eval_rule.us_per_call", us_per_call("dsl.eval_rule"), "us")
    put("dsl.eval_rule.match_ratio", hits_per_call("dsl.eval_rule"), "ratio")

    if "evaluation.scan_fleet" in calls:
        put("evaluation.scan_fleet.calls", calls["evaluation.scan_fleet"][0], "count")
    put("evaluation.scan_fleet.s", seconds("evaluation.scan_fleet"), "s")
    put("evaluation.compute_metrics.ms", scaled(seconds("evaluation.compute_metrics"), 1e3), "ms")
    put("evaluation.render_report.ms", scaled(seconds("evaluation.render_report"), 1e3), "ms")
    put("evaluation.alert_to_dict.us_per_call", us_per_call("evaluation.alert_to_dict"), "us")
    if "evaluation.alert_fingerprint" in calls and "evaluation.alert_to_dict" in calls:
        put("evaluation.alert_fingerprint.calls_per_alert",
            calls["evaluation.alert_fingerprint"][0] / calls["evaluation.alert_to_dict"][0], "calls/alert")
    put("evaluation.diff_alerts.s", seconds("evaluation.diff_alerts"), "s")
    put("evaluation.load_state.s", seconds("evaluation.load_state"), "s")
    put("evaluation.save_state.s", seconds("evaluation.save_state"), "s")
    if run.state_bytes:
        put("evaluation.state_bytes", run.state_bytes, "bytes")
    return metrics


def traced_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Median over the traced batches of each per-layer metric."""
    setup = fold_traces([run.setup_trace])
    per_batch = [layer_metrics(run, u, t, setup) for u, t in zip(run.untraced, run.traced)]
    merged: dict[str, tuple[float, str]] = {}
    for name in per_batch[0]:
        values = [m[name][0] for m in per_batch if name in m]
        merged[name] = (statistics.median(values), per_batch[0][name][1])
    return merged


def write_trace(run: Run) -> Path:
    """Merge the spans of the last traced batch (setup included) into one file."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.workload.name}-seed{run.seed}.json"
    commands = [("generate", run.setup_trace)] + [(c.metric, c.trace) for c in run.traced[-1]]
    merged = [{"command": metric, **_load_json(trace)} for metric, trace in commands]
    path.write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 buckets: int | None = None) -> tuple[Run, dict[str, tuple[float, str]]]:
    """Set up, measure for ``seconds`` and return the run with its metrics."""
    started = time.perf_counter()
    buckets = buckets or workload.buckets
    digests = None
    if seed == DEFAULT_SEED and buckets == workload.buckets:
        digests = _load_json(DIGESTS).get(workload.name, {})
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        with Launcher() as launch:
            run = Run(workload, seed, buckets, workdir, started + seconds + GRACE_S, digests, launch)
            run.setup(1 if trace else SETUP_REPEATS, traced=trace)
            measure_until = time.perf_counter() + seconds
            while True:
                run.batch(tracing=False)
                if trace:
                    run.batch(tracing=True)
                if time.perf_counter() >= measure_until:
                    break
            if not trace:
                run.reference_walls.append(run.reference())  # after the last batch
        if trace:
            metrics = traced_metrics(run)
            run.notes["trace"] = str(write_trace(run).relative_to(ROOT))
        else:
            metrics = end_to_end_metrics(run)
        return run, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment(run: Run) -> dict:
    return {
        "workload": run.workload.name,
        "mix": run.workload.mix,
        "seed": run.seed,
        "buckets": run.buckets,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_sha(),
    }


def print_run(run: Run, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"# env {json.dumps(environment(run))}")
    why = {w["name"]: w["why"] for w in _load_json(CONTRACT)["workloads"]}
    print(f"# why {why[run.workload.name]}")
    batches = len(run.traced) or len(run.untraced)
    print(f"# {batches} batch(es), {run.attempted} commands, {run.failed} failed")
    for key, text in run.notes.items():
        print(f"# {key}: {text}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:48} {value:>16.6f} {unit}")


def contract_result(run: Run, metrics: dict[str, tuple[float, str]], trace: bool) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json declares for this mode."""
    declared = _load_json(CONTRACT)["per_layer" if trace else "end_to_end"]
    chosen = {}
    for spec in declared:
        name = spec["name"]
        if name not in metrics:
            raise SystemExit(f"declared metric {name} was not measured on {run.workload.name}")
        value, unit = metrics[name]
        if unit != spec["unit"]:
            raise SystemExit(f"metric {name} is in {unit}, BENCHMARK.json says {spec['unit']}")
        chosen[name] = {"value": value, "unit": unit}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": chosen,
    }


def summarize(samples: dict[str, dict[str, list[tuple[float, str]]]]) -> dict:
    """Median, quartiles and quartile spread (share of the median) of every metric."""
    summary: dict = {}
    for workload, metrics in samples.items():
        print(f"# summary {workload}: {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} n")
        summary[workload] = {}
        for name, values in metrics.items():
            numbers = [value for value, _ in values]
            median = statistics.median(numbers)
            q1, _, q3 = statistics.quantiles(numbers, n=4) if len(numbers) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            unit = values[0][1]
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "unit": unit, "n": len(numbers)}
            print(f"# summary {workload}: {name:40} {median:14.6f} {q1:14.6f} {q3:14.6f} "
                  f"{spread:8.2%} {len(numbers)} {unit}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds SEED..SEED+K-1, summarized")
    parser.add_argument("--buckets", type=int, help="fleet size (default: the workload's own)")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "bucketlens" / "cli.py", RULE_FILE, CONTRACT) if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a bucketlens checkout",
              file=sys.stderr)
        return 2

    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    try:
        if len(chosen) == 1 and args.repeat == 1:
            run, metrics = run_workload(chosen[0], args.seed, args.seconds, bool(args.trace), args.buckets)
            print_run(run, metrics)
            print(json.dumps(contract_result(run, metrics, bool(args.trace))))
            return 0
        samples: dict[str, dict[str, list[tuple[float, str]]]] = {}
        for workload in chosen:
            for index in range(args.repeat):
                run, metrics = run_workload(workload, args.seed + index, args.seconds,
                                            bool(args.trace), args.buckets)
                print_run(run, metrics)
                for name, value in metrics.items():
                    samples.setdefault(workload.name, {}).setdefault(name, []).append(value)
        print(json.dumps(summarize(samples)))
        return 0
    except SetupError as exc:
        print(f"error: setup failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
