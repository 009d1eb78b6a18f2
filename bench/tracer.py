"""Run one bucketlens CLI command in-process with every public function traced.

Usage: python bench/tracer.py TRACE_JSON -- CLI_ARGS...

The bucketlens package must be importable (``PYTHONPATH=src``). Before
calling ``bucketlens.cli.main(CLI_ARGS)``, every public function of each
layer module is replaced, under every module-level name that refers to it,
with a wrapper that times and counts its calls. The source tree is not
touched. Calls made through a name bound at import time (a function kept in
a table or closure) are not seen.

Functions in ``STAGES`` run a handful of times per command and each call is
kept as a span: id, parent span id, name, start, end and self time. Every
other call is aggregated per (parent span, function) into a count, a total
time and a self time, which keeps the trace small when a function runs once
per bucket. Self time is a call's duration minus the time covered by the
traced calls made inside it. The trace is written to TRACE_JSON when the
command ends, and the process exits with the command's exit code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "model", "fleetgen", "policy", "defaults", "unified", "dsl", "evaluation")

STAGES = frozenset(
    {
        "cli.main",
        "cli.build_parser",
        "cli.cmd_generate",
        "cli.cmd_scan",
        "cli.cmd_evaluate",
        "cli.cmd_explain",
        "cli.cmd_rules_run",
        "model.load_fleet",
        "fleetgen.generate_fleet",
        "fleetgen.write_truth",
        "fleetgen.load_truth",
        "evaluation.scan_fleet",
        "evaluation.compute_metrics",
        "evaluation.render_report",
        "evaluation.report_to_dict",
        "evaluation.diff_alerts",
        "evaluation.load_state",
        "evaluation.save_state",
        "dsl.parse_rule",
    }
)

# Functions whose result is counted as "hits": alerts raised, or rule matches.
HITS = {
    "defaults.evaluate_default": len,
    "unified.evaluate_unified": lambda alert: alert is not None,
    "dsl.eval_rule": bool,
}


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        # The root span (id 0) is the whole command.
        self.spans: list[dict] = [{"id": 0, "parent": None, "name": "command", "start": 0.0}]
        self.calls: dict[tuple[int, str], list] = {}
        # One entry per active traced call: [span id that owns its children, child time].
        self.stack: list[list] = [[0, 0.0]]

    def wrap(self, name: str, fn):
        is_stage = name in STAGES
        count_hits = HITS.get(name)
        spans, calls, stack = self.spans, self.calls, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            owner = parent[0]
            if is_stage:
                span = {"id": len(spans), "parent": owner, "name": name}
                spans.append(span)
                frame = [span["id"], 0.0]
            else:
                frame = [owner, 0.0]
            stack.append(frame)
            start = clock()
            hits = 0
            try:
                result = fn(*args, **kwargs)
                if count_hits is not None:
                    hits = int(count_hits(result))
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                self_time = duration - frame[1]
                if is_stage:
                    span["start"] = start - self.origin
                    span["end"] = end - self.origin
                    span["self_s"] = self_time
                entry = calls.get((owner, name))
                if entry is None:
                    calls[(owner, name)] = [1, duration, self_time, hits]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_time
                    entry[3] += hits

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap each public layer function for its wrapper under every module-level name."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bucketlens.{layer}")
            for attr, obj in list(vars(module).items()):
                # Decorated functions (the state lock context manager) are skipped:
                # the wrapper would time only building the decorator's object.
                if attr.startswith("_") or not inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("bucketlens.") or home not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{home}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])

    def finish(self, path: str) -> None:
        root = self.spans[0]
        root["end"] = time.perf_counter() - self.origin
        root["self_s"] = root["end"] - self.stack[0][1]
        trace = {
            "spans": self.spans,
            "calls": [
                {"parent": owner, "name": name, "count": c, "total_s": t, "self_s": s, "hits": h}
                for (owner, name), (c, t, s, h) in self.calls.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("bucketlens.cli")
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.finish(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
