"""Run one contactsurg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 11 --trace 0

Run from the repository root; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The metrics are
those ``BENCHMARK.json`` lists: its ``end_to_end`` ones with
``--trace 0``, its ``per_layer`` ones with ``--trace 1``. The exit code
is 1 when any answer was wrong, 2 when the package cannot be imported.

One run is one interpreter, so every cache in the program starts cold,
as for a user of the command line. It makes as many passes over the
workload's queries (see ``workloads.py``) as take ``--seconds`` at the
baseline's speed, clearing the program's ``lru_cache`` memos between
passes so that each pass starts cold too. Queries run one at a time
(a closed loop with one client), with no threads and no worker
processes.

End-to-end metrics (tracing off). Every time among them, though its
unit reads ``s``, ``ms`` or ``1/s``, is in reference seconds
(``speed.py``): plain seconds corrected for the host's speed swings, so
they do not read as wall-clock seconds. The plain figures of the passes
are printed above the result line.

- ``setup_s``: interpreter start to inputs ready (``import contactsurg``
  plus input generation), the median over ``SETUP_PROBES`` fresh child
  interpreters started one after another. Each child samples the host's
  speed from the top of this script on, and its time is corrected by
  those samples, less the time it spent taking them.
- ``wall_s``: one pass, from its first query sent to its last answer
  checked; the median over the run's passes.
- ``queries_per_s``: answers checked correct per second of pass time.
- ``query_p50_ms``, ``query_tail_ms``: latency of correct queries, the
  median and the highest percentile with at least ten samples beyond it
  (the maximum with ten samples or fewer); the percentile used and the
  sample count are printed above the result line.
- ``success_rate``: queries answered correctly over queries attempted.
  A query fails if it raises, if ``cli.main`` returns non-zero, if its
  answer is wrong, or if it runs past ``QUERY_DEADLINE_S``.
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

A traced run makes three passes, whatever ``--seconds`` says: one
untraced, one with span wrappers installed (``tracing.py``), which
gives the counts and self times in reference seconds, and one under
``tracemalloc``. The spans, in plain nanoseconds, are written to
``.perfbench_out/`` when the run ends. A pass the run limit cuts is
named above the result line, and the queries it did not reach count as
failed.
"""

from __future__ import annotations

import sys
import time

from speed import SpeedProbe

SETUP_PROBE_INTERVAL_S = 0.002
# A set-up probe (``setup_probe``) samples the host's speed from here on,
# so that the imports below are sampled too.
SETUP_SPEED = (SpeedProbe(SETUP_PROBE_INTERVAL_S).__enter__()
               if "--setup-probe" in sys.argv else None)
SETUP_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PACKAGE = "contactsurg"

QUERY_DEADLINE_S = 60
# No query starts, and a running one is cut, past this many seconds of
# the run, so that every run ends within three minutes.
RUN_LIMIT_S = 150
SETUP_PROBES = 11

STARTED = time.monotonic()


class QueryDeadline(BaseException):
    """Raised in a query that runs out of time. A BaseException, so that
    the program's own ``except Exception`` handlers let it through."""


def _on_alarm(signum, frame):
    raise QueryDeadline


@dataclass
class Outcome:
    query: workloads.Query
    status: str  # ok | wrong | failed
    start_ns: int
    end_ns: int
    detail: str = ""
    output_bytes: int = 0  # standard output of a query through cli.main

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Pass:
    start_ns: int
    end_ns: int
    outcomes: list
    reached: int  # queries run before the run limit; the rest failed unrun

    @property
    def complete(self) -> bool:
        return self.reached == len(self.outcomes)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def import_package():
    """Import contactsurg from this checkout's ``src/`` and no other place."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module(PACKAGE)
        for layer in tracing.LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
    except ImportError as exc:
        print(f"perfbench: cannot import {PACKAGE} from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(package.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: {PACKAGE} was imported from {package.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return package


def clear_memos():
    """Empty every ``functools`` cache in the package, as a fresh
    interpreter would have them."""
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_query(query, deadline_s):
    """Run and check one query; None if the run limit leaves no time."""
    limit = min(deadline_s, RUN_LIMIT_S - (time.monotonic() - STARTED))
    if limit <= 0:
        return None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = end = time.perf_counter_ns()
    try:
        try:
            result = query.call()
        finally:
            end = time.perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryDeadline:
        return Outcome(query, "failed", start, end, f"past {limit:.1f} s")
    except Exception as exc:  # a failing query is counted, not fatal
        return Outcome(query, "failed", start, end, f"{type(exc).__name__}: {exc}")
    output_bytes = len(result[1].encode()) if query.cli else 0
    try:
        status, detail = query.check(result), ""
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        status, detail = "wrong", f"unreadable answer: {exc!r}"
    return Outcome(query, status, start, end, detail, output_bytes)


def run_pass(queries, tracer=None, deadline_s=QUERY_DEADLINE_S) -> Pass:
    """One pass over the queries. A query the run limit leaves no time
    for counts as failed, and the pass as cut."""
    outcomes = []
    start = time.perf_counter_ns()
    for qid, query in enumerate(queries, 1):
        if tracer is not None:
            tracer.query_id = qid
        outcome = run_query(query, deadline_s)
        if outcome is None:
            break
        outcomes.append(outcome)
    end = time.perf_counter_ns()
    reached = len(outcomes)
    outcomes += [Outcome(query, "failed", end, end, "not reached before the run limit")
                 for query in queries[reached:]]
    return Pass(start, end, outcomes, reached)


def run_passes(queries, count) -> list:
    """``count`` passes, fewer if the run limit cuts one short."""
    passes = []
    while len(passes) < count and (not passes or passes[-1].complete):
        clear_memos()
        passes.append(run_pass(queries))
    return passes


def measure_setup(workload, seed) -> list:
    """Reference seconds from starting a fresh interpreter on this script
    to its ``ready`` line, once per probe, one probe at a time. The child
    samples the host's speed while it sets up (``setup_probe``); the time
    it spends probing is taken off before the speed correction."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter_ns()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter_ns() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or not line.startswith("ready "):
                raise RuntimeError(f"setup probe failed: {line!r}")
        factor, busy_ns = line.split()[1:]
        times.append((elapsed - int(busy_ns)) / 1e9 * float(factor))
    return times


def setup_probe(args) -> int:
    """Set up as a run does, with the host's speed sampled since this
    script started, and print ``ready``, the speed factor and the time
    spent probing."""
    workloads.build(args.workload, args.seed, import_package())
    end = time.perf_counter_ns()
    SETUP_SPEED.__exit__(None, None, None)
    print(f"ready {SETUP_SPEED.factor(SETUP_START_NS, end)!r} {SETUP_SPEED.busy_ns}", flush=True)
    return 0


def tail_latency(latencies):
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least ten samples above it, or the maximum for ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes, setup_times, probe):
    outcomes = [o for p in passes for o in p.outcomes]
    done = [p for p in passes if p.complete] or passes
    correct = [o for o in outcomes if o.status == "ok"] or outcomes
    latencies = [probe.seconds(o.start_ns, o.end_ns) for o in correct]
    tail, percentile, samples = tail_latency(latencies)
    walls = [probe.seconds(p.start_ns, p.end_ns) for p in done]
    checked = sum(o.status == "ok" for p in done for o in p.outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "queries_per_s": (checked / sum(walls), "1/s"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_tail_ms": (1000 * tail, "ms"),
        "success_rate": (sum(o.status == "ok" for o in outcomes) / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    plain = sorted(o.seconds for o in correct)
    notes = [
        f"passes: {len(passes)} ({len(done)} complete), queries per pass: "
        f"{len(passes[0].outcomes)}, speed samples: {len(probe.times)}",
        "pass wall, reference s: " + ", ".join(f"{w:.4f}" for w in walls),
        "pass wall, plain s: " + ", ".join(f"{p.seconds:.4f}" for p in done),
        f"query_tail_ms: p{percentile:.1f} of {samples} correct queries; plain p50 "
        f"{1000 * statistics.median(plain):.4f} ms, tail {1000 * tail_latency(plain)[0]:.4f} ms",
        "setup probes, reference s: " + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    return metrics, notes


def traced(queries, workload, seed):
    tracer = tracing.Tracer(PACKAGE)
    with SpeedProbe() as probe:
        clear_memos()
        plain = run_pass(queries)
        tracer.install()
        try:
            clear_memos()
            traced_pass = run_pass(queries, tracer)
        finally:
            tracer.uninstall()
    clear_memos()
    tracemalloc.start()
    try:
        # Allocation tracing slows this pass several times over, so only
        # the run limit cuts its queries.
        memory = run_pass(queries, deadline_s=RUN_LIMIT_S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    metrics = tracer.layer_metrics(probe.factor)
    metrics["trace.overhead_ratio"] = (
        probe.seconds(traced_pass.start_ns, traced_pass.end_ns)
        / probe.seconds(plain.start_ns, plain.end_ns), "ratio")
    metrics["process.tracemalloc_peak_mb"] = (peak / 2**20, "MB")
    metrics["cli.output_bytes"] = (sum(o.output_bytes for o in traced_pass.outcomes), "bytes")
    unknot = [(o.query.size, probe.seconds(o.start_ns, o.end_ns)) for o in plain.outcomes
              if o.query.kind == "unknot" and o.status == "ok"]
    metrics["farey.unknot.exponent"] = (tracing.loglog_slope(unknot), "log-log")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
    tracer.write_spans(spans_path)
    notes = [f"untraced pass {plain.seconds:.4f} s, traced pass {traced_pass.seconds:.4f} s, "
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    passes = {"untraced": plain, "traced": traced_pass, "tracemalloc": memory}
    for name, cut in passes.items():
        if not cut.complete:
            notes.append(f"{name} pass cut by the run limit after {cut.reached} of "
                         f"{len(queries)} queries: the figures taken from it cover "
                         "part of a pass, and the rest count as failed")
    return list(passes.values()), metrics, notes


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=11)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop once the inputs are ready (times set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    package = import_package()
    queries = workloads.build(args.workload, args.seed, package)
    declared = declared_metrics(bool(args.trace))
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        passes, metrics, notes = traced(queries, args.workload, args.seed)
    else:
        setup_times = measure_setup(args.workload, args.seed)
        probe = SpeedProbe()
        count = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        with probe:
            passes = run_passes(queries, count)
        metrics, notes = end_to_end(passes, setup_times, probe)

    outcomes = [o for p in passes for o in p.outcomes]
    wrong = any(o.status == "wrong" for o in outcomes)
    problems = Counter((o.status, o.query.label, o.detail)
                       for o in outcomes if o.status != "ok")
    for (status, label, detail), times in problems.items():
        notes.append(f"{status} x{times}: {label}: {detail}")
    missing = set(declared) - set(metrics)
    if missing or any(metrics[name][1] != unit for name, unit in declared.items()):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: missing {sorted(missing)}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
