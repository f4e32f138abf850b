"""One workload run inside a fresh, single-threaded Python process.

``run.py`` starts this script; it is not meant to be called by hand,
except to record reference outputs:

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --mode record

Modes:

* ``setup``: import the package, build the models and generate the
  workload, then report how long that took.
* ``run``: set up, run one untimed warm-up item, then run whole passes
  over the item cycle in a closed loop for ``--seconds`` and check every
  output (see :func:`timed_run`).
* ``trace``: set up, run a warm-up pass, then passes that run each item
  untraced and traced, check that all give the same outputs, and report
  per-layer metrics.
* ``record``: run the cycle once at the default seed and store its
  outputs as the reference that later runs at that seed must match.

Times are reported at the reference host speed of ``hostspeed``, with
the wall times beside them.  The result is one JSON object on the last
line of standard output.
"""

from time import perf_counter

import hostspeed

hostspeed.loop_s()  # the first run of the loop is cold
SETUP_LOOP = hostspeed.loop_s()  # host speed just before set-up
T0 = perf_counter()  # set-up time counts from here, before the package is imported

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
MAX_REPORTED_FAILURES = 5
TRACED_PASSES = 4
STRETCH_S = 0.05  # call time between two timings of the host-speed loop


class Checker:
    """Checks each item's output: invariants, repeatability and reference."""

    def __init__(self, items, reference):
        self.items = items
        self.reference = reference
        self.first: dict = {}
        self.latest: dict = {}
        self.failures: list[str] = []

    def check(self, idx: int, result, error) -> tuple[object, bool]:
        item = self.items[idx]
        if error is not None:
            if len(self.failures) < MAX_REPORTED_FAILURES:
                traceback.print_exception(error, file=sys.stderr)
            return None, self.fail(idx, f"raised {error!r}")
        try:
            rec = item.record(result)
        except OSError as exc:
            return None, self.fail(idx, f"no output to check: {exc}")
        problems = [msg for chk in item.checks if (msg := chk(rec, self.latest))]
        if idx in self.first and self.first[idx] != rec:
            problems.append("output differs from an earlier run of the same item")
        if self.reference is not None and self.reference[idx] != rec:
            problems.append("output differs from the recorded reference")
        self.first.setdefault(idx, rec)
        self.latest[idx] = rec
        if problems:
            return rec, self.fail(idx, "; ".join(problems))
        return rec, True

    def fail(self, idx: int, message: str) -> bool:
        self.failures.append(f"item {idx} ({self.items[idx].label}): {message}")
        return False


def call(item):
    """Time one item; an exception is the item's failure, not the run's."""
    t0 = perf_counter()
    try:
        result, error = item.call(), None
    except Exception as exc:  # the item boundary: the checker records it
        result, error = None, exc
    return result, error, perf_counter() - t0


def timed_run(items, checker: Checker, seconds: float) -> dict:
    """Closed loop over whole passes of the cycle until ``seconds`` have passed.

    A new pass starts only while time remains, so every item runs equally
    often and a run measures ``seconds`` plus at most one pass.

    The calls run in stretches of at least ``STRETCH_S`` of call time (an
    item that took longer than that in the previous pass starts a stretch
    of its own), and the host-speed loop is timed between stretches; each
    call's wall time is scaled to the reference speed by its stretch's
    factor.  p50 and p90 are the medians over the passes of each pass's
    percentiles, and the throughput is completed calls per second of
    calls, all at reference speed.  Each pass holds every item once, so a pass's percentiles
    weigh the items as the run does; their median over the passes does
    not hinge on the one or two calls that sit where two items' latencies
    meet, as a percentile pooled over all calls does when the cycle is
    short (cli_mix: eight items, p50 between the fourth and the fifth).
    The pooled percentiles and the figures from the wall times are
    returned beside them.
    """
    hostspeed.loop_s()
    checker.check(0, *call(items[0])[:2])  # warm-up: lazy set-up in the models
    order: list[int] = []
    wall: list[float] = []
    scaled: list[float] = []
    loops = [hostspeed.loop_s()]
    failed = 0

    def close_stretch():
        loops.append(hostspeed.loop_s())
        f = hostspeed.factor(loops[-2], loops[-1])
        scaled.extend(v * f for v in wall[len(scaled):])

    stretch = 0.0
    last = [0.0] * len(items)  # each item's latest wall time
    t0 = perf_counter()
    deadline = t0 + seconds
    while perf_counter() < deadline:
        for idx, item in enumerate(items):
            if stretch and last[idx] >= STRETCH_S:  # a long call gets a stretch of its own
                close_stretch()
                stretch = 0.0
            result, error, dt = call(item)
            last[idx] = dt
            order.append(idx)
            wall.append(dt * 1e3)
            failed += not checker.check(idx, result, error)[1]
            stretch += dt
            if stretch >= STRETCH_S:
                close_stretch()
                stretch = 0.0
    if len(scaled) < len(wall):
        close_stretch()
    elapsed = perf_counter() - t0
    by_label = collections.defaultdict(list)
    for idx, v in zip(order, scaled):
        by_label[items[idx].label].append(v)
    attempted = len(wall)
    completed = attempted - failed

    def figures(ms: list[float]) -> dict:
        n = len(items)
        per_pass = [
            statistics.quantiles(ms[i : i + n], n=10, method="inclusive")
            for i in range(0, len(ms), n)
        ]
        p50 = statistics.median(q[4] for q in per_pass)
        p90 = statistics.median(q[8] for q in per_pass)
        pooled = statistics.quantiles(ms, n=10, method="inclusive")
        return {
            "items_per_s": completed * 1e3 / sum(ms),
            "busy_s": sum(ms) / 1e3,
            "item_ms.p50": p50,
            "item_ms.p90": p90,
            "beyond_p90": sum(1 for v in ms if v > p90),
            "pooled": [pooled[4], pooled[8]],
        }

    slowdown = [v / hostspeed.REFERENCE_S for v in loops]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": attempted // len(items),
        "elapsed_s": elapsed,
        **figures(scaled),
        "wall": figures(wall),
        "host": {
            "loops": len(loops),
            "loops_s": sum(loops),
            "slowdown": [min(slowdown), statistics.median(slowdown), max(slowdown)],
        },
        "label_ms": {
            label: [statistics.median(v), min(v), len(v)] for label, v in sorted(by_label.items())
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(items, checker: Checker, spans_path: str) -> dict:
    """Per-layer metrics from one traced pass, and the cost of tracing.

    After a warm-up pass, each pass runs every item untraced and traced,
    back to back, the traced call second in even passes and first in odd
    ones.  Spans and per-layer metrics come from the first pass.  The
    host-speed loop runs between calls, and ``trace.overhead_frac``
    compares the items' median traced and untraced calls at reference
    speed.
    """
    import tracing  # imported after set-up is timed

    failed = set()
    mismatches = 0
    artifact_bytes = 0
    plain: list[list[float]] = [[] for _ in items]  # call times at reference speed
    traced: list[list[float]] = [[] for _ in items]

    def run_checked(idx: int, tracer=None):
        nonlocal mismatches, artifact_bytes
        if tracer is not None:
            tracer.install()
            tracer.start_item(idx)
        try:
            result, error, dt = call(items[idx])
        finally:
            if tracer is not None:
                tracer.uninstall()
        # a CLI item's record reads its artifact: check it before the next call rewrites it
        rec, ok = checker.check(idx, result, error)
        if tracer is not None:
            if rec != checker.first.get(idx):
                mismatches += 1
                ok = checker.fail(idx, "traced output differs from the untraced output")
            if rec is not None and "bytes" in rec:
                artifact_bytes += rec["bytes"]
        if not ok:
            failed.add(idx)
        return dt

    for idx in range(len(items)):  # warm-up
        run_checked(idx)
    tracer = tracing.Tracer()  # keeps the first pass's spans
    traced_s = 0.0
    for n in range(TRACED_PASSES):
        pass_tracer = tracer if n == 0 else tracing.Tracer()
        before = hostspeed.loop_s()
        for idx in range(len(items)):
            # every other pass runs the traced call first
            for t in (pass_tracer, None) if n % 2 else (None, pass_tracer):
                dt = run_checked(idx, t)
                after = hostspeed.loop_s()
                (plain if t is None else traced)[idx].append(dt * hostspeed.factor(before, after))
                before = after
                if t is not None and n == 0:
                    traced_s += dt

    metrics = tracing.layer_metrics(tracer.spans, traced_s)
    checked, disagreements = tracing.cross_route(tracer.dp_evaluations)
    metrics["covers.cross_route_checked"] = (checked, "count")
    metrics["covers.cross_route_disagreements"] = (disagreements, "count")
    metrics["cli.artifact_bytes"] = (artifact_bytes // TRACED_PASSES, "bytes")
    metrics["trace.items"] = (len(items), "count")
    overhead = sum(map(statistics.median, traced)) / sum(map(statistics.median, plain)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.outputs_compared"] = (len(items) * TRACED_PASSES, "count")
    metrics["trace.output_mismatches"] = (mismatches, "count")
    tracer.dump(spans_path)
    return {
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }


def record_reference(items, checker: Checker, path: str, seed: int) -> dict:
    records = []
    for idx, item in enumerate(items):
        result, error, _ = call(item)
        rec, _ = checker.check(idx, result, error)
        records.append(rec)
    with open(path, "w") as fh:
        json.dump({"seed": seed, "records": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"attempted": len(items), "failed": len(checker.failures)}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out-dir", dest="out_dir", default=".perfbench_out/manual")
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    import workloads  # imports scaledim

    default_seed = workloads.load_spec()["default_seed"]
    seed = default_seed if args.seed is None else args.seed
    os.makedirs(args.out_dir, exist_ok=True)
    items = workloads.build(args.workload, seed, args.size, args.out_dir)
    setup_wall_s = perf_counter() - T0
    setup_s = setup_wall_s * hostspeed.factor(SETUP_LOOP, hostspeed.loop_s())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    import numpy

    ref_path = os.path.join(REFERENCE_DIR, f"{args.workload}.json")
    reference = None
    if args.mode != "record" and args.size == "full" and seed == default_seed:
        with open(ref_path) as fh:
            reference = json.load(fh)["records"]
    checker = Checker(items, reference)
    stdout = sys.stdout
    # the CLI prints a summary line per command; keep the result line last
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if args.mode == "run":
            result = timed_run(items, checker, args.seconds)
        elif args.mode == "trace":
            spans = os.path.join(
                os.path.dirname(os.path.abspath(args.out_dir)),
                f"spans-{args.workload}-{seed}.jsonl",
            )
            result = traced_run(items, checker, spans)
        else:
            result = record_reference(items, checker, ref_path, seed)
    for message in checker.failures[:MAX_REPORTED_FAILURES]:
        print("check failed:", message, file=sys.stderr)
    if len(checker.failures) > MAX_REPORTED_FAILURES:
        print(f"... {len(checker.failures) - MAX_REPORTED_FAILURES} more failed checks", file=sys.stderr)
    result.update(
        setup_s=setup_s,
        setup_wall_s=setup_wall_s,
        seed=seed,
        cycle=len(items),
        check_failures=len(checker.failures),
        machine={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    )
    print(json.dumps(result), file=stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
