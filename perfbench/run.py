"""Benchmark of certified-bracket work in scaledim, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload dp_window --seed 20260816 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 20260816 --seconds 27 --trace 1

Workloads (inputs and reasons in perfbench/workloads.json):

* ``dp_window``: critical_exponent with the skeleton DP at linear scales;
* ``deep_analytic``: critical_exponent at symbolic depth, analytic routes only;
* ``frostman``: massfrostman_roundtrip, measure construction and ball masses;
* ``cli_mix``: in-process ``scaledim.cli.main`` runs writing artifacts.

Each run works in fresh single-threaded Python processes, one after
another.  With ``--trace 0`` it times set-up in several processes of its
own, before and after the timed run (``setup_s`` is their median), and
runs the workload's item cycle in a closed loop with one caller, in whole
passes, for ``--seconds``.  The end-to-end times are scaled to a
reference host speed, measured with a fixed loop timed between stretches
of calls (perfbench/hostspeed.py); the wall-time figures are printed
beside them.  With ``--trace 1`` it runs the cycle untraced and with
spans around the package's public functions, and reports the per-layer
metrics.  Every output is checked: invariants that
hold for any seed, identical outputs whenever an item repeats, and, at
the default seed, bit-for-bit equality with perfbench/reference/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package source under ``src/`` the run fails without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("dp_window", "deep_analytic", "frostman", "cli_mix")
SETUP_PROBES = 10  # set-up-only processes; the measuring process adds one more sample
TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms.p50", "ms"),
    ("item_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(
    args: argparse.Namespace, workload: str, mode: str, out_dir: str, deadline: float
) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--size", args.size,
        "--out-dir", out_dir,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time limit reached before the run finished")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(
    args: argparse.Namespace, workload: str, out_dir: str, deadline: float
) -> tuple[dict, dict]:
    # set-up probes before and after the timed run, so one busy stretch of
    # the host cannot move them all
    probes = [probe_setup(args, workload, out_dir, deadline) for _ in range(SETUP_PROBES // 2)]
    res = run_worker(args, workload, "run", out_dir, deadline)
    probes.append(res)
    probes += [probe_setup(args, workload, out_dir, deadline) for _ in range(SETUP_PROBES // 2)]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "items_per_s": res["items_per_s"],
        "item_ms.p50": res["item_ms.p50"],
        "item_ms.p90": res["item_ms.p90"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    calls = f"median over {res['passes']} passes of {res['cycle']} items, {res['attempted']} calls"
    samples = {
        "setup_s": f"median of {len(probes)} set-ups",
        "items_per_s": f"{res['attempted'] - res['failed']} items in {res['busy_s']:.3f} s of calls",
        "item_ms.p50": calls,
        "item_ms.p90": f"{calls}; {res['beyond_p90']} beyond p90",
        "peak_rss_mb": "1 process",
    }
    print("  at the reference host speed (see perfbench/hostspeed.py):")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:>14.6g} {unit:<4} ({samples[name]})")
    failed_frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<14} {failed_frac:>14.6g}      ({res['failed']} of {res['attempted']} items)")
    wall, host = res["wall"], res["host"]
    print(f"  pooled over all calls: p50 {res['pooled'][0]:.6g} ms, p90 {res['pooled'][1]:.6g} ms")
    print(
        f"  wall times: setup {statistics.median(p['setup_wall_s'] for p in probes):.6g} s; "
        f"{wall['items_per_s']:.6g} items/s ({wall['busy_s']:.3f} s inside the calls, "
        f"{res['elapsed_s']:.3f} s of timed run); p50 {wall['item_ms.p50']:.6g} ms, "
        f"p90 {wall['item_ms.p90']:.6g} ms, {wall['beyond_p90']} beyond p90"
    )
    print(
        f"  host slowdown (loop time / reference) min {host['slowdown'][0]:.3f} median "
        f"{host['slowdown'][1]:.3f} max {host['slowdown'][2]:.3f} over {host['loops']} loops "
        f"({host['loops_s']:.3f} s)"
    )
    print("  latency by item kind at reference speed, median and fastest call:")
    for label, (median, fastest, n) in res["label_ms"].items():
        print(f"    {label:<30} {median:>12.4g} ms {fastest:>12.4g} ms ({n} calls)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return res, metrics


def probe_setup(args: argparse.Namespace, workload: str, out_dir: str, deadline: float) -> dict:
    return run_worker(args, workload, "setup", out_dir, deadline)


def per_layer(
    args: argparse.Namespace, workload: str, out_dir: str, deadline: float
) -> tuple[dict, dict]:
    res = run_worker(args, workload, "trace", out_dir, deadline)
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    return res, res["metrics"]


def parse_args(argv=None) -> argparse.Namespace:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        default_seed = json.load(fh)["default_seed"]
    parser = argparse.ArgumentParser(description="scaledim certified-bracket benchmark")
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="all: every workload in turn, metrics prefixed with the workload name",
    )
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: a few items per workload, for the benchmark's own test",
    )
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, workload: str) -> dict:
    """One workload: print its metrics, return its result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = os.path.join(OUT_ROOT, f"{workload}-{os.getpid()}")
    print(f"workload {workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    try:
        if args.trace:
            res, metrics = per_layer(args, workload, out_dir, deadline)
        else:
            res, metrics = end_to_end(args, workload, out_dir, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    machine = res["machine"]
    print(
        f"  machine: nproc={machine['nproc']} python={machine['python']} "
        f"numpy={machine['numpy']}; cycle of {res['cycle']} items"
    )
    return {
        "correct": res["check_failures"] == 0 and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "scaledim", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = measure(args, args.workload)
        else:
            parts = {name: measure(args, name) for name in WORKLOADS}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, p in parts.items()
                    for metric, value in p["metrics"].items()
                },
            }
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
