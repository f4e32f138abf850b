"""Host speed, measured with a fixed loop of interpreter work next to the timed calls.

The 2-core host these runs share executes the same code 10 to 70 per cent
slower for seconds at a time, and the slow stretches differ from run to
run.  A fixed loop of pure-Python work of the kinds the package does
(tuple keys in a dict, small tuples and lists, float arithmetic), timed
just before and just after a stretch of calls, slows down with them.  So
the benchmark reports every time at one reference speed:

    time at reference speed = wall time * REFERENCE_S / loop time

where the loop time is the mean of the loops timed before and after the
stretch.  Over six 8 s runs at one seed, the median call spread (IQR over
median) 0.28 in wall time and 0.021 at reference speed on dp_window,
0.15 and 0.021 on frostman, 0.14 and 0.032 on deep_analytic.  An integer
loop alone tracked the DP calls less well (0.10 on dp_window).

``REFERENCE_S`` is a constant: the loop's fastest time seen on that 2-core
host (Python 3.11.7), so the reported times read as milliseconds on the
host when it is not slowed.  The loop calls no package code, so a change
to the package moves the reported times as much as it moves the wall
times.

Run this file to print the loop's time, for checking REFERENCE_S on
another machine:

    python3 perfbench/hostspeed.py
"""

from time import perf_counter

REFERENCE_S = 0.00186


def _dict_work(n: int) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 2047, i % 7)
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return acc + len(table)


def _object_work(n: int) -> float:
    acc = 0.0
    rows: list = []
    for i in range(n):
        row = (i * 0.5, i & 255, str(i & 15))
        rows.append(row)
        acc += row[0] * 1.0001
        if len(rows) > 512:
            rows = []
    return acc


def loop_s() -> float:
    """Wall time of one run of the fixed loop."""
    t0 = perf_counter()
    _dict_work(4000)
    _object_work(3000)
    return perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale from wall time to reference-speed time for a stretch of calls."""
    return REFERENCE_S / (0.5 * (before + after))


if __name__ == "__main__":
    import statistics

    runs = sorted(loop_s() for _ in range(500))
    print(
        f"loop: fastest {runs[0] * 1e3:.4f} ms, 5th percentile "
        f"{runs[len(runs) // 20] * 1e3:.4f} ms, median {statistics.median(runs) * 1e3:.4f} ms; "
        f"REFERENCE_S = {REFERENCE_S * 1e3:.4f} ms"
    )
