"""Small helpers for arithmetic on natural-log-scale quantities.

Cover costs and interval lengths routinely live at scales like exp(-1e8),
far below the double-precision floor, so every quantity that can get that
small is carried as its natural log. NEG_INF stands in for log(0).
"""

from __future__ import annotations

import math
from typing import Iterable

NEG_INF = float("-inf")

LOG2 = math.log(2.0)


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without leaving log space."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_sum(values: Iterable[float]) -> float:
    """log of the sum of exp(values); NEG_INF for an empty iterable."""
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    hi = max(vals)
    return hi + math.log(math.fsum(math.exp(v - hi) for v in vals))

