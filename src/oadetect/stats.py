"""Paired-sample statistics for the timing comparison.

The signed-rank test drops zero differences, ranks the absolute values with
average ranks on ties, and reports W = min(W+, W-). For n <= 25 pairs the
two-sided p-value is exact over all 2^n sign assignments (tabulated by
dynamic programming over half-rank units, which enumerates the same
distribution); larger samples use the normal approximation with a
continuity correction and the usual tie adjustment of the variance.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

_EXACT_LIMIT = 25


class InsufficientPairsError(ValueError):
    pass


class WilcoxonResult(NamedTuple):
    w: float
    p_value: float
    n: int
    w_plus: float
    w_minus: float


def _ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _exact_two_sided_p(ranks: list[float], w: float) -> float:
    # Distribution of W+ over all sign assignments; ranks scale by 2 so tied
    # .5 ranks become integral.
    units = [int(round(2 * r)) for r in ranks]
    total = sum(units)
    counts = [0] * (total + 1)
    counts[0] = 1
    for u in units:
        nxt = counts[:]
        for s in range(total - u + 1):
            if counts[s]:
                nxt[s + u] += counts[s]
        counts = nxt
    w2 = int(round(2 * w))
    low = sum(counts[: w2 + 1])
    high = sum(counts[total - w2 :]) if total - w2 <= total else 0
    p = (low + high) / (2 ** len(ranks))
    return min(1.0, p)


def _normal_two_sided_p(ranks: list[float], w: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24
    # Tie correction: group sizes over equal absolute differences.
    groups: dict[float, int] = {}
    for r in ranks:
        groups[r] = groups.get(r, 0) + 1
    for size in groups.values():
        if size > 1:
            var -= (size**3 - size) / 48
    if var <= 0:
        return 1.0
    z = (w - mean + 0.5) / math.sqrt(var)
    # W = min(W+, W-) sits at or below the mean, so p = 2 * Phi(z), capped.
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test over (a, b) sample pairs."""
    diffs = [a - b for a, b in pairs if a != b]
    n = len(diffs)
    if n < 5:
        raise InsufficientPairsError(f"insufficient pairs: {n} non-zero differences, need 5")
    ranks = _ranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    w = min(w_plus, w_minus)
    if n <= _EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w)
    else:
        p = _normal_two_sided_p(ranks, w)
    return WilcoxonResult(w=w, p_value=p, n=n, w_plus=w_plus, w_minus=w_minus)
