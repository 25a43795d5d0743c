"""Brute-force ground truth for small instances.

Weights are quantized into unit masses and the norms are computed by
exhaustive matching over unit copies with branch-and-bound pruning; the
dual is bounded from below by exhaustive search over grid-valued
potentials.  Nothing here shares code with the LP solvers, so agreement is
a genuine cross-check.
"""

from __future__ import annotations

import bisect
import math

from .measures import DiscreteSignedMeasure, Point, euclidean

MAX_UNITS = 12
MAX_GRID_DEPTH = 6
MAX_DUAL_SUPPORT = 4

__all__ = [
    "QuantizationError",
    "InstanceTooLargeError",
    "quantize",
    "oracle_kr0",
    "oracle_kr",
    "oracle_dual_grid",
]


class QuantizationError(ValueError):
    """Weights are not integer multiples of the unit within tolerance."""


class InstanceTooLargeError(ValueError):
    """Instance exceeds the exhaustive-search size caps."""


def quantize(m: DiscreteSignedMeasure, unit: float) -> tuple[list[Point], list[Point]]:
    """Replicate atoms into unit-mass copies: (positive units, negative units)."""
    if not (math.isfinite(unit) and unit > 0):
        raise QuantizationError(f"unit (--unit) must be finite and > 0, not {unit!r}")
    pos: list[Point] = []
    neg: list[Point] = []
    for p, w in m.atoms:
        k = round(w / unit)
        if abs(w - k * unit) > 1e-9:
            raise QuantizationError(
                f"weight {w} at {p} is not a multiple of {unit} within 1e-9"
            )
        (pos if k > 0 else neg).extend([p] * abs(k))
    if len(pos) > MAX_UNITS or len(neg) > MAX_UNITS:
        raise InstanceTooLargeError(
            f"{len(pos)} vs {len(neg)} units exceed the cap of {MAX_UNITS} per side"
        )
    return pos, neg


BANK = -1


def _match_min_cost(
    cost: list[list[float]],
    bank: bool,
    row_ids: list[int] | None = None,
    col_ids: list[int] | None = None,
) -> float:
    """Min-cost matching of rows to distinct columns by branch and bound.

    With ``bank`` each row may instead pay 1, and every unmatched column
    pays 1; without it the matrix must be square and the matching perfect.
    Costs are in units of mass 1.  ``row_ids``/``col_ids`` mark replicated
    unit copies of the same atom so symmetric branches are explored once.
    """
    nr, nc = len(cost), len(cost[0]) if cost else 0
    if not bank and nr != nc:
        raise ValueError("perfect matching needs equal sides")
    if nr == 0:
        return float(nc) if bank else 0.0
    row_ids = row_ids if row_ids is not None else list(range(nr))
    col_ids = col_ids if col_ids is not None else list(range(nc))

    # greedy incumbent: cheapest free column (or bank) per row
    used = [False] * nc
    incumbent = 0.0
    for i in range(nr):
        best_j, best_c = -1, 1.0 if bank else math.inf
        for j in range(nc):
            if not used[j] and cost[i][j] < best_c:
                best_j, best_c = j, cost[i][j]
        incumbent += best_c
        if best_j >= 0:
            used[best_j] = True
    if bank:
        incumbent += sum(1.0 for u in used if not u)
    best = incumbent

    row_min = [
        min(min(row), 1.0) if bank else min(row) for row in cost
    ]
    tail = [0.0] * (nr + 1)
    for i in range(nr - 1, -1, -1):
        tail[i] = tail[i + 1] + row_min[i]
    orders = [sorted(range(nc), key=row.__getitem__) for row in cost]
    twin = [
        [jj for jj in range(j) if col_ids[jj] == col_ids[j]] for j in range(nc)
    ]
    eps = 1e-15

    def descend(i: int, free: int, partial: float, n_free: int, prev_j: int) -> None:
        nonlocal best
        if i == nr:
            total = partial + (n_free if bank else 0.0)
            if total < best - eps:
                best = total
            return
        leftover = max(0, n_free - (nr - i)) if bank else 0
        if partial + tail[i] + leftover >= best - eps:
            return
        row = cost[i]
        same_as_prev = row_ids[i] == row_ids[i - 1] if i > 0 else False
        for j in orders[i]:
            bit = 1 << j
            if not free & bit:
                continue
            if same_as_prev and (prev_j == BANK or j < prev_j):
                continue  # identical unit: respect a canonical column order
            if any(free & (1 << jj) for jj in twin[j]):
                continue  # an interchangeable copy was already considered
            if partial + row[j] + tail[i + 1] < best - eps:
                descend(i + 1, free & ~bit, partial + row[j], n_free - 1, j)
        if bank:
            descend(i + 1, free, partial + 1.0, n_free, BANK)

    descend(0, (1 << nc) - 1, 0.0, nc, BANK)
    return best


def _copy_ids(points: list[Point]) -> list[int]:
    first: dict[Point, int] = {}
    return [first.setdefault(p, i) for i, p in enumerate(points)]


def oracle_kr0(m: DiscreteSignedMeasure, unit: float) -> float:
    """Balanced norm by exhaustive unit matching (equal unit counts)."""
    pos, neg = quantize(m, unit)
    if len(pos) != len(neg):
        raise QuantizationError(
            f"quantized instance is unbalanced: {len(pos)} vs {len(neg)} units"
        )
    if not pos:
        return 0.0
    cost = [[euclidean(p, q) for q in neg] for p in pos]
    return unit * _match_min_cost(cost, False, _copy_ids(pos), _copy_ids(neg))


def oracle_kr(m: DiscreteSignedMeasure, unit: float) -> float:
    """Extended norm: units may also be created/destroyed at cost 1 each."""
    pos, neg = quantize(m, unit)
    if not pos or not neg:
        return unit * float(len(pos) + len(neg))
    cost = [[euclidean(p, q) for q in neg] for p in pos]
    return unit * _match_min_cost(cost, True, _copy_ids(pos), _copy_ids(neg))


def oracle_dual_grid(m: DiscreteSignedMeasure, grid_depth: int) -> float:
    """Lower bound on the balanced dual value by exhaustive search over
    potentials with values on a nested dyadic grid of [-diam, diam].

    Nondecreasing in ``grid_depth`` and converging to the dual value.
    """
    if len(m.atoms) > MAX_DUAL_SUPPORT:
        raise InstanceTooLargeError(
            f"support {len(m.atoms)} exceeds the cap of {MAX_DUAL_SUPPORT}"
        )
    if grid_depth > MAX_GRID_DEPTH:
        raise InstanceTooLargeError(f"grid depth {grid_depth} exceeds {MAX_GRID_DEPTH}")
    if not m.atoms:
        return 0.0
    if abs(m.total_mass()) > 1e-9:
        raise QuantizationError("dual grid oracle needs a balanced measure")
    pts = m.support
    w = m.weights
    k = len(pts)
    diam = m.domain.diameter
    step = diam / (1 << grid_depth)
    levels = [i * step for i in range(-(1 << grid_depth), (1 << grid_depth) + 1)]
    dist = [[euclidean(pts[i], pts[j]) for j in range(k)] for i in range(k)]

    best = -math.inf
    values = [0.0] * k  # anchor the first point; free for balanced measures

    def search(i: int, partial: float) -> None:
        nonlocal best
        if i == k:
            best = max(best, partial)
            return
        lo = max(values[j] - dist[i][j] for j in range(i))
        hi = min(values[j] + dist[i][j] for j in range(i))
        start = bisect.bisect_left(levels, lo - 1e-12)
        for idx in range(start, len(levels)):
            v = levels[idx]
            if v > hi + 1e-12:
                break
            values[i] = v
            search(i + 1, partial + w[i] * v)

    search(1, 0.0)
    return best
