"""Balanced and extended Kantorovich-Rubinstein norms with certificates.

The balanced norm is the minimal cost of transporting the negative part of
a measure onto its positive part with Euclidean ground cost.  The extended
norm prices unmatched mass at 1 per unit, realized by augmenting the
transport graph with a bank node that creates or destroys mass at unit
cost.  Every solve runs one transport LP.  Its plan gives the value, and
the c-transform of its source duals gives the Lipschitz witness, which is
checked exactly on the support.  The reported gap rests on weak duality
between these two checked objects and counts any plan imbalance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
    kHighsInf,
)

from .measures import DiscreteSignedMeasure, Point, euclidean

# Defaults: accepted duality gap, balance pre-check.
GAP_TOL = 1e-8
MASS_BALANCE_TOL = 1e-10

_EDGE_FLOOR = 1e-14

__all__ = [
    "BalanceViolationError",
    "LPSolveError",
    "EmptyPotentialError",
    "DuplicatePointError",
    "TransportEdge",
    "TransportPlan",
    "DualPotential",
    "NormResult",
    "LPStats",
    "kr0_norm",
    "kr_norm",
    "variant_norm",
    "mcshane_extend",
    "lipschitz_seminorm",
    "lip_norm",
    "GAP_TOL",
    "MASS_BALANCE_TOL",
]


class BalanceViolationError(ValueError):
    """Balanced-norm input has nonzero total mass beyond tolerance."""


class LPSolveError(RuntimeError):
    """HiGHS ended without an optimal solution."""


class EmptyPotentialError(ValueError):
    """Extension requested from a potential with no support points."""


class DuplicatePointError(ValueError):
    """Point list for a Lipschitz computation has exact duplicates."""


class TransportEdge(NamedTuple):
    source: Optional[Point]  # None marks mass created at the bank
    target: Optional[Point]  # None marks mass destroyed at the bank
    mass: float

    @property
    def is_bank(self) -> bool:
        return self.source is None or self.target is None

    def cost(self) -> float:
        if self.is_bank:
            return self.mass
        return self.mass * euclidean(self.source, self.target)


@dataclass(frozen=True)
class TransportPlan:
    """Finite transport plan; bank edges carry one None endpoint."""

    edges: tuple[TransportEdge, ...]

    def cost(self) -> float:
        return math.fsum(e.cost() for e in self.edges)

    def _imbalances(self, m: DiscreteSignedMeasure) -> list[float]:
        """|inflow - outflow - m({p})| over the support of m and of the plan
        (bank inflow/outflow included)."""
        net: dict[Point, float] = {p: 0.0 for p, _ in m.atoms}
        for e in self.edges:
            if e.target is not None:
                net[e.target] = net.get(e.target, 0.0) + e.mass
            if e.source is not None:
                net[e.source] = net.get(e.source, 0.0) - e.mass
        weights = dict(m.atoms)
        return [abs(flow - weights.get(p, 0.0)) for p, flow in net.items()]

    def balance_gap(self, m: DiscreteSignedMeasure) -> float:
        """Max violation of inflow - outflow = m({p})."""
        return max(self._imbalances(m), default=0.0)


@dataclass(frozen=True)
class DualPotential:
    """Values of a Lipschitz witness on a finite point set."""

    points: tuple[Point, ...]
    values: tuple[float, ...]
    lip_bound: float
    sup_bound: float

    @classmethod
    def from_values(
        cls, points: Sequence[Point], values: Sequence[float]
    ) -> "DualPotential":
        pts = tuple(tuple(p) for p in points)
        vals = tuple(float(v) for v in values)
        lip = lipschitz_seminorm(pts, vals) if len(pts) > 1 else 0.0
        sup = max((abs(v) for v in vals), default=0.0)
        return cls(pts, vals, lip, sup)

    def pair_with(self, m: DiscreteSignedMeasure) -> float:
        """Integral of the potential against m (support must match)."""
        table = dict(zip(self.points, self.values))
        return math.fsum(w * table[p] for p, w in m.atoms)


@dataclass(frozen=True)
class LPStats:
    """What one LP solve did: the size of the last LP HiGHS ran, how it
    ended, the simplex iterations summed over its runs, and the number of
    runs (pricing rounds)."""

    rows: int
    cols: int
    nnz: int
    status: str
    iterations: int
    rounds: int


@dataclass(frozen=True)
class NormResult:
    value: float
    plan: TransportPlan
    potential: DualPotential
    gap: float
    lp: Optional[LPStats] = None  # None when no LP was solved


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def lipschitz_seminorm(points: Sequence[Point], values: Sequence[float]) -> float:
    """Exact max of |f(p)-f(q)| / |p-q| over the finite pair set."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(pts) != len(vals):
        raise ValueError("points and values must have equal length")
    if len(pts) <= 1:
        return 0.0
    if len({tuple(p) for p in points}) != len(pts):
        raise DuplicatePointError("duplicated points in Lipschitz computation")
    best = 0.0
    chunk = 512
    for start in range(0, len(pts), chunk):
        dist = _distances(pts[start : start + chunk], pts)
        num = np.abs(vals[start : start + chunk, None] - vals[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist > 0, num / dist, 0.0)
        best = max(best, float(ratio.max()))
    return best


def lip_norm(points: Sequence[Point], values: Sequence[float]) -> float:
    """max of the Lipschitz seminorm and the sup norm on the point set."""
    sup = max((abs(float(v)) for v in values), default=0.0)
    return max(lipschitz_seminorm(points, values), sup)


def _extend(
    points: np.ndarray,
    values: np.ndarray,
    lip: float,
    zs: np.ndarray,
    clip: Optional[float] = None,
) -> np.ndarray:
    """min_i(values_i + lip |z - points_i|) at every row z of zs (+inf when
    there are no points), optionally clamped to [-clip, clip]."""
    ext = np.min(values + lip * _distances(zs, points), axis=1, initial=np.inf)
    return ext if clip is None else np.clip(ext, -clip, clip)


def mcshane_extend(
    w: DualPotential, z: Sequence[float], clip: Optional[float] = None
) -> float:
    """Evaluate the McShane extension min_i(f_i + L |z - p_i|) at z,
    optionally clamped to [-clip, clip]."""
    if not w.points:
        raise EmptyPotentialError("cannot extend an empty potential")
    pts, vals = np.asarray(w.points, dtype=float), np.asarray(w.values, dtype=float)
    return float(_extend(pts, vals, w.lip_bound, np.asarray([z], dtype=float), clip)[0])


# presolve can leave the recovered plan off its marginals by ~1e-8; the
# witness is built from the duals, and a dual infeasibility of e (HiGHS
# default 1e-7) can cost up to e per unit of mass in the gap; a primal
# infeasibility of e leaves the plan off its marginals by e, and the gap
# pays for that repair too
_DUAL_TOL = 1e-10
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("solver", "simplex"),
    ("simplex_strategy", 1),  # dual simplex
    ("presolve", "off"),
    ("dual_feasibility_tolerance", _DUAL_TOL),
    ("primal_feasibility_tolerance", 1e-10),
)
# adding columns keeps the last basis primal feasible, so a re-run starts
# there with primal simplex
_PRIMAL_SIMPLEX = 4

# column generation: cheapest cells per line in the first LP, most negative
# reduced costs per line added by each pricing round
_SEED_EDGES = 6
_PRICED_EDGES = 3


def _highs(c, start, index, value, b) -> _Highs:
    """A fresh HiGHS instance holding min c.x subject to A x = b and x >= 0,
    with A given column-wise by the CSC arrays start, index and value."""
    rows, cols = len(b), len(c)
    for name, v in (("costs", c), ("matrix", value), ("right-hand side", b)):
        if not np.isfinite(v).all():
            raise ValueError(f"LP {name} must be finite")
    highs = _Highs()
    for key, option in _HIGHS_OPTIONS:
        highs.setOptionValue(key, option)
    # the array form of passModel copies the buffers, where assigning them to
    # a HighsLp converts element by element
    highs.passModel(
        cols, rows, len(value), MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
        c, np.zeros(cols), np.full(cols, kHighsInf), b, b, start, index, value,
        np.zeros(cols, dtype=np.int32),  # every column continuous
    )
    return highs


def _run(highs: _Highs, before: Optional[LPStats] = None) -> LPStats:
    """Run HiGHS on its current model; raise LPSolveError unless it ends
    optimal.  The stats count this run on top of the runs in ``before``."""
    highs.run()
    status = highs.getModelStatus()
    name = highs.modelStatusToString(status)
    if status != HighsModelStatus.kOptimal:
        raise LPSolveError(f"LP solve failed (status {int(status)}): {name}")
    rounds, iterations = (before.rounds, before.iterations) if before else (0, 0)
    return LPStats(
        highs.getNumRow(), highs.getNumCol(), highs.getNumNz(), name,
        iterations + highs.getInfo().simplex_iteration_count, rounds + 1,
    )


def _line_minima(a: np.ndarray, k: int) -> np.ndarray:
    """Sorted flat indices of the k smallest entries of each row and of each
    column of a (the whole line when it is shorter)."""
    if not a.size:
        return np.zeros(0, dtype=np.intp)
    flat = np.arange(a.size).reshape(a.shape)
    picks = []
    # k argmin passes over all lines at once beat one argpartition per line
    for lines, ids in ((a.copy(), flat), (a.T.copy(), flat.T)):
        every = np.arange(len(lines))
        for _ in range(min(k, lines.shape[1])):
            j = lines.argmin(axis=1)
            picks.append(ids[every, j])
            lines[every, j] = np.inf
    return np.unique(np.concatenate(picks))


def _north_west_corner(supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Sorted flat indices of the north-west-corner plan's edges: the
    staircase from (0, 0) to (ns - 1, nt - 1) that ships the supplies in
    order onto the demands in order, feasible for balanced marginals."""
    s, d = np.cumsum(supplies)[:-1], np.cumsum(demands)[:-1]
    # each edge carries the mass between two consecutive breakpoints
    starts = np.unique(np.concatenate([[0.0], s, d]))
    i, j = np.searchsorted(s, starts, "right"), np.searchsorted(d, starts, "right")
    return i * len(demands) + j


def _columns(ids: np.ndarray, dist: np.ndarray):
    """Costs and CSC arrays (start, index, value) of the transport LP's
    columns ``ids``.  Id i * nt + j < ns * nt ships from source i to sink j
    at cost dist[i, j] and enters rows i and ns + j; id ns * nt + r is row
    r's bank column, at unit cost."""
    ns, nt = dist.shape
    nx = ns * nt
    flow = ids < nx
    f = ids[flow]
    cost = np.ones(len(ids))
    cost[flow] = dist.ravel()[f]
    start = np.zeros(len(ids) + 1, dtype=np.int32)
    start[1:] = np.cumsum(np.where(flow, 2, 1))
    index = np.empty(start[-1], dtype=np.int32)
    head = start[:-1]
    index[head[flow]] = f // nt
    index[head[flow] + 1] = ns + f % nt
    index[head[~flow]] = ids[~flow] - nx
    return cost, start, index, np.ones(start[-1])


def _generate(ids: np.ndarray, columns, b: np.ndarray, reduced):
    """Column generation, the one driver of every LP: min c.x subject to
    A x = b, x >= 0 over the columns ``columns(ids)`` on one HiGHS instance.
    Each round prices the flat cells of the grid ``reduced(row duals)`` not
    in ids and adds the _PRICED_EDGES per line below -_DUAL_TOL, until none
    is left.  Ids past the grid are never priced.  Returns ids, the HiGHS
    solution (one value per column) and the LP stats."""
    highs = _highs(*columns(ids), b)
    lp = None
    while True:
        lp = _run(highs, lp)
        sol = highs.getSolution()
        cells = reduced(np.array(sol.row_dual))
        cells.ravel()[ids[ids < cells.size]] = np.inf
        new = _line_minima(cells, _PRICED_EDGES)
        new = new[cells.ravel()[new] < -_DUAL_TOL]
        if not new.size:
            return ids, sol, lp
        cost, start, index, value = columns(new)
        highs.addCols(
            len(cost), cost, np.zeros(len(cost)), np.full(len(cost), kHighsInf),
            len(value), start[:-1], index, value,
        )
        highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        ids = np.concatenate([ids, new])


def _transport_lp(
    sources: np.ndarray,
    supplies: Sequence[float],
    sinks: np.ndarray,
    demands: Sequence[float],
    bank: bool,
):
    """Min-cost transport from sources to sinks (rows of point arrays); with
    ``bank`` every node may additionally create/destroy mass at unit cost.

    Solved by :func:`_generate` over the ns x nt edge grid, from the
    nearest edges of each line plus the bank columns or, without ``bank``,
    the north-west-corner plan, so the first LP is feasible.

    Returns (flow[ns, nt], destroyed, created, source duals u[ns], LP stats);
    without ``bank`` destroyed and created are empty.
    """
    ns, nt = len(sources), len(sinks)
    nx = ns * nt
    dist = _distances(sources, sinks)
    if not np.isfinite(dist).all():
        raise ValueError("LP costs must be finite")
    supplies, demands = np.asarray(supplies, float), np.asarray(demands, float)
    ids = _line_minima(dist, _SEED_EDGES)
    if bank:
        ids = np.concatenate([ids, nx + np.arange(ns + nt)])
    else:
        ids = np.union1d(ids, _north_west_corner(supplies, demands))
    ids, sol, lp = _generate(
        ids, lambda ids: _columns(ids, dist), np.concatenate([supplies, demands]),
        lambda y: dist - y[:ns, None] - y[None, ns:],
    )
    x = np.zeros(nx + (ns + nt if bank else 0))
    x[ids] = sol.col_value
    return x[:nx].reshape(ns, nt), x[nx : nx + ns], x[nx + ns :], np.array(sol.row_dual)[:ns], lp


def _certified_potential(points: Sequence[Point], values: Sequence[float]) -> DualPotential:
    """Shrink an LP witness by 1 - 1e-12, far above the few-ulp rounding of
    its c-transform, and check it exactly on the point set; the witness
    returned is the one the last check passed."""
    raw, scale = np.asarray(values, dtype=float), 1.0 - 1e-12
    # every failed check lowers the scale by a factor below 1, so this ends;
    # the raw values are rescaled, not the rounded ones, so rounding cannot
    # put back the slope a rescale took off
    while (s := lipschitz_seminorm(points, vals := raw * scale)) > 1.0:
        scale *= (1.0 - 1e-12) / s
    sup = float(np.abs(vals).max(initial=0.0))
    return DualPotential(tuple(points), tuple(vals.tolist()), 1.0, sup)


def _plan_from_flow(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    flow: np.ndarray,
    destroyed: np.ndarray,
    created: np.ndarray,
    scale: float,
) -> TransportPlan:
    floor = _EDGE_FLOOR * max(1.0, scale)
    edges = [
        TransportEdge(sources[i], sinks[j], float(flow[i, j]))
        for i, j in zip(*np.nonzero(flow > floor))
    ]
    edges += [
        TransportEdge(sources[i], None, float(destroyed[i]))
        for i in np.flatnonzero(destroyed > floor)
    ]
    edges += [
        TransportEdge(None, sinks[j], float(created[j]))
        for j in np.flatnonzero(created > floor)
    ]
    return TransportPlan(tuple(edges))


def _kr(m: DiscreteSignedMeasure, bank: bool) -> NormResult:
    """One transport LP from the negative part q_i onto the positive part.
    The value is the plan's cost.  The witness is the c-transform
    f(z) = min_i(|z - q_i| - u_i) of the source duals u (clipped to [-1, 1]
    for the extended norm): 1-Lipschitz, and its pairing with m is the LP's
    dual value.  The gap adds the cost of repairing the plan's imbalance:
    diam per unit of mass for the balanced norm, 1 (the bank) for the
    extended one.  With no mass, or with one side of a balanced measure
    (total variation within the balance tolerance), no LP runs: the plan
    is empty and f = 0."""
    hj = m.hahn_jordan()
    neg, pos = hj.negative, hj.positive
    if not m.atoms or not (bank or (neg.atoms and pos.atoms)):
        plan, raw, lp = TransportPlan(()), np.zeros(len(m.atoms)), None
    else:
        dim = m.domain.dim
        sources = np.array(neg.support, dtype=float).reshape(-1, dim)
        sinks = np.array(pos.support, dtype=float).reshape(-1, dim)
        flow, destroyed, created, u, lp = _transport_lp(
            sources, neg.weights, sinks, pos.weights, bank
        )
        plan = _plan_from_flow(
            neg.support, pos.support, flow, destroyed, created, m.total_variation()
        )
        # with no sources (extended norm only) f is +inf, clipped to f = 1
        support = np.array(m.support, dtype=float)
        raw = _extend(sources, -u, 1.0, support, clip=1.0 if bank else None)
    witness = _certified_potential(m.support, raw)
    value = plan.cost()
    repair = math.fsum(plan._imbalances(m)) * (1.0 if bank else m.domain.diameter)
    gap = value + repair - witness.pair_with(m)
    return NormResult(value, plan, witness, gap, lp)


def kr0_norm(m: DiscreteSignedMeasure) -> NormResult:
    """Balanced Kantorovich-Rubinstein norm: optimal transport cost between
    the negative and positive parts, with plan and Lipschitz witness."""
    if not m.is_balanced(MASS_BALANCE_TOL):
        raise BalanceViolationError(
            f"total mass {m.total_mass():.3e} exceeds balance tolerance"
        )
    return _kr(m, bank=False)


def kr_norm(m: DiscreteSignedMeasure) -> NormResult:
    """Extended Kantorovich-Rubinstein norm: transport with a bank node that
    creates/destroys mass at unit cost, so unmatched mass pays 1 per unit."""
    return _kr(m, bank=True)


def variant_norm(variant: str, m: DiscreteSignedMeasure) -> NormResult:
    """The norm named by a variant: ``kr0`` (balanced) or ``kr`` (extended)."""
    # resolved per call, so a rebound kr0_norm / kr_norm is the one called
    return {"kr0": kr0_norm, "kr": kr_norm}[variant](m)
