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
import scipy.sparse as sp
from scipy.optimize import linprog

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
class NormResult:
    value: float
    plan: TransportPlan
    potential: DualPotential
    gap: float


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


def _solve_lp(c, A_eq, b_eq):
    """min c.x subject to A_eq x = b_eq and x >= 0."""
    res = linprog(
        c,
        A_eq=A_eq,
        b_eq=b_eq,
        method="highs-ds",
        # presolve can leave the recovered plan off its marginals by ~1e-8;
        # the witness is built from the duals, and a dual infeasibility of e
        # (HiGHS default 1e-7) can cost up to e per unit of mass in the gap;
        # a primal infeasibility of e leaves the plan off its marginals by e,
        # and the gap pays for that repair too
        options={
            "presolve": False,
            "dual_feasibility_tolerance": 1e-10,
            "primal_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise LPSolveError(f"LP solve failed (status {res.status}): {res.message}")
    return res


def _transport_lp(
    sources: np.ndarray,
    supplies: Sequence[float],
    sinks: np.ndarray,
    demands: Sequence[float],
    bank: bool,
):
    """Min-cost transport from sources to sinks (rows of point arrays); with
    ``bank`` every node may additionally create/destroy mass at unit cost.

    Returns (flow[ns, nt], destroyed, created, source duals u[ns]); without
    ``bank`` destroyed and created are empty.
    """
    ns, nt = len(sources), len(sinks)
    nx = ns * nt
    cost = np.ones(nx + (ns + nt if bank else 0))
    cost[:nx] = _distances(sources, sinks).ravel()
    # flow variable i * nt + j enters source row i and sink row ns + j; the
    # bank's destroy/create variables follow, one per row
    rows = [np.repeat(np.arange(ns), nt), ns + np.tile(np.arange(nt), ns)]
    cols = [np.arange(nx), np.arange(nx)]
    if bank:
        rows.append(np.arange(ns + nt))
        cols.append(nx + np.arange(ns + nt))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    A_eq = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(ns + nt, len(cost))
    ).tocsr()
    b_eq = np.concatenate([np.asarray(supplies, float), np.asarray(demands, float)])
    res = _solve_lp(cost, A_eq, b_eq)
    x, u = res.x, res.eqlin.marginals[:ns]
    return x[:nx].reshape(ns, nt), x[nx : nx + ns], x[nx + ns :], u


def _certified_potential(
    points: Sequence[Point], values: Sequence[float], box: bool
) -> DualPotential:
    """Rescale (and clip, for the extended norm) an LP witness so that
    feasibility holds exactly on the point set, not just to LP tolerance."""
    vals = [float(v) for v in values]
    if len(points) > 1:
        s = lipschitz_seminorm(points, vals)
        if s > 1.0:
            vals = [v / s for v in vals]
            if lipschitz_seminorm(points, vals) > 1.0:  # residual rounding
                vals = [v * (1.0 - 1e-12) for v in vals]
    if box:
        vals = [max(-1.0, min(1.0, v)) for v in vals]
    sup = max((abs(v) for v in vals), default=0.0)
    return DualPotential(tuple(points), tuple(vals), 1.0, sup)


def _zero_result() -> NormResult:
    potential = DualPotential((), (), 0.0, 0.0)
    return NormResult(0.0, TransportPlan(()), potential, 0.0)


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
    extended one."""
    if not m.atoms:
        return _zero_result()
    hj = m.hahn_jordan()
    neg, pos = hj.negative, hj.positive
    dim = m.domain.dim
    sources = np.array(neg.support, dtype=float).reshape(-1, dim)
    sinks = np.array(pos.support, dtype=float).reshape(-1, dim)
    flow, destroyed, created, u = _transport_lp(
        sources, neg.weights, sinks, pos.weights, bank
    )
    plan = _plan_from_flow(
        neg.support, pos.support, flow, destroyed, created, m.total_variation()
    )
    # with no sources (extended norm only) f is +inf, clipped to f = 1
    support = np.array(m.support, dtype=float)
    raw = _extend(sources, -u, 1.0, support, clip=1.0 if bank else None)
    witness = _certified_potential(m.support, raw, box=bank)
    value = plan.cost()
    repair = math.fsum(plan._imbalances(m)) * (1.0 if bank else m.domain.diameter)
    return NormResult(value, plan, witness, value + repair - witness.pair_with(m))


def kr0_norm(m: DiscreteSignedMeasure) -> NormResult:
    """Balanced Kantorovich-Rubinstein norm: optimal transport cost between
    the negative and positive parts, with plan and Lipschitz witness."""
    if not m.is_balanced(MASS_BALANCE_TOL):
        raise BalanceViolationError(
            f"total mass {m.total_mass():.3e} exceeds balance tolerance"
        )
    if not m.atoms:
        return _zero_result()
    if not min(m.weights) < 0.0 < max(m.weights):
        # one-sided only for total variation below the balance tolerance:
        # the empty plan, repaired at diam per unit of mass, and f = 0
        witness = _certified_potential(m.support, [0.0] * len(m.atoms), box=False)
        gap = m.total_variation() * m.domain.diameter
        return NormResult(0.0, TransportPlan(()), witness, gap)
    return _kr(m, bank=False)


def kr_norm(m: DiscreteSignedMeasure) -> NormResult:
    """Extended Kantorovich-Rubinstein norm: transport with a bank node that
    creates/destroys mass at unit cost, so unmatched mass pays 1 per unit."""
    return _kr(m, bank=True)


def variant_norm(variant: str, m: DiscreteSignedMeasure) -> NormResult:
    """The norm named by a variant: ``kr0`` (balanced) or ``kr`` (extended)."""
    # resolved per call, so a rebound kr0_norm / kr_norm is the one called
    return {"kr0": kr0_norm, "kr": kr_norm}[variant](m)
