"""Balanced and extended Kantorovich-Rubinstein norms with certificates.

The balanced norm is the minimal cost of transporting the negative part of
a measure onto its positive part with Euclidean ground cost.  The extended
norm prices unmatched mass at 1 per unit, realized by augmenting the
transport graph with a bank node that creates or destroys mass at unit
cost.  Every solve returns both an attaining transport plan and a
Lipschitz dual potential, and reports the primal-dual gap; plan and
potential come from independently formulated linear programs.
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
    "kr0_dual",
    "kr_dual",
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

    def balance_gap(self, m: DiscreteSignedMeasure) -> float:
        """Max violation of inflow - outflow = m({p}) over the support of m
        and of the plan (bank inflow/outflow included)."""
        net: dict[Point, float] = {p: 0.0 for p, _ in m.atoms}
        for e in self.edges:
            if e.target is not None:
                net[e.target] = net.get(e.target, 0.0) + e.mass
            if e.source is not None:
                net[e.source] = net.get(e.source, 0.0) - e.mass
        weights = dict(m.atoms)
        return max(
            (abs(flow - weights.get(p, 0.0)) for p, flow in net.items()), default=0.0
        )


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


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
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
        block = pts[start : start + chunk]
        diff = block[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        num = np.abs(vals[start : start + chunk, None] - vals[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist > 0, num / dist, 0.0)
        best = max(best, float(ratio.max()))
    return best


def lip_norm(points: Sequence[Point], values: Sequence[float]) -> float:
    """max of the Lipschitz seminorm and the sup norm on the point set."""
    sup = max((abs(float(v)) for v in values), default=0.0)
    return max(lipschitz_seminorm(points, values), sup)


def mcshane_extend(
    w: DualPotential, z: Sequence[float], clip: Optional[float] = None
) -> float:
    """Evaluate the McShane extension min_i(f_i + L |z - p_i|) at z,
    optionally clamped to [-clip, clip]."""
    if not w.points:
        raise EmptyPotentialError("cannot extend an empty potential")
    val = min(f + w.lip_bound * euclidean(z, p) for p, f in zip(w.points, w.values))
    if clip is not None:
        val = max(-clip, min(clip, val))
    return val


def _solve_lp(c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=None):
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs-ds",
    )
    if res.status != 0:
        raise LPSolveError(f"LP solve failed (status {res.status}): {res.message}")
    return res


def _transport_lp(
    sources: Sequence[Point],
    supplies: Sequence[float],
    sinks: Sequence[Point],
    demands: Sequence[float],
    bank: bool,
):
    """Min-cost transport from sources to sinks; with ``bank`` every node
    may additionally create/destroy mass at unit cost.

    Returns (value, flow[ns, nt], destroyed[ns], created[nt]).
    """
    ns, nt = len(sources), len(sinks)
    nx = ns * nt
    nvar = nx + (ns + nt if bank else 0)
    cost = np.zeros(nvar)
    if nx:
        src = np.asarray(sources, dtype=float)
        snk = np.asarray(sinks, dtype=float)
        diff = src[:, None, :] - snk[None, :, :]
        cost[:nx] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).ravel()
    if bank:
        cost[nx:] = 1.0

    rows, cols, vals = [], [], []
    for i in range(ns):
        for j in range(nt):
            rows.append(i)
            cols.append(i * nt + j)
            vals.append(1.0)
        if bank:
            rows.append(i)
            cols.append(nx + i)
            vals.append(1.0)
    for j in range(nt):
        for i in range(ns):
            rows.append(ns + j)
            cols.append(i * nt + j)
            vals.append(1.0)
        if bank:
            rows.append(ns + j)
            cols.append(nx + ns + j)
            vals.append(1.0)
    A_eq = sp.coo_matrix(
        (vals, (rows, cols)), shape=(ns + nt, nvar)
    ).tocsr()
    b_eq = np.concatenate([np.asarray(supplies, float), np.asarray(demands, float)])
    res = _solve_lp(cost, A_eq, b_eq, bounds=(0, None))
    x = res.x[:nx].reshape(ns, nt) if nx else np.zeros((ns, nt))
    destroyed = res.x[nx : nx + ns] if bank else np.zeros(ns)
    created = res.x[nx + ns :] if bank else np.zeros(nt)
    return float(res.fun), x, destroyed, created


def _dual_potential_lp(
    points: Sequence[Point], weights: Sequence[float], box: bool
) -> tuple[float, list[float]]:
    """Maximize sum w_i f_i under pairwise Lipschitz constraints
    |f_i - f_j| <= |p_i - p_j| (plus |f_i| <= 1 when ``box``)."""
    m = len(points)
    if m == 0:
        return 0.0, []
    pts = np.asarray(points, dtype=float)
    dist = _pairwise_distances(pts)
    iu, ju = np.triu_indices(m, k=1)
    npairs = len(iu)
    if npairs:
        # rows 2k and 2k+1 encode +/- (f_i - f_j) <= dist_ij for pair k
        rows = np.repeat(np.arange(2 * npairs), 2)
        cols = np.column_stack([iu, ju, iu, ju]).ravel()
        vals = np.tile([1.0, -1.0, -1.0, 1.0], npairs)
        A_ub = sp.coo_matrix((vals, (rows, cols)), shape=(2 * npairs, m)).tocsr()
        b_ub = np.repeat(dist[iu, ju], 2)
    else:
        A_ub = b_ub = None
    if box:
        bounds = [(-1.0, 1.0)] * m
    else:
        # anchoring one value at 0 is free for balanced measures and makes
        # the witness deterministic
        bounds = [(None, None)] * m
        bounds[0] = (0.0, 0.0)
    res = _solve_lp(-np.asarray(weights, float), None, None, A_ub, b_ub, bounds)
    return -float(res.fun), list(res.x)


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
    edges = []
    for i, q in enumerate(sources):
        for j, p in enumerate(sinks):
            if flow[i, j] > floor:
                edges.append(TransportEdge(q, p, float(flow[i, j])))
    for i, q in enumerate(sources):
        if destroyed[i] > floor:
            edges.append(TransportEdge(q, None, float(destroyed[i])))
    for j, p in enumerate(sinks):
        if created[j] > floor:
            edges.append(TransportEdge(None, p, float(created[j])))
    return TransportPlan(tuple(edges))


def kr0_norm(m: DiscreteSignedMeasure) -> NormResult:
    """Balanced Kantorovich-Rubinstein norm: optimal transport cost between
    the negative and positive parts, with plan and Lipschitz witness."""
    if not m.is_balanced(MASS_BALANCE_TOL):
        raise BalanceViolationError(
            f"total mass {m.total_mass():.3e} exceeds balance tolerance"
        )
    if not m.atoms:
        return _zero_result()
    hj = m.hahn_jordan()
    pos, neg = hj.positive, hj.negative
    if not pos.atoms or not neg.atoms:
        # only reachable for total variation below the balance tolerance
        return _zero_result()
    value, flow, destroyed, created = _transport_lp(
        neg.support, neg.weights, pos.support, pos.weights, bank=False
    )
    plan = _plan_from_flow(
        neg.support, pos.support, flow, destroyed, created, m.total_variation()
    )
    dual_value, witness = kr0_dual(m)
    return NormResult(value, plan, witness, abs(value - dual_value))


def kr_norm(m: DiscreteSignedMeasure) -> NormResult:
    """Extended Kantorovich-Rubinstein norm: transport with a bank node that
    creates/destroys mass at unit cost, so unmatched mass pays 1 per unit."""
    if not m.atoms:
        return _zero_result()
    hj = m.hahn_jordan()
    pos, neg = hj.positive, hj.negative
    value, flow, destroyed, created = _transport_lp(
        neg.support, neg.weights, pos.support, pos.weights, bank=True
    )
    plan = _plan_from_flow(
        neg.support, pos.support, flow, destroyed, created, m.total_variation()
    )
    dual_value, witness = kr_dual(m)
    return NormResult(value, plan, witness, abs(value - dual_value))


def variant_norm(variant: str, m: DiscreteSignedMeasure) -> NormResult:
    """The norm named by a variant: ``kr0`` (balanced) or ``kr`` (extended)."""
    # resolved per call, so a rebound kr0_norm / kr_norm is the one called
    return {"kr0": kr0_norm, "kr": kr_norm}[variant](m)


def kr0_dual(m: DiscreteSignedMeasure) -> tuple[float, DualPotential]:
    """Dual of the balanced norm: maximize the pairing over potentials that
    are 1-Lipschitz on the support."""
    if not m.is_balanced(MASS_BALANCE_TOL):
        raise BalanceViolationError(
            f"total mass {m.total_mass():.3e} exceeds balance tolerance"
        )
    if not m.atoms:
        return 0.0, DualPotential((), (), 0.0, 0.0)
    _, raw = _dual_potential_lp(m.support, m.weights, box=False)
    witness = _certified_potential(m.support, raw, box=False)
    return witness.pair_with(m), witness


def kr_dual(m: DiscreteSignedMeasure) -> tuple[float, DualPotential]:
    """Dual of the extended norm: additionally caps the witness at |f| <= 1."""
    if not m.atoms:
        return 0.0, DualPotential((), (), 0.0, 0.0)
    _, raw = _dual_potential_lp(m.support, m.weights, box=True)
    witness = _certified_potential(m.support, raw, box=True)
    return witness.pair_with(m), witness
