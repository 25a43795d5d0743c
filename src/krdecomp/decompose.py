"""Constructive atomic decompositions over the canonical pair family.

Greedy: each transport-plan edge of a balanced measure becomes one family
dipole, its ends snapped at the first depth where their snap errors fit
the edge's share of 0.45*tol; every snap is read from one table per
decomposition.  So l1 <= plan cost + 0.45*tol, which for the optimal kr0
plan is ||m|| + 0.45*tol.  A general measure also gets one point-mass
coefficient per support atom.

The l1 program finds minimal coefficients over the first T pairs,
(a, b) = ``pair_components(j)`` for j <= T.  Its rows are the d1 points x_a
and d2 points y_b of those pairs, and the transport LP's column-generation
driver runs it over the (a, b) grid: from the row duals u, the better sign
of a cell's dipole prices at 1 - |u_a - u_b| / |x_a - y_b|.  The first LP
holds the cheapest cells of each line and the cells (a, 0) and (0, b),
which span the pair graph, so it is feasible for every covered measure.  A
kr point mass at x_a is one column, recorded on pair (a, 0).  Among equal-l1
optima, the terms are those of the vertex the simplex ends on.

Every construction sums its coefficients per pair in one term sink and
ends in one record, its residual certified by a fresh norm solve against
one ``iter_pairs`` reconstruction.  Verification checks the norm-vs-l1
bound, the per-term lower bound and the point-mass sum invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .family import (
    FamilyConfig,
    FamilyPair,
    FamilyPoint,
    SnapTable,
    family_pair,
    iter_pairs,
    pair_components,
    pair_index,
    snap_radius,
    term_atoms,
)
from .measures import DiscreteSignedMeasure, Point, euclidean
from .solver import (
    MASS_BALANCE_TOL,
    LPSolveError,
    TransportEdge,
    TransportPlan,
    kr0_norm,
    lip_norm,
    variant_norm,
    _SEED_EDGES,
    _columns,
    _distances,
    _generate,
    _line_minima,
)

_DEPTH_CAP = 60
_SNAP_FRACTION = 0.45  # portion of the tolerance spent by snap errors

__all__ = [
    "AtomicDecomposition",
    "BoundReport",
    "TermBoundCheck",
    "TruncationCoverageError",
    "decompose_balanced",
    "decompose_full",
    "decompose_l1_minimal",
    "reconstruct",
    "term_measure",
    "testfn_eval",
    "verify_term_lower_bound",
    "verify_bounds",
    "mass_identity_check",
]


class TruncationCoverageError(ValueError):
    """Measure not representable over the truncated family."""


@dataclass(frozen=True)
class AtomicDecomposition:
    """Terms (j, alpha1, alpha2) standing for alpha1 * dipole_j +
    alpha2 * delta_{x_j}; the balanced variant ``kr0`` has alpha2 == 0.

    ``norm`` is the target's norm and ``residual_norm`` the norm of the
    target minus the reconstruction, both in the record's variant."""

    family: FamilyConfig
    variant: str
    terms: tuple[tuple[int, float, float], ...]
    l1: float
    residual_norm: float
    norm: float
    target: DiscreteSignedMeasure
    method: str

    @property
    def ratio(self) -> float:
        """||target|| / l1, or 1.0 for an empty decomposition."""
        return self.norm / self.l1 if self.l1 > 0 else 1.0

    def sum_alpha2(self) -> float:
        return math.fsum(t[2] for t in self.terms)


def _certified(
    m: DiscreteSignedMeasure,
    variant: str,
    terms: tuple[tuple[int, float, float], ...],
    cfg: FamilyConfig,
    method: str,
    norm: Optional[float] = None,
) -> AtomicDecomposition:
    """The record for new terms of m, its residual certified by a fresh
    solve against m - reconstruct(dec); ``norm`` is ||m|| when the caller
    has already solved it."""
    if norm is None:
        norm = variant_norm(variant, m).value
    l1 = math.fsum(abs(a1) + abs(a2) for _, a1, a2 in terms)
    dec = AtomicDecomposition(cfg, variant, terms, l1, math.inf, norm, m, method)
    return replace(dec, residual_norm=variant_norm(variant, m - reconstruct(dec)).value)


@dataclass(frozen=True)
class BoundReport:
    norm: float
    l1: float
    residual_norm: float
    upper_ok: bool
    ratio: float
    per_term_lower_ok: Optional[bool]
    ratio_floor_ok: Optional[bool]


class TermBoundCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool
    pairing: float
    witness_lip_norm: Optional[float]


# -- greedy construction -------------------------------------------------


class _TermSink:
    """Accumulates (alpha1, alpha2) contributions per pair index; the terms
    are their exact sums, zero terms dropped, sorted by index."""

    def __init__(self) -> None:
        self.parts: dict[int, tuple[list[float], list[float]]] = {}

    def add(self, j: int, alpha1: float = 0.0, alpha2: float = 0.0) -> None:
        a1s, a2s = self.parts.setdefault(j, ([], []))
        a1s.append(alpha1)
        a2s.append(alpha2)

    def emit(self, u: FamilyPoint, v: FamilyPoint, c: float) -> None:
        """The unnormalized dipole c*(delta_u - delta_v) of a family pair,
        its d1 end given first or second: c*(delta_v - delta_u) is stored
        as the pair's dipole with coefficient -c."""
        if u.family == "d2":
            u, v, c = v, u, -c
        self.add(pair_index(u.index, v.index), c * euclidean(u.coords, v.coords))

    def terms(self) -> tuple[tuple[int, float, float], ...]:
        out = []
        for j in sorted(self.parts):
            a1, a2 = (math.fsum(parts) for parts in self.parts[j])
            if (a1, a2) != (0.0, 0.0):
                out.append((j, a1, a2))
        return tuple(out)


def _edge_dipole(
    p: Point,
    q: Point,
    mass: float,
    budget: float,
    depth: int,
    snaps: SnapTable,
    sink: _TermSink,
) -> None:
    """Cover the plan-edge contribution mass*(delta_p - delta_q) by one
    family dipole: from ``depth`` on, snap p into one family and q into the
    other, the assignment with the smaller snap errors dp + dq winning (d1
    for p on a tie), down to the first depth where the leftover costs
    |mass|*(dp + dq) <= budget, or the depth cap."""
    for depth in range(depth, _DEPTH_CAP + 1):
        (sp, dp), (sq, dq) = min(
            [(snaps.nearest(p, depth, fp), snaps.nearest(q, depth, fq))
             for fp, fq in (("d1", "d2"), ("d2", "d1"))],
            key=lambda ends: ends[0][1] + ends[1][1],
        )
        if abs(mass) * (dp + dq) <= budget:
            break
    sink.emit(sp, sq, mass)


def _greedy_dipoles(
    plan: TransportPlan, tol: float, snaps: SnapTable, min_depth: int, sink: _TermSink
) -> None:
    """Adds to ``sink`` the dipole terms of the balanced measure that
    ``plan`` transports (any feasible plan, not necessarily an optimal
    one): every plan edge becomes one family dipole, its ends snapped deep
    enough that the leftover snap errors cost at most the edge's share of
    _SNAP_FRACTION * tol.  Every snap is read from ``snaps``, the
    decomposition's one table, so an endpoint shared by several edges is
    snapped once per depth and family.  An edge starts at the first depth
    from min_depth whose d2 snap radius is at most a quarter of its
    length."""
    edge_costs = [e.cost() for e in plan.edges]
    total = math.fsum(edge_costs)
    if total > 0.0:
        radii = [snap_radius(depth, snaps.cfg, "d2") for depth in range(_DEPTH_CAP)]
        for e, ec in zip(plan.edges, edge_costs):
            budget = _SNAP_FRACTION * tol * ec / total
            quarter = euclidean(e.target, e.source) / 4.0
            depth = min_depth
            while depth < _DEPTH_CAP and radii[depth] > quarter:
                depth += 1
            _edge_dipole(e.target, e.source, e.mass, budget, depth, snaps, sink)


def _check_greedy_options(tol: float, min_depth: int) -> None:
    if not tol > 0:  # NaN included
        raise ValueError(f"tolerance tol must be positive, not {tol!r}")
    if not 0 <= min_depth <= _DEPTH_CAP:  # no edge is snapped deeper than the cap
        raise ValueError(f"min_depth must lie in [0, {_DEPTH_CAP}], not {min_depth!r}")


def decompose_balanced(
    m: DiscreteSignedMeasure,
    tol: float,
    cfg: FamilyConfig,
    min_depth: int = 0,
) -> AtomicDecomposition:
    """Dipole decomposition of a balanced measure with certified residual.

    Solves the optimal transport of m, covers its plan with family dipoles
    and certifies the actual residual with a fresh norm solve.
    """
    _check_greedy_options(tol, min_depth)
    base = kr0_norm(m)
    sink = _TermSink()
    _greedy_dipoles(base.plan, tol, SnapTable(cfg), min_depth, sink)
    return _certified(m, "kr0", sink.terms(), cfg, "greedy", norm=base.value)


def decompose_full(
    m: DiscreteSignedMeasure,
    tol: float,
    cfg: FamilyConfig,
    min_depth: int = 0,
) -> AtomicDecomposition:
    """Dipole + point-mass decomposition of any finitely supported measure.

    Each support atom is swapped onto its nearest d1 grid point at a depth
    where the snap distance is at most tol / (4 * TV(m)), carrying its full
    weight as a point-mass coefficient.  The swap error, the sum of
    w * (delta_p - delta_snap(p)), is transported by the snap plan: one
    edge per atom from the atom to its own snap (none when the atom already
    sits on it).  That plan is feasible by construction and costs at most
    tol / 4, so no transport LP is solved for it; greedy dipoles cover it
    at half the tolerance.  The point-mass coefficients therefore sum to
    the total mass of m exactly.
    """
    _check_greedy_options(tol, min_depth)
    sink = _TermSink()
    snaps = SnapTable(cfg)
    snap_edges: list[TransportEdge] = []
    if m.atoms:
        target_dist = tol / (4.0 * m.total_variation())
        depth = min_depth
        while snap_radius(depth, cfg, "d1") > target_dist and depth < _DEPTH_CAP:
            depth += 1
        for p, w in m.atoms:
            x, _ = snaps.nearest(p, depth, "d1")
            sink.add(pair_index(x.index, 0), alpha2=w)
            # w * (delta_p - delta_x): mass runs from the negative end
            if x.coords != p:
                edge = (x.coords, p, w) if w > 0 else (p, x.coords, -w)
                snap_edges.append(TransportEdge(*edge))
    _greedy_dipoles(TransportPlan(tuple(snap_edges)), tol / 2.0, snaps, min_depth, sink)
    return _certified(m, "kr", sink.terms(), cfg, "greedy")


# -- l1-minimal construction ----------------------------------------------


def _l1_columns(ids: np.ndarray, sep: np.ndarray):
    """The l1 program's costs and CSC columns, +c then -c per id, at unit
    cost: c is (delta_{x_a} - delta_{y_b}) / sep[a, b], in rows a and na + b,
    for id a * nb + b, and the point mass delta_{x_a}, in row a, for id na * nb + a."""
    twice = np.repeat(ids, 2)
    cost, start, index, value = _columns(twice, sep)
    w = np.tile([1.0, -1.0], len(ids)) / cost  # cost: sep[a, b], or 1 for a point mass
    value[start[:-1]] = w
    cell = twice < sep.size
    value[start[:-1][cell] + 1] = -w[cell]
    return np.ones(len(twice)), start, index, value


def decompose_l1_minimal(
    m: DiscreteSignedMeasure,
    truncation: int,
    variant: str,
    cfg: FamilyConfig,
) -> AtomicDecomposition:
    """Exact minimum-l1 coefficients over the pairs with index <= truncation
    (the module docstring has the program); raises TruncationCoverageError
    naming the uncovered support points, or when no exact combination exists."""
    if variant not in ("kr0", "kr"):
        raise ValueError("variant must be 'kr0' or 'kr'")
    if truncation < 1:
        raise ValueError(f"truncation (--truncate) must be >= 1, not {truncation!r}")
    if variant == "kr0" and not m.is_balanced(MASS_BALANCE_TOL):
        raise ValueError("balanced variant needs a balanced measure")
    if not m.atoms:
        return _certified(m, variant, (), cfg, "l1_minimal")
    # the prefix ends on anti-diagonal s: it uses y_0 .. y_s, and x_s only
    # when it holds pair (s, 0), the last of that diagonal
    s = sum(pair_components(truncation))
    na, nb = s + (pair_index(s, 0) <= truncation), s + 1
    firsts = [pair_index(a, 0) for a in range(na)] + [pair_index(0, b) for b in range(nb)]
    pairs = list(iter_pairs(cfg, firsts))
    points = [pair.x.coords for pair in pairs[:na]] + [pair.y.coords for pair in pairs[na:]]
    weights, known = dict(m.atoms), set(points)
    missing = [p for p in weights if p not in known]
    if missing:
        raise TruncationCoverageError(
            f"support points not covered by the first {truncation} pairs: {missing}"
        )
    sep = _distances(np.array(points[:na]), np.array(points[na:]))
    a, b = np.ogrid[:na, :nb]  # a * nb and b: the flat cells (a, 0) and (0, b)
    sep[(a + b) * (a + b + 1) // 2 + a + 1 > truncation] = np.inf  # never priced
    seed = _line_minima(sep, _SEED_EDGES)
    ids = np.union1d(seed[np.isfinite(sep.ravel()[seed])], np.union1d(a * nb, b))
    if variant == "kr":
        ids = np.concatenate([ids, sep.size + np.arange(na)])
    try:
        ids, sol, _ = _generate(
            ids, lambda ids: _l1_columns(ids, sep),
            np.array([weights.get(p, 0.0) for p in points]),
            lambda u: 1.0 - np.abs(u[:na, None] - u[None, na:]) / sep,
        )
    except LPSolveError as exc:
        raise TruncationCoverageError(
            f"no exact combination over the first {truncation} pairs: {exc}"
        ) from exc
    x = np.array(sol.col_value)
    sink, alpha = _TermSink(), x[0::2] - x[1::2]
    for j, c in zip(ids[alpha != 0].tolist(), alpha[alpha != 0].tolist()):
        if j < sep.size:
            sink.add(pair_index(*divmod(j, nb)), c)
        else:
            sink.add(pair_index(j - sep.size, 0), alpha2=c)
    return _certified(m, variant, sink.terms(), cfg, "l1_minimal")


# -- reconstruction and verification ---------------------------------------


def reconstruct(
    dec: AtomicDecomposition, prefix: Optional[int] = None
) -> DiscreteSignedMeasure:
    """Partial sum of the first ``prefix`` terms (all terms by default)."""
    terms = dec.terms
    if prefix is not None:
        if prefix < 0 or prefix > len(terms):
            raise ValueError("prefix out of range")
        terms = terms[:prefix]
    pairs = iter_pairs(dec.family, [j for j, _, _ in terms])
    atoms = [a for pair, (_, a1, a2) in zip(pairs, terms) for a in term_atoms(pair, a1, a2)]
    return DiscreteSignedMeasure.from_atoms(dec.target.domain, atoms)


def _cone(x: Point, alpha1: float, alpha2: float, z: Sequence[float], d: float) -> float:
    """The witness cone around x with slope 1/(d+1), its sign pattern
    selected by (alpha1, alpha2), evaluated at z."""
    s1, s2 = (1.0 if a >= 0 else -1.0 for a in (alpha1, alpha2))
    return (s2 - s1 * euclidean(x, z)) / (d + 1.0)


def testfn_eval(
    j: int, alpha1: float, alpha2: float, z: Sequence[float], cfg: FamilyConfig
) -> float:
    """Piecewise witness for the per-term lower bound: a cone around x_j
    with slope 1/(diam+1), its sign pattern selected by (alpha1, alpha2)."""
    return _cone(family_pair(j, cfg).x.coords, alpha1, alpha2, z, cfg.domain.diameter)


def _sample_grid(cfg: FamilyConfig, total: int) -> list[Point]:
    n = cfg.domain.dim
    per_axis = max(2, round(total ** (1.0 / n)))
    axes = [
        [lo + (hi - lo) * i / (per_axis - 1) for i in range(per_axis)]
        for lo, hi in zip(cfg.domain.lo, cfg.domain.hi)
    ]
    pts = [()]
    for axis in axes:
        pts = [p + (v,) for p in pts for v in axis]
    return pts


def term_measure(
    j: int, alpha1: float, alpha2: float, cfg: FamilyConfig
) -> DiscreteSignedMeasure:
    """The measure alpha1 * dipole_j + alpha2 * delta_{x_j}."""
    return DiscreteSignedMeasure.from_atoms(
        cfg.domain, term_atoms(family_pair(j, cfg), alpha1, alpha2)
    )


def _term_norm(pair: FamilyPair, alpha1: float, alpha2: float) -> float:
    """Extended norm of alpha1 * dipole_j + alpha2 * delta_{x_j}, which is
    wx * delta_x - (alpha1 / s) * delta_y with wx = alpha1 / s + alpha2 and
    s = |x - y|.  Weights of one sign pay 1 per unit at the bank; of
    opposite signs, the matched mass moves at min(s, 2) (transport, or
    destroy and create) and the excess pays 1 per unit."""
    s = pair.separation
    wx, wy = abs(alpha1 / s + alpha2), abs(alpha1) / s
    if alpha1 * (alpha1 / s + alpha2) > 0:  # opposite signs at x and y
        return min(wx, wy) * min(s, 2.0) + abs(wx - wy)
    return wx + wy


def verify_term_lower_bound(
    j: int,
    alpha1: float,
    alpha2: float,
    cfg: FamilyConfig,
    witness_grid: int = 0,
) -> TermBoundCheck:
    """Check  ||alpha1*dipole_j + alpha2*delta_{x_j}||  >=  (|a1|+|a2|)/(d+1),
    the extended norm of the two-point term taken in closed form, and that
    the explicit witness pairs to exactly the right-hand side; with
    ``witness_grid`` > 0 also samples the witness Lipschitz norm."""
    if alpha1 == 0.0 and alpha2 == 0.0:
        raise ValueError("coefficients must not both be zero")
    pair = family_pair(j, cfg)
    d = cfg.domain.diameter
    lhs = _term_norm(pair, alpha1, alpha2)
    rhs = (abs(alpha1) + abs(alpha2)) / (d + 1.0)
    x = pair.x.coords
    fx = _cone(x, alpha1, alpha2, x, d)
    fy = _cone(x, alpha1, alpha2, pair.y.coords, d)
    pairing = (fx - fy) / pair.separation * alpha1 + fx * alpha2
    witness_lip = None
    if witness_grid > 0:
        grid = _sample_grid(cfg, witness_grid)
        values = [_cone(x, alpha1, alpha2, z, d) for z in grid]
        witness_lip = lip_norm(grid, values)
    return TermBoundCheck(lhs, rhs, lhs >= rhs - 1e-9, pairing, witness_lip)


def verify_bounds(
    m: DiscreteSignedMeasure,
    dec: AtomicDecomposition,
    tol: float,
    ratio_floor: Optional[float] = None,
    check_terms: int = 0,
) -> BoundReport:
    """Upper bound  ||m|| <= l1 + residual + tol  plus the empirical ratio
    ||m|| / l1, read from the record; optionally re-checks the per-term
    lower bound on the ``check_terms`` largest terms and the requested
    ratio floor."""
    if dec.target != m:
        raise ValueError("decomposition was produced for a different measure")
    upper_ok = dec.norm <= dec.l1 + dec.residual_norm + tol
    per_term: Optional[bool] = None
    if check_terms > 0 and dec.terms:
        largest = sorted(dec.terms, key=lambda t: abs(t[1]) + abs(t[2]), reverse=True)
        per_term = all(
            verify_term_lower_bound(j, a1, a2, dec.family).ok
            for j, a1, a2 in largest[:check_terms]
            if (a1, a2) != (0.0, 0.0)
        )
    floor_ok = None if ratio_floor is None else dec.ratio >= ratio_floor
    return BoundReport(
        dec.norm, dec.l1, dec.residual_norm, upper_ok, dec.ratio, per_term, floor_ok
    )


def mass_identity_check(
    dec_a: AtomicDecomposition, dec_b: AtomicDecomposition, tol: float
) -> bool:
    """Two valid decompositions of one measure agree on the sum of their
    point-mass coefficients within the combined residual budget."""
    if dec_a.target != dec_b.target:
        raise ValueError("decompositions target different measures")
    for dec in (dec_a, dec_b):
        if dec.residual_norm > tol:
            raise ValueError("residual exceeds the stated tolerance")
    return abs(dec_a.sum_alpha2() - dec_b.sum_alpha2()) <= 2.0 * tol + 1e-9
