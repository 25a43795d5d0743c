"""Constructive atomic decompositions over the canonical pair family.

A balanced measure is decomposed as a finite combination of normalized
dipoles taken from the pair family: each transport-plan edge is snapped
onto a family dipole, and the snap errors telescope down the dyadic
depths until the certified residual is below tolerance.  A general
measure additionally receives one point-mass coefficient per support
atom.  An exact alternative solves the l1-minimal coefficient program on
a truncated family.  Every construction ends in one record type whose
residual is certified by a fresh norm solve.  Every constructor
collects its coefficients in one term sink, which sums them per pair
index, and a reconstruction decodes all its pairs in one call to the
family's decoder, ``iter_pairs``.  Verification checks the
norm-vs-l1 upper bound, the per-term lower bound with its explicit
Lipschitz witness, and the invariance of the point-mass coefficient sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .family import (
    FamilyConfig,
    FamilyPair,
    FamilyPoint,
    family_pair,
    iter_pairs,
    nearest_family_point,
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
    _solve_lp,
)

_DEPTH_CAP = 60
_CHAIN_FRACTION = 0.45  # portion of the tolerance spent by chain leftovers

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


def _chain(
    p: Point,
    start: FamilyPoint,
    start_dist: float,
    depth: int,
    cfg: FamilyConfig,
    c: float,
    budget: float,
    sink: _TermSink,
) -> None:
    """Cover c*(delta_p - delta_start) by dipoles of ever deeper snaps of p
    within the family of ``start``, until the leftover c*(delta_p -
    delta_snap) costs at most budget to transport."""
    tag = start.family
    other = "d2" if tag == "d1" else "d1"
    cur, d_cur = start, start_dist
    while abs(c) * d_cur > budget and depth < _DEPTH_CAP:
        depth += 1
        nxt, d_nxt = nearest_family_point(p, depth, tag, cfg)
        if nxt.coords == cur.coords:
            continue
        mid, _ = nearest_family_point(p, depth, other, cfg)
        # c*(delta_nxt - delta_cur) routed through mid of the other family
        sink.emit(nxt, mid, c)
        sink.emit(mid, cur, c)
        cur, d_cur = nxt, d_nxt


def _edge_chains(
    p: Point,
    q: Point,
    mass: float,
    budget: float,
    cfg: FamilyConfig,
    sink: _TermSink,
    min_depth: int,
) -> None:
    """Decompose the plan-edge contribution mass*(delta_p - delta_q): snap
    p into one family and q into the other, the assignment with the smaller
    initial snap error winning (d1 for p on a tie)."""
    length = euclidean(p, q)
    depth = min_depth
    while snap_radius(depth, cfg, "d2") > length / 4.0 and depth < _DEPTH_CAP:
        depth += 1
    (sp, dp), (sq, dq) = min(
        [(nearest_family_point(p, depth, fp, cfg), nearest_family_point(q, depth, fq, cfg))
         for fp, fq in (("d1", "d2"), ("d2", "d1"))],
        key=lambda snaps: snaps[0][1] + snaps[1][1],
    )
    sink.emit(sp, sq, mass)
    _chain(p, sp, dp, depth, cfg, mass, budget / 2, sink)
    _chain(q, sq, dq, depth, cfg, -mass, budget / 2, sink)


def _greedy_dipoles(
    plan: TransportPlan, tol: float, cfg: FamilyConfig, min_depth: int, sink: _TermSink
) -> None:
    """Adds to ``sink`` the dipole terms of the balanced measure that
    ``plan`` transports (any feasible plan, not necessarily an optimal
    one): every plan edge is snapped onto a family dipole and its snap
    errors telescope to deeper grids until the bookkept leftover cost is
    below tol."""
    edge_costs = [e.cost() for e in plan.edges]
    total = math.fsum(edge_costs)
    if total > 0.0:
        for e, ec in zip(plan.edges, edge_costs):
            budget = _CHAIN_FRACTION * tol * ec / total
            _edge_chains(e.target, e.source, e.mass, budget, cfg, sink, min_depth)


def _check_greedy_options(tol: float, min_depth: int) -> None:
    if not tol > 0:  # NaN included
        raise ValueError(f"tolerance tol must be positive, not {tol!r}")
    if not 0 <= min_depth <= _DEPTH_CAP:  # no chain runs deeper than the cap
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
    _greedy_dipoles(base.plan, tol, cfg, min_depth, sink)
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
    snap_edges: list[TransportEdge] = []
    if m.atoms:
        target_dist = tol / (4.0 * m.total_variation())
        depth = min_depth
        while snap_radius(depth, cfg, "d1") > target_dist and depth < _DEPTH_CAP:
            depth += 1
        for p, w in m.atoms:
            x, _ = nearest_family_point(p, depth, "d1", cfg)
            sink.add(pair_index(x.index, 0), alpha2=w)
            # w * (delta_p - delta_x): mass runs from the negative end
            if x.coords != p:
                edge = (x.coords, p, w) if w > 0 else (p, x.coords, -w)
                snap_edges.append(TransportEdge(*edge))
    _greedy_dipoles(TransportPlan(tuple(snap_edges)), tol / 2.0, cfg, min_depth, sink)
    return _certified(m, "kr", sink.terms(), cfg, "greedy")


# -- l1-minimal construction ----------------------------------------------


def decompose_l1_minimal(
    m: DiscreteSignedMeasure,
    truncation: int,
    variant: str,
    cfg: FamilyConfig,
) -> AtomicDecomposition:
    """Exact minimum-l1 coefficients over atoms with pair index <= truncation.

    Solves min sum|alpha| subject to the combination matching m atom by
    atom; raises :class:`TruncationCoverageError` when the support is not
    covered (naming the points) or no exact combination exists.
    """
    if variant not in ("kr0", "kr"):
        raise ValueError("variant must be 'kr0' or 'kr'")
    if truncation < 1:
        raise ValueError("truncation size must be >= 1")
    if variant == "kr0" and not m.is_balanced(MASS_BALANCE_TOL):
        raise ValueError("balanced variant needs a balanced measure")
    if not m.atoms:
        return _certified(m, variant, (), cfg, "l1_minimal")
    pairs = list(iter_pairs(cfg, range(1, truncation + 1)))
    # one row per point, in first-seen order x_1, y_1, x_2, ...
    point_rows: dict[Point, int] = {}
    ends = np.array([
        point_rows.setdefault(p, len(point_rows))
        for pair in pairs
        for p in (pair.x.coords, pair.y.coords)
    ])
    missing = [p for p, _ in m.atoms if p not in point_rows]
    if missing:
        raise TruncationCoverageError(
            f"support points not covered by the first {truncation} atoms: {missing}"
        )

    # pair k owns column k * slots (its dipole) and, for kr, column
    # k * slots + 1 (its delta_x)
    rx, ry = ends[0::2], ends[1::2]
    w = 1.0 / np.array([pair.separation for pair in pairs])
    slots = 2 if variant == "kr" else 1
    dip = slots * np.arange(len(pairs))
    rows, cols, vals = [rx, ry], [dip, dip], [w, -w]
    if variant == "kr":
        rows.append(rx)
        cols.append(dip + 1)
        vals.append(np.ones(len(pairs)))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    nrows, ncols = len(point_rows), slots * len(pairs)
    b = np.zeros(nrows)
    for p, wp in m.atoms:
        b[point_rows[p]] = wp
    # split alpha = alpha_plus - alpha_minus
    A_eq = sp.coo_matrix(
        (np.concatenate([vals, -vals]),
         (np.concatenate([rows, rows]), np.concatenate([cols, ncols + cols]))),
        shape=(nrows, 2 * ncols),
    ).tocsr()
    try:
        res = _solve_lp(np.ones(2 * ncols), A_eq, b)
    except LPSolveError as exc:
        raise TruncationCoverageError(
            f"no exact combination over the first {truncation} atoms: {exc}"
        ) from exc
    alpha = (res.x[:ncols] - res.x[ncols:]).reshape(len(pairs), slots)
    sink = _TermSink()
    for k in np.flatnonzero(alpha.any(axis=1)):
        sink.add(pairs[k].index, *map(float, alpha[k]))
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
    lower bound on the ``check_terms`` largest terms and, for l1-minimal
    decompositions, the requested ratio floor."""
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
    floor_ok: Optional[bool] = None
    if ratio_floor is not None and dec.method == "l1_minimal":
        floor_ok = dec.ratio >= ratio_floor
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
