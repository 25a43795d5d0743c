"""Shared generators for randomized test instances."""

from __future__ import annotations

import random

from krdecomp import DiscreteSignedMeasure, Domain, FamilyConfig
from krdecomp.family import iter_pairs


def random_measure(
    rng: random.Random,
    domain: Domain,
    size: int,
    balanced: bool = False,
) -> DiscreteSignedMeasure:
    """Uniform support points with weights uniform in [-1, 1]; with
    ``balanced`` the mean weight is subtracted so the total mass is ~0."""
    atoms = []
    for _ in range(size):
        p = tuple(rng.uniform(lo, hi) for lo, hi in zip(domain.lo, domain.hi))
        atoms.append((p, rng.uniform(-1.0, 1.0)))
    if balanced:
        mean = sum(w for _, w in atoms) / len(atoms)
        atoms = [(p, w - mean) for p, w in atoms]
    return DiscreteSignedMeasure.from_atoms(domain, atoms)


def random_quantized(
    rng: random.Random,
    domain: Domain,
    unit: float,
    pos_units: int,
    neg_units: int,
) -> DiscreteSignedMeasure:
    """Integer numbers of unit masses placed at random points."""
    counts: dict[tuple, int] = {}
    for _ in range(pos_units):
        p = tuple(rng.uniform(lo, hi) for lo, hi in zip(domain.lo, domain.hi))
        counts[p] = counts.get(p, 0) + 1
    for _ in range(neg_units):
        p = tuple(rng.uniform(lo, hi) for lo, hi in zip(domain.lo, domain.hi))
        counts[p] = counts.get(p, 0) - 1
    return DiscreteSignedMeasure.from_atoms(
        domain, [(p, unit * k) for p, k in counts.items()]
    )


def l1_program_loop_reference(pairs, variant, m):
    """The dense l1 program over ``pairs``, A_eq and b assembled entry by
    entry: one row per point in first-seen order, a dipole column per pair
    and, for ``kr``, a point-mass column on each pair's x, each split into
    its positive and negative part."""
    import numpy as np
    import scipy.sparse as sp

    point_rows = {}

    def row_of(p):
        return point_rows.setdefault(p, len(point_rows))

    cols = []
    for pair in pairs:
        w = 1.0 / pair.separation
        cols.append([(row_of(pair.x.coords), w), (row_of(pair.y.coords), -w)])
        if variant == "kr":
            cols.append([(row_of(pair.x.coords), 1.0)])
    nrows, ncols = len(point_rows), len(cols)
    b = np.zeros(nrows)
    for p, w in m.atoms:
        b[point_rows[p]] = w
    rows_idx, cols_idx, vals = [], [], []
    for jcol, entries in enumerate(cols):
        for r, v in entries:
            rows_idx += [r, r]
            cols_idx += [jcol, ncols + jcol]
            vals += [v, -v]
    shape = (nrows, 2 * ncols)
    return sp.coo_matrix((vals, (rows_idx, cols_idx)), shape=shape).tocsr(), b


def dense_l1(cfg: FamilyConfig, truncation: int, variant: str, m: DiscreteSignedMeasure) -> float:
    """The optimum of the dense l1 program over the pairs j <= truncation,
    solved by scipy's linprog (HiGHS dual simplex)."""
    import numpy as np
    from scipy.optimize import linprog

    pairs = list(iter_pairs(cfg, range(1, truncation + 1)))
    A_eq, b = l1_program_loop_reference(pairs, variant, m)
    res = linprog(
        np.ones(A_eq.shape[1]), A_eq=A_eq, b_eq=b, method="highs-ds",
        options={"presolve": False, "dual_feasibility_tolerance": 1e-10,
                 "primal_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def prefix_measure(
    rng: random.Random, cfg: FamilyConfig, truncation: int, size: int, balanced: bool
) -> DiscreteSignedMeasure:
    """Uniform weights in [-1, 1] on ``size`` distinct points of the pairs
    j <= truncation (all of them when there are fewer); with ``balanced``
    the mean weight is subtracted."""
    points = sorted({p for pair in iter_pairs(cfg, range(1, truncation + 1))
                     for p in (pair.x.coords, pair.y.coords)})
    atoms = [(p, rng.uniform(-1.0, 1.0)) for p in rng.sample(points, min(size, len(points)))]
    if balanced:
        mean = sum(w for _, w in atoms) / len(atoms)
        atoms = [(p, w - mean) for p, w in atoms]
    return DiscreteSignedMeasure.from_atoms(cfg.domain, atoms)
