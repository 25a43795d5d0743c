"""Atomic decompositions: identity cases, greedy dipoles, l1 program, verification."""

import math
import random
import time

import pytest

from krdecomp import (
    BalanceViolationError,
    DiscreteSignedMeasure,
    Domain,
    FamilyConfig,
    TruncationCoverageError,
    decompose_balanced,
    decompose_full,
    decompose_l1_minimal,
    delta_atom,
    d1_point,
    dirac,
    dipole,
    family_pair,
    kr0_norm,
    kr_norm,
    mass_identity_check,
    reconstruct,
    term_measure,
    verify_bounds,
    verify_term_lower_bound,
)
from krdecomp import testfn_eval as witness_eval
from krdecomp.family import iter_pairs, pair_components, term_atoms
from conftest import dense_l1, prefix_measure, random_measure

DOM2 = Domain.unit(2)
CFG2 = FamilyConfig(DOM2)
CFG1 = FamilyConfig(Domain.unit(1))


def balanced_random(rng, size=6):
    return random_measure(rng, DOM2, size, balanced=True)


# -- decompose_balanced -----------------------------------------------------


def test_balanced_identity_scaled_atom():
    atom = delta_atom(2 * 5 - 1, CFG2)  # dipole atom of pair 5
    m = atom.measure.scaled(0.7)
    dec = decompose_balanced(m, 1e-6, CFG2)
    assert len(dec.terms) == 1
    j, alpha, alpha2 = dec.terms[0]
    assert j == 5
    assert alpha == pytest.approx(0.7, abs=1e-12)
    assert alpha2 == 0.0
    assert dec.residual_norm <= 1e-12
    assert dec.l1 == pytest.approx(0.7, abs=1e-12)


def test_balanced_reversed_atom_single_term():
    atom = delta_atom(2 * 5 - 1, CFG2)
    dec = decompose_balanced(atom.measure.scaled(-0.7), 1e-6, CFG2)
    assert dec.terms == ((5, pytest.approx(-0.7, abs=1e-12), 0.0),)
    assert dec.residual_norm <= 1e-12


def test_balanced_grid_dipole_finite_chain():
    a = d1_point(3, CFG2)
    b = d1_point(9, CFG2)
    m = dipole(DOM2, a.coords, b.coords, 1.0)
    dec = decompose_balanced(m, 1e-6, CFG2)
    assert dec.residual_norm <= 1e-6  # certified by a fresh solve
    assert kr0_norm(m - reconstruct(dec)).value <= 1e-6
    assert dec.l1 < 10.0 * kr0_norm(m).value


def test_balanced_random_six_points():
    rng = random.Random(21)
    m = balanced_random(rng)
    dec = decompose_balanced(m, 1e-3, CFG2)
    assert dec.residual_norm <= 1e-3
    assert kr0_norm(m).value <= dec.l1 + 1e-3


def _snap_floor(dec, tol):
    """The ratio a greedy kr0 decomposition guarantees: one dipole per edge
    of the optimal plan gives l1 <= ||m|| + 0.45*tol."""
    return dec.norm / (dec.norm + 0.45 * tol)


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_greedy_kr0_ratio_floor_and_terms(dim, tol):
    cfg = FamilyConfig(Domain.unit(dim))
    rng = random.Random(70 + dim)
    for size in (10, 20, 40):
        m = random_measure(rng, cfg.domain, size, balanced=True)
        dec = decompose_balanced(m, tol, cfg)
        assert dec.residual_norm <= tol
        assert dec.ratio >= _snap_floor(dec, tol) - 1e-12
        assert len(dec.terms) <= len(kr0_norm(m).plan.edges)


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_greedy_kr0_ratio_floor_close_dipoles(dim, eps):
    cfg = FamilyConfig(Domain.unit(dim))
    rng = random.Random(80 + dim)
    for tol in (1e-4, 1e-8):
        x = tuple(rng.uniform(0.0, 0.9) for _ in range(dim))
        step = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        scale = eps / math.hypot(*step)
        m = dipole(cfg.domain, x, tuple(a + scale * abs(b) for a, b in zip(x, step)), 0.8)
        dec = decompose_balanced(m, tol, cfg)
        assert dec.residual_norm <= tol
        assert dec.ratio >= _snap_floor(dec, tol) - 1e-12
        assert len(dec.terms) == 1


def test_record_carries_variant_norm_and_ratio():
    rng = random.Random(23)
    m = balanced_random(rng)
    dec = decompose_balanced(m, 1e-4, CFG2)
    assert dec.variant == "kr0" and all(a2 == 0.0 for _, _, a2 in dec.terms)
    assert dec.norm == kr0_norm(m).value
    assert dec.ratio == dec.norm / dec.l1
    full = decompose_full(m, 1e-4, CFG2)
    assert full.variant == "kr" and full.norm == kr_norm(m).value


def test_balanced_rejects_bad_inputs():
    with pytest.raises(BalanceViolationError):
        decompose_balanced(dirac(DOM2, (0.5, 0.5)), 1e-4, CFG2)
    with pytest.raises(ValueError):
        decompose_balanced(DiscreteSignedMeasure.zero(DOM2), -1.0, CFG2)


def test_balanced_zero_measure():
    dec = decompose_balanced(DiscreteSignedMeasure.zero(DOM2), 1e-6, CFG2)
    assert dec.terms == () and dec.l1 == 0.0 and dec.residual_norm == 0.0


# -- decompose_full ---------------------------------------------------------


def test_full_dirac_on_family_point():
    x1 = family_pair(1, CFG2).x
    dec = decompose_full(dirac(DOM2, x1.coords), 1e-6, CFG2)
    assert dec.terms == ((1, 0.0, 1.0),)
    assert dec.residual_norm == 0.0
    assert dec.sum_alpha2() == 1.0


def test_full_dirac_off_grid():
    m = dirac(DOM2, (0.3141, 0.2718))
    dec = decompose_full(m, 1e-4, CFG2)
    assert dec.sum_alpha2() == pytest.approx(1.0, abs=1e-12)
    assert dec.residual_norm <= 1e-4
    alpha2_terms = [t for t in dec.terms if t[2] != 0.0]
    assert len(alpha2_terms) == 1 and alpha2_terms[0][2] == 1.0
    assert any(t[1] != 0.0 for t in dec.terms)  # the swap is paid in dipoles


def test_full_balanced_input_has_zero_alpha2_sum():
    rng = random.Random(33)
    m = balanced_random(rng, 5)
    dec = decompose_full(m, 1e-4, CFG2)
    assert dec.sum_alpha2() == pytest.approx(0.0, abs=1e-12)
    assert dec.residual_norm <= 1e-4


def test_full_alpha2_sum_is_total_mass():
    rng = random.Random(35)
    m = random_measure(rng, DOM2, 6)
    dec = decompose_full(m, 1e-4, CFG2)
    assert dec.sum_alpha2() == pytest.approx(m.total_mass(), abs=1e-12)
    assert kr_norm(m).value <= dec.l1 + dec.residual_norm + 1e-9


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_full_snap_plan_keeps_residual_and_mass(dim):
    # the swap error is covered through the snap plan, not an optimal one
    dom = Domain.unit(dim)
    cfg = FamilyConfig(dom)
    rng = random.Random(300 + dim)
    for trial in range(6):
        m = random_measure(rng, dom, rng.randint(1, 8), balanced=trial % 3 == 0)
        if trial == 5:  # one atom already on a grid point, two on one snap
            x = d1_point(7, cfg).coords
            near = tuple(min(c + 1e-9, 1.0) for c in x)
            m = m + DiscreteSignedMeasure.from_atoms(dom, [(x, 0.4), (near, -0.3)])
        tol = rng.choice([1e-3, 1e-4, 1e-6])
        dec = decompose_full(m, tol, cfg)
        assert dec.residual_norm <= tol
        assert dec.sum_alpha2() == pytest.approx(m.total_mass(), abs=1e-12)


def test_full_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        decompose_full(dirac(DOM2, (0.5, 0.5)), 0.0, CFG2)


# -- decompose_l1_minimal ---------------------------------------------------


def test_l1_minimal_atom_identity():
    m = delta_atom(2 * 3 - 1, CFG2).measure  # dipole atom of pair 3
    dec = decompose_l1_minimal(m, 5, "kr0", CFG2)
    assert dec.terms == ((3, pytest.approx(1.0, abs=1e-9), 0.0),)
    assert dec.l1 == pytest.approx(1.0, abs=1e-9)
    assert dec.residual_norm <= 1e-9
    report = verify_bounds(m, dec, 1e-9)
    assert report.upper_ok and report.ratio == pytest.approx(1.0, abs=1e-7)


def test_l1_minimal_two_atom_sum():
    m = delta_atom(1, CFG2).measure + delta_atom(5, CFG2).measure
    dec = decompose_l1_minimal(m, 6, "kr0", CFG2)
    assert dec.l1 <= 2.0 + 1e-9
    norm = kr0_norm(m).value
    assert norm / dec.l1 >= norm / 2.0 - 1e-9


@pytest.mark.parametrize("variant", ["kr0", "kr"])
@pytest.mark.parametrize("dim", [1, 2])
def test_l1_program_matches_loop_reference(monkeypatch, variant, dim):
    import numpy as np
    import scipy.sparse as sp

    import krdecomp.decompose as decompose

    cfg = FamilyConfig(Domain.unit(dim))
    m = delta_atom(9, cfg).measure.scaled(0.6) + delta_atom(21, cfg).measure
    if variant == "kr":
        m = m + delta_atom(30, cfg).measure.scaled(-0.2)
    seen = []
    real = decompose._generate
    monkeypatch.setattr(
        decompose, "_generate",
        lambda ids, columns, b, reduced: seen.append((columns, b, reduced))
        or real(ids, columns, b, reduced),
    )
    decompose_l1_minimal(m, 300, variant, cfg)
    (columns, b, reduced), = seen

    # rows: the d1 points x_a by index a, then the d2 points y_b
    pairs = [family_pair(j, cfg) for j in range(1, 301)]
    xs = {pair.x.index: pair.x.coords for pair in pairs}
    ys = {pair.y.index: pair.y.coords for pair in pairs}
    na, nb = len(xs), len(ys)
    assert sorted(xs) == list(range(na)) and sorted(ys) == list(range(nb))
    point_rows = {p: a for a, p in xs.items()} | {p: na + b for b, p in ys.items()}
    # every column id: each pair's dipole, then for kr each d1 point's mass
    ids, cols = [], []
    for pair in pairs:
        w = 1.0 / pair.separation
        ids.append(pair.x.index * nb + pair.y.index)
        cols.append([(pair.x.index, w), (na + pair.y.index, -w)])
    if variant == "kr":
        ids += [na * nb + a for a in range(na)]
        cols += [[(a, 1.0)] for a in range(na)]
    rows_idx, cols_idx, vals = [], [], []
    for k, entries in enumerate(cols):
        for r, v in entries:
            rows_idx += [r, r]
            cols_idx += [2 * k, 2 * k + 1]
            vals += [v, -v]
    expected = sp.coo_matrix((vals, (rows_idx, cols_idx)), shape=(na + nb, 2 * len(cols)))
    expected = expected.tocsc()
    expected_b = np.zeros(na + nb)
    for p, w in m.atoms:
        expected_b[point_rows[p]] = w

    cost, start, index, value = columns(np.array(ids))
    assert np.array_equal(start, expected.indptr)
    assert np.array_equal(index, expected.indices)
    # the program's separations come from solver._distances, the pairs'
    # from math.dist: they may differ in the last bit
    assert np.allclose(value, expected.data, rtol=1e-15, atol=0.0)
    assert np.array_equal(np.sign(value), np.sign(expected.data))
    assert (cost == 1.0).all()
    assert np.array_equal(b, expected_b)

    # reduced costs: the better sign's c - A^T u on pairs j <= 300, and no
    # negative price past them
    u = np.random.default_rng(dim).normal(size=na + nb)
    got = reduced(u)
    dense = expected.toarray()
    for k, pair in enumerate(pairs):
        want = min(1.0 - dense[:, 2 * k] @ u, 1.0 - dense[:, 2 * k + 1] @ u)
        assert math.isclose(got[pair.x.index, pair.y.index], want, rel_tol=1e-12, abs_tol=1e-12)
    in_prefix = np.zeros((na, nb), dtype=bool)
    in_prefix[[pair.x.index for pair in pairs], [pair.y.index for pair in pairs]] = True
    assert (got[~in_prefix] == 1.0).all()


def test_l1_minimal_uncovered_support_raises():
    with pytest.raises(TruncationCoverageError, match="0.123"):
        decompose_l1_minimal(dirac(DOM2, (0.123, 0.4)), 4, "kr", CFG2)


def test_l1_minimal_unrepresentable_raises():
    # both corners lie in d1, but no single pair connects them
    p0 = d1_point(0, CFG2).coords
    p1 = d1_point(1, CFG2).coords
    m = DiscreteSignedMeasure.from_atoms(DOM2, [(p0, 1.0), (p1, -1.0)])
    with pytest.raises(TruncationCoverageError):
        decompose_l1_minimal(m, 1, "kr0", CFG2)


def test_l1_minimal_full_variant_delta():
    x2 = family_pair(2, CFG2).x
    dec = decompose_l1_minimal(dirac(DOM2, x2.coords), 4, "kr", CFG2)
    assert dec.sum_alpha2() == pytest.approx(1.0, abs=1e-9)
    assert dec.l1 == pytest.approx(1.0, abs=1e-9)


def test_l1_minimal_unsolved_lp_is_a_coverage_error(monkeypatch):
    import krdecomp.decompose as decompose
    from krdecomp import LPSolveError

    def fail(*args):
        raise LPSolveError("LP solve failed (status 8): Infeasible")

    monkeypatch.setattr(decompose, "_generate", fail)
    m = delta_atom(9, CFG2).measure
    with pytest.raises(TruncationCoverageError, match="over the first 64 pairs: LP solve"):
        decompose_l1_minimal(m, 64, "kr0", CFG2)


def _l1_reference_cases():
    cases = [
        (dim, variant, truncation, "unit")
        for dim in (1, 2, 5)
        for variant in ("kr0", "kr")
        for truncation in (1, 2, 5, 64, 300, 1024, 4096)
    ]
    cases += [
        (dim, variant, truncation, family)
        for family in ("box", "offset")
        for dim in (1, 2, 5)
        for variant in ("kr0", "kr")
        for truncation in (64, 1024)
    ]
    return cases


_FAMILIES = {
    "unit": lambda dim: FamilyConfig(Domain.unit(dim)),
    "box": lambda dim: FamilyConfig(Domain((-1.5,) * dim, (2.0,) * dim)),
    "offset": lambda dim: FamilyConfig(Domain.unit(dim), 0.3),
}


@pytest.mark.parametrize("dim, variant, truncation, family", _l1_reference_cases())
def test_l1_matches_dense_program(dim, variant, truncation, family):
    cfg = _FAMILIES[family](dim)
    rng = random.Random(100 * dim + truncation)
    m = prefix_measure(rng, cfg, truncation, 6, balanced=variant == "kr0")
    dec = decompose_l1_minimal(m, truncation, variant, cfg)
    want = dense_l1(cfg, truncation, variant, m)
    assert math.isclose(dec.l1, want, rel_tol=1e-12, abs_tol=0.0)
    assert dec.residual_norm <= 1e-9
    # every atom has norm <= 1
    assert dec.norm <= dec.l1 + dec.residual_norm + 1e-12


@pytest.mark.parametrize("truncation", range(1, 41))
def test_l1_first_lp_is_feasible_from_the_tree_cells(monkeypatch, truncation):
    # with one seed cell per line, the cells (a, 0) and (0, b) are what make
    # the first LP feasible for a measure on every point of the prefix
    import krdecomp.decompose as decompose

    monkeypatch.setattr(decompose, "_SEED_EDGES", 1)
    m = prefix_measure(random.Random(truncation), CFG2, truncation, 10**6, balanced=True)
    dec = decompose_l1_minimal(m, truncation, "kr0", CFG2)
    assert dec.residual_norm <= 1e-9


@pytest.mark.parametrize("dim, variant", [(1, "kr0"), (2, "kr0"), (2, "kr"), (5, "kr")])
def test_l1_does_not_increase_with_truncation(dim, variant):
    cfg = FamilyConfig(Domain.unit(dim))
    m = prefix_measure(random.Random(dim), cfg, 20, 8, balanced=variant == "kr0")
    values = [
        decompose_l1_minimal(m, truncation, variant, cfg).l1
        for truncation in (20, 21, 40, 100, 300, 1000, 3000)
    ]
    for before, after in zip(values, values[1:]):
        assert after <= before * (1.0 + 1e-12)
    assert values[-1] < values[0]


def test_l1_program_at_a_hundred_thousand_pairs():
    cfg = FamilyConfig(Domain.unit(2))
    m = prefix_measure(random.Random(5), cfg, 3000, 6, balanced=True)
    start = time.perf_counter()
    dec = decompose_l1_minimal(m, 10**5, "kr0", cfg)
    assert time.perf_counter() - start < 5.0
    assert dec.residual_norm <= 1e-9
    assert dec.l1 <= decompose_l1_minimal(m, 3000, "kr0", cfg).l1 * (1.0 + 1e-12)


# -- reconstruct ------------------------------------------------------------


def test_reconstruct_full_prefix_equals_target():
    atom = delta_atom(2 * 5 - 1, CFG2)
    m = atom.measure.scaled(0.7)
    dec = decompose_balanced(m, 1e-6, CFG2)
    rec = reconstruct(dec)
    assert rec.support == m.support
    for (_, w1), (_, w2) in zip(rec.atoms, m.atoms):
        assert w1 == pytest.approx(w2, rel=1e-12)


def test_reconstruct_prefix_zero_and_bounds():
    m = delta_atom(1, CFG2).measure + delta_atom(5, CFG2).measure
    dec = decompose_l1_minimal(m, 6, "kr0", CFG2)
    assert reconstruct(dec, 0).atoms == ()
    with pytest.raises(ValueError):
        reconstruct(dec, len(dec.terms) + 1)


def test_reconstruct_prefix_residual_nonincreasing():
    # sweep the prefix on an exact sum of scaled atoms
    m = (
        delta_atom(1, CFG2).measure.scaled(0.9)
        + delta_atom(5, CFG2).measure.scaled(0.5)
        + delta_atom(9, CFG2).measure.scaled(0.25)
    )
    dec = decompose_balanced(m, 1e-9, CFG2)
    residuals = [
        kr0_norm(m - reconstruct(dec, n)).value for n in range(len(dec.terms) + 1)
    ]
    assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(len(residuals) - 1))
    assert residuals[-1] <= 1e-9


def _seeded_decompositions(dim):
    """Greedy kr0/kr and l1 kr0/kr decompositions of seeded measures."""
    cfg = FamilyConfig(Domain.unit(dim))
    rng = random.Random(100 + dim)
    yield decompose_balanced(random_measure(rng, cfg.domain, 6, balanced=True), 1e-6, cfg)
    yield decompose_full(random_measure(rng, cfg.domain, 6), 1e-6, cfg)
    pairs = iter_pairs(cfg, range(1, 65))
    points = sorted({p for pair in pairs for p in (pair.x.coords, pair.y.coords)})
    for variant in ("kr0", "kr"):
        weights = [rng.uniform(-1.0, 1.0) for _ in range(5)]
        if variant == "kr0":
            weights = [w - sum(weights) / 5 for w in weights]
        m = DiscreteSignedMeasure.from_atoms(cfg.domain, zip(rng.sample(points, 5), weights))
        yield decompose_l1_minimal(m, 64, variant, cfg)


def _count_point_builds(monkeypatch):
    import krdecomp.family as family

    built = []
    real = family._point_at

    def counting(k, cfg, tag):
        built.append((tag, k))
        return real(k, cfg, tag)

    monkeypatch.setattr(family, "_point_at", counting)
    return built


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_reconstruct_is_one_canonicalization_of_the_term_atoms(dim):
    for dec in _seeded_decompositions(dim):
        atoms = [
            a for j, a1, a2 in dec.terms for a in term_atoms(family_pair(j, dec.family), a1, a2)
        ]
        assert dec.terms
        assert reconstruct(dec) == DiscreteSignedMeasure.from_atoms(dec.target.domain, atoms)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_reconstruct_builds_each_family_point_once(monkeypatch, dim):
    shared = False
    for dec in _seeded_decompositions(dim):
        distinct = {pt for j, _, _ in dec.terms for pt in zip(("d1", "d2"), pair_components(j))}
        shared = shared or len(distinct) < 2 * len(dec.terms)
        built = _count_point_builds(monkeypatch)
        reconstruct(dec)
        monkeypatch.undo()
        assert sorted(built) == sorted(distinct)
    assert shared  # terms that share points are built fewer times than twice each


def test_term_lower_bound_decodes_its_pair_once(monkeypatch):
    built = _count_point_builds(monkeypatch)
    chk = verify_term_lower_bound(7, 0.5, -0.25, CFG2, witness_grid=1000)
    assert chk.witness_lip_norm is not None
    assert len(built) == 2


# -- test functions and bounds ----------------------------------------------


def test_testfn_values_at_the_pair():
    d = DOM2.diameter
    pair = family_pair(4, CFG2)
    assert witness_eval(4, 1.0, 1.0, pair.x.coords, CFG2) == pytest.approx(1 / (d + 1))
    assert witness_eval(4, -1.0, 1.0, pair.x.coords, CFG2) == pytest.approx(1 / (d + 1))
    assert witness_eval(4, 1.0, -1.0, pair.x.coords, CFG2) == pytest.approx(-1 / (d + 1))
    assert witness_eval(4, -1.0, -1.0, pair.x.coords, CFG2) == pytest.approx(-1 / (d + 1))


def test_testfn_zero_at_unit_distance():
    # pair 1 has x = (0, 0); the point (1, 0) is at distance exactly 1
    assert family_pair(1, CFG2).x.coords == (0.0, 0.0)
    assert witness_eval(1, 1.0, 1.0, (1.0, 0.0), CFG2) == pytest.approx(0.0, abs=1e-15)


def test_testfn_sign_antisymmetry_for_nonzero_coefficients():
    rng = random.Random(41)
    for _ in range(25):
        j = rng.randint(1, 30)
        a1 = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        a2 = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        z = (rng.random(), rng.random())
        assert witness_eval(j, -a1, -a2, z, CFG2) == pytest.approx(
            -witness_eval(j, a1, a2, z, CFG2), abs=1e-15
        )


def test_term_lower_bound_unit_coefficients():
    d = DOM2.diameter
    chk1 = verify_term_lower_bound(1, 1.0, 0.0, CFG2)
    assert chk1.ok and chk1.lhs == pytest.approx(1.0, abs=1e-9)
    assert chk1.lhs >= 1.0 / (d + 1)
    chk2 = verify_term_lower_bound(1, 0.0, 1.0, CFG2)
    assert chk2.ok and chk2.lhs == pytest.approx(1.0, abs=1e-9)


def test_term_lower_bound_random_trials():
    rng = random.Random(47)
    d = DOM2.diameter
    for _ in range(20):
        j = rng.randint(1, 40)
        a1 = rng.choice([-1, 1]) * rng.uniform(0.05, 2.0)
        a2 = rng.choice([-1, 1]) * rng.uniform(0.05, 2.0)
        chk = verify_term_lower_bound(j, a1, a2, CFG2, witness_grid=400)
        assert chk.ok
        assert chk.pairing == pytest.approx((abs(a1) + abs(a2)) / (d + 1), abs=1e-12)
        assert chk.witness_lip_norm <= 1.0 + 1e-9


def test_term_norm_closed_form_matches_lp():
    # boxes of side 3 and 4 make separations above 2 occur
    rng = random.Random(61)
    count, long_pairs = 0, 0
    for dim in (1, 2, 5):
        for lo, hi in ((0.0, 1.0), (0.0, 3.0), (-2.0, 2.0)):
            cfg = FamilyConfig(Domain((lo,) * dim, (hi,) * dim))
            for trial in range(48):
                j = rng.randint(1, 400)
                pair = family_pair(j, cfg)
                a1 = rng.choice([-1, 1]) * rng.uniform(0.01, 3.0)
                a2 = rng.choice([-1, 1]) * rng.uniform(0.01, 3.0)
                if trial % 8 == 0:
                    a1 = 0.0
                elif trial % 8 == 1:
                    a2 = 0.0
                elif trial % 8 == 2:
                    a2 = -(a1 / pair.separation)  # the x atom cancels
                lp = kr_norm(term_measure(j, a1, a2, cfg)).value
                assert verify_term_lower_bound(j, a1, a2, cfg).lhs == pytest.approx(
                    lp, rel=1e-12, abs=1e-15
                )
                count += 1
                long_pairs += pair.separation > 2.0
    assert count >= 400 and long_pairs > 0


def test_term_lower_bound_rejects_zero():
    with pytest.raises(ValueError):
        verify_term_lower_bound(3, 0.0, 0.0, CFG2)


def test_verify_bounds_identity_ratio():
    atom = delta_atom(2 * 7 - 1, CFG2)
    m = atom.measure.scaled(1.3)
    dec = decompose_balanced(m, 1e-6, CFG2)
    report = verify_bounds(m, dec, 1e-9)
    assert report.upper_ok
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_verify_bounds_greedy_random():
    rng = random.Random(51)
    m = balanced_random(rng)
    dec = decompose_balanced(m, 1e-4, CFG2)
    report = verify_bounds(m, dec, 1e-9, check_terms=10)
    assert report.upper_ok
    # a snapped dipole can be shorter than its edge, so only the residual
    # bounds the ratio from above; the snap budget bounds it from below
    assert report.norm <= report.l1 + report.residual_norm
    assert report.ratio >= _snap_floor(dec, 1e-4) - 1e-12
    assert report.per_term_lower_ok


def test_verify_bounds_l1_ratio_floor_single_term():
    d = DOM2.diameter
    j = 3
    m = term_measure(j, 0.8, -0.4, CFG2)
    # truncation must cover pair j in the kr variant
    dec = decompose_l1_minimal(m, 6, "kr", CFG2)
    report = verify_bounds(m, dec, 1e-9, ratio_floor=1.0 / (d + 1) - 1e-9)
    assert report.ratio_floor_ok


def test_verify_bounds_mismatched_target():
    rng = random.Random(53)
    m = balanced_random(rng)
    other = balanced_random(rng)
    dec = decompose_balanced(m, 1e-4, CFG2)
    with pytest.raises(ValueError):
        verify_bounds(other, dec, 1e-9)


# -- mass identities --------------------------------------------------------


def test_mass_identity_two_depth_schedules():
    m = dirac(DOM2, (0.377, 0.611))
    dec_a = decompose_full(m, 1e-4, CFG2)
    dec_b = decompose_full(m, 1e-4, CFG2, min_depth=20)
    assert dec_a.terms != dec_b.terms  # genuinely different constructions
    assert dec_a.sum_alpha2() == pytest.approx(1.0, abs=1e-12)
    assert dec_b.sum_alpha2() == pytest.approx(1.0, abs=1e-12)
    assert mass_identity_check(dec_a, dec_b, 1e-4)


def test_mass_identity_balanced():
    rng = random.Random(57)
    m = balanced_random(rng, 4)
    dec_a = decompose_full(m, 1e-4, CFG2)
    dec_b = decompose_full(m, 1e-4, CFG2, min_depth=19)
    assert dec_a.sum_alpha2() == pytest.approx(0.0, abs=1e-12)
    assert dec_b.sum_alpha2() == pytest.approx(0.0, abs=1e-12)
    assert mass_identity_check(dec_a, dec_b, 1e-4)


def test_mass_identity_trivial_and_errors():
    m = dirac(DOM2, (0.2, 0.4))
    dec = decompose_full(m, 1e-4, CFG2)
    assert mass_identity_check(dec, dec, 1e-4)
    other = decompose_full(dirac(DOM2, (0.6, 0.6)), 1e-4, CFG2)
    with pytest.raises(ValueError):
        mass_identity_check(dec, other, 1e-4)


# -- atom normalization -----------------------------------------------------


def test_atom_norms_small_sample():
    big = FamilyConfig(Domain((0.0, 0.0), (3.0, 3.0)))
    for j in range(1, 21):
        atom = delta_atom(j, big)
        if atom.kind == "dipole":
            assert kr0_norm(atom.measure).value == pytest.approx(1.0, abs=1e-9)
            sep = family_pair(atom.pair_index, big).separation
            expected = min(sep, 2.0) / sep
            assert kr_norm(atom.measure).value == pytest.approx(expected, abs=1e-9)
        else:
            assert kr_norm(atom.measure).value == pytest.approx(1.0, abs=1e-9)


def test_term_sink_emit_takes_either_end_first():
    from krdecomp.decompose import _TermSink
    from krdecomp.family import nearest_family_point

    x, _ = nearest_family_point((0.3, 0.6), 3, "d1", CFG2)
    y, _ = nearest_family_point((0.7, 0.2), 4, "d2", CFG2)
    forward, backward = _TermSink(), _TermSink()
    forward.emit(x, y, 0.37)
    backward.emit(y, x, -0.37)
    assert forward.terms() == backward.terms()
    (j, a1, a2), = forward.terms()
    assert family_pair(j, CFG2).x == x and a1 > 0 and a2 == 0.0


@pytest.mark.parametrize("construct", [decompose_balanced, decompose_full])
@pytest.mark.parametrize(
    "tol, min_depth, name",
    [(float("nan"), 0, "tol"), (1e-4, -2, "min_depth"), (1e-4, 100000, "min_depth")],
)
def test_greedy_rejects_bad_options_by_name(construct, tol, min_depth, name):
    m = dipole(DOM2, (0.1, 0.2), (0.7, 0.4), 1.0)
    with pytest.raises(ValueError, match=name):
        construct(m, tol, CFG2, min_depth)


# -- the snap table under the greedy dipoles --------------------------------


def _reference_dipoles(plan, tol, cfg, min_depth, sink):
    """One dipole per plan edge with one nearest_family_point call per snap
    and no table: a loop reference for decompose._greedy_dipoles."""
    import math

    from krdecomp.decompose import _DEPTH_CAP, _SNAP_FRACTION
    from krdecomp.family import nearest_family_point, snap_radius

    costs = [e.cost() for e in plan.edges]
    total = math.fsum(costs)
    for e, cost in zip(plan.edges, costs):
        p, q, mass = e.target, e.source, e.mass
        budget = _SNAP_FRACTION * tol * cost / total
        depth = min_depth
        while snap_radius(depth, cfg, "d2") > math.dist(p, q) / 4.0 and depth < _DEPTH_CAP:
            depth += 1
        for depth in range(depth, _DEPTH_CAP + 1):
            starts = []
            for fp, fq in (("d1", "d2"), ("d2", "d1")):
                starts.append((nearest_family_point(p, depth, fp, cfg),
                               nearest_family_point(q, depth, fq, cfg)))
            (sp, dp), (sq, dq) = min(starts, key=lambda s: s[0][1] + s[1][1])
            if abs(mass) * (dp + dq) <= budget:
                break
        sink.emit(sp, sq, mass)


def _snap_plan(m, tol, cfg, min_depth, sink):
    """decompose_full's snap plan, built with nearest_family_point; the
    point masses go to ``sink``."""
    from krdecomp.decompose import _DEPTH_CAP
    from krdecomp.family import nearest_family_point, pair_index, snap_radius
    from krdecomp.solver import TransportEdge, TransportPlan

    depth = min_depth
    while snap_radius(depth, cfg, "d1") > tol / (4.0 * m.total_variation()) and depth < _DEPTH_CAP:
        depth += 1
    edges = []
    for p, w in m.atoms:
        x, _ = nearest_family_point(p, depth, "d1", cfg)
        sink.add(pair_index(x.index, 0), alpha2=w)
        if x.coords != p:
            edges.append(TransportEdge(*((x.coords, p, w) if w > 0 else (p, x.coords, -w))))
    return TransportPlan(tuple(edges))


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("min_depth", [0, 5])
def test_chains_match_loop_reference(dim, min_depth):
    from krdecomp.decompose import _greedy_dipoles, _TermSink
    from krdecomp.family import SnapTable

    cfg = FamilyConfig(Domain.unit(dim))
    rng = random.Random(40 + dim)
    for size, tol in ((6, 1e-4), (12, 1e-6)):
        balanced = random_measure(rng, cfg.domain, size, balanced=True)
        general = random_measure(rng, cfg.domain, size)
        plans = [(kr0_norm(balanced).plan, tol)]
        plans.append((_snap_plan(general, tol, cfg, min_depth, _TermSink()), tol / 2))
        for plan, plan_tol in plans:
            table, loop = _TermSink(), _TermSink()
            _greedy_dipoles(plan, plan_tol, SnapTable(cfg), min_depth, table)
            _reference_dipoles(plan, plan_tol, cfg, min_depth, loop)
            assert table.terms() and table.terms() == loop.terms()
            assert len(table.terms()) <= len(plan.edges)
        # and end to end, through each constructor
        loop = _TermSink()
        _reference_dipoles(kr0_norm(balanced).plan, tol, cfg, min_depth, loop)
        assert decompose_balanced(balanced, tol, cfg, min_depth).terms == loop.terms()
        loop = _TermSink()
        _reference_dipoles(_snap_plan(general, tol, cfg, min_depth, loop), tol / 2, cfg,
                           min_depth, loop)
        assert decompose_full(general, tol, cfg, min_depth).terms == loop.terms()


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_greedy_snaps_each_point_once_per_depth_and_family(monkeypatch, dim):
    from krdecomp.family import SnapTable

    computed, looked_up = [], []
    real_snap, real_nearest = SnapTable._snap, SnapTable.nearest

    def snap(self, p, depth, which):
        computed.append((p, depth, which))
        return real_snap(self, p, depth, which)

    def nearest(self, p, depth, which):
        looked_up.append((p, depth, which))
        return real_nearest(self, p, depth, which)

    monkeypatch.setattr(SnapTable, "_snap", snap)
    monkeypatch.setattr(SnapTable, "nearest", nearest)
    cfg = FamilyConfig(Domain.unit(dim))
    rng = random.Random(60 + dim)
    shared = False
    for construct, balanced in ((decompose_balanced, True), (decompose_full, False)):
        for min_depth in (0, 5):
            computed.clear()
            looked_up.clear()
            construct(random_measure(rng, cfg.domain, 10, balanced), 1e-6, cfg, min_depth)
            assert computed and len(set(computed)) == len(computed)
            assert set(computed) == set(looked_up)
            shared = shared or len(looked_up) > len(computed)
    assert shared  # plan endpoints shared by several edges are looked up again
