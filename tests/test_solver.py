"""Norm solver: metric identities, duality, witnesses, plan feasibility."""

import math
import random

import pytest

from krdecomp import (
    BalanceViolationError,
    DiscreteSignedMeasure,
    Domain,
    DualPotential,
    DuplicatePointError,
    EmptyPotentialError,
    dipole,
    dirac,
    euclidean,
    kr0_norm,
    kr_norm,
    lip_norm,
    lipschitz_seminorm,
    mcshane_extend,
    oracle_kr,
    oracle_kr0,
)
from conftest import random_measure

DOM2 = Domain.unit(2)
DOM1_BIG = Domain((0.0,), (4.0,))

THREE_POINT = DiscreteSignedMeasure.from_atoms(
    DOM2, [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((0.5, 0.0), -2.0)]
)


def test_kr0_scaled_dipole_identity():
    m = dipole(DOM2, (0.0, 0.0), (0.3, 0.4), 2.0)
    res = kr0_norm(m)
    assert math.isclose(res.value, 1.0, abs_tol=1e-12)
    assert res.gap <= 1e-8
    assert res.plan.balance_gap(m) <= 1e-12


def test_kr0_zero_measure():
    res = kr0_norm(DiscreteSignedMeasure.zero(DOM2))
    assert res.value == 0.0 and res.plan.edges == () and res.potential.points == ()


def test_kr0_three_point_instance():
    # oracle: exhaustive unit matching after quantization at q = 1
    assert oracle_kr0(THREE_POINT, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert kr0_norm(THREE_POINT).value == pytest.approx(1.0, abs=1e-9)


def test_kr0_rejects_unbalanced():
    with pytest.raises(BalanceViolationError):
        kr0_norm(dirac(DOM2, (0.5, 0.5)))


def test_kr0_tolerates_mass_within_balance_tolerance():
    m = DiscreteSignedMeasure.from_atoms(
        DOM2, [((0.1, 0.1), 1.0 + 5e-11), ((0.8, 0.9), -1.0)]
    )
    res = kr0_norm(m)
    assert res.value == pytest.approx(euclidean((0.1, 0.1), (0.8, 0.9)), abs=1e-9)
    tiny = DiscreteSignedMeasure.from_atoms(DOM2, [((0.5, 0.5), 5e-11)])
    res = kr0_norm(tiny)
    assert res.value == 0.0 and res.potential.points == tiny.support
    assert res.gap >= res.plan.balance_gap(tiny)


def test_kr_dirac_is_one():
    res = kr_norm(dirac(DOM2, (0.2, 0.9)))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.gap <= 1e-8
    (edge,) = res.plan.edges
    assert edge.source is None and edge.mass == pytest.approx(1.0)


def test_kr_dipole_truncates_at_two():
    m = dipole(DOM1_BIG, (0.0,), (3.0,), 1.0)
    assert kr_norm(m).value == pytest.approx(2.0, abs=1e-9)
    m2 = dipole(DOM1_BIG, (0.0,), (1.5,), 1.0)
    assert kr_norm(m2).value == pytest.approx(1.5, abs=1e-9)


def test_kr_three_point_matches_kr0():
    # all pairwise distances < 2, so the bank is never used
    assert oracle_kr(THREE_POINT, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert kr_norm(THREE_POINT).value == pytest.approx(1.0, abs=1e-9)


def test_kr0_dual_dipole_witness():
    x, y = (0.1, 0.2), (0.7, 0.9)
    m = dipole(DOM2, x, y, 1.5)
    witness = kr0_norm(m).potential
    value = witness.pair_with(m)
    assert value == pytest.approx(1.5 * euclidean(x, y), abs=1e-9)
    table = dict(zip(witness.points, witness.values))
    assert table[x] - table[y] == pytest.approx(euclidean(x, y), abs=1e-9)


def test_kr0_dual_zero_measure():
    zero = DiscreteSignedMeasure.zero(DOM2)
    witness = kr0_norm(zero).potential
    assert witness.pair_with(zero) == 0.0 and witness.points == ()


def test_kr0_dual_matches_primal_on_random_instance():
    rng = random.Random(17)
    m = random_measure(rng, DOM2, 4, balanced=True)
    r = kr0_norm(m)
    assert r.potential.pair_with(m) == pytest.approx(r.value, abs=1e-8)


def test_kr_dual_signed_diracs():
    pos = dirac(DOM2, (0.4, 0.4))
    witness = kr_norm(pos).potential
    value = witness.pair_with(pos)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert witness.values[0] == pytest.approx(1.0, abs=1e-9)

    neg = dirac(DOM2, (0.4, 0.4)).scaled(-1.0)
    witness2 = kr_norm(neg).potential
    value2 = witness2.pair_with(neg)
    assert value2 == pytest.approx(1.0, abs=1e-9)
    assert witness2.values[0] == pytest.approx(-1.0, abs=1e-9)


def test_kr_dual_matches_primal_mixed():
    m = DiscreteSignedMeasure.from_atoms(
        DOM2, [((0.1, 0.1), 0.7), ((0.9, 0.2), -0.4), ((0.5, 0.8), 0.6)]
    )
    r = kr_norm(m)
    assert r.potential.pair_with(m) == pytest.approx(r.value, abs=1e-8)


def test_strong_duality_random_instances():
    rng = random.Random(5)
    for _ in range(25):
        mb = random_measure(rng, DOM2, rng.randint(2, 12), balanced=True)
        res = kr0_norm(mb)
        assert res.gap <= 1e-8
        mg = random_measure(rng, DOM2, rng.randint(1, 12))
        res2 = kr_norm(mg)
        assert res2.gap <= 1e-8


def test_norm_axioms_random():
    rng = random.Random(7)
    for _ in range(15):
        m1 = random_measure(rng, DOM2, 5, balanced=True)
        m2 = random_measure(rng, DOM2, 4, balanced=True)
        a = rng.uniform(-3, 3)
        v1, v2 = kr0_norm(m1).value, kr0_norm(m2).value
        assert kr0_norm(m1.scaled(a)).value == pytest.approx(abs(a) * v1, abs=1e-8)
        assert kr0_norm(m1 + m2).value <= v1 + v2 + 2e-8
        g1, g2 = random_measure(rng, DOM2, 4), random_measure(rng, DOM2, 3)
        w1, w2 = kr_norm(g1).value, kr_norm(g2).value
        assert kr_norm(g1.scaled(a)).value == pytest.approx(abs(a) * w1, abs=1e-8)
        assert kr_norm(g1 + g2).value <= w1 + w2 + 2e-8


def test_kr_dominated_by_kr0_and_tv():
    rng = random.Random(11)
    for _ in range(10):
        mb = random_measure(rng, DOM2, 6, balanced=True)
        assert kr_norm(mb).value <= kr0_norm(mb).value + 1e-9
        mg = random_measure(rng, DOM2, 6)
        assert kr_norm(mg).value <= mg.total_variation() + 1e-9
        assert kr_norm(mg).value >= abs(mg.total_mass()) - 1e-9


# -- metamorphic relations (seeded measures in dims 1, 2, 5) -----------------

REL = 1e-12


def _metamorphic_cases(dim):
    """(measure, balanced) pairs on the unit box and on [-1, 2]^dim."""
    rng = random.Random(300 + dim)
    boxes = (Domain.unit(dim), Domain((-1.0,) * dim, (2.0,) * dim))
    for i in range(16):
        balanced = i % 2 == 0
        yield random_measure(rng, boxes[i // 2 % 2], rng.randint(2, 9), balanced), balanced


def _pushed(m, f):
    """m moved by the coordinate map f, on the image of its box."""
    dom = Domain(f(m.domain.lo), f(m.domain.hi))
    return DiscreteSignedMeasure.from_atoms(dom, [(f(p), w) for p, w in m.atoms])


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_norms_invariant_under_translation(dim):
    rng = random.Random(dim)
    for m, balanced in _metamorphic_cases(dim):
        t = [rng.uniform(-5.0, 5.0) for _ in range(dim)]
        moved = _pushed(m, lambda p: tuple(x + s for x, s in zip(p, t)))
        assert _close(kr_norm(moved).value, kr_norm(m).value)
        if balanced:
            assert _close(kr0_norm(moved).value, kr0_norm(m).value)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_kr0_scales_with_the_box(dim):
    rng = random.Random(10 + dim)
    for m, balanced in _metamorphic_cases(dim):
        if balanced:
            s = rng.uniform(0.1, 10.0)
            scaled = _pushed(m, lambda p: tuple(s * x for x in p))
            assert _close(kr0_norm(scaled).value, s * kr0_norm(m).value)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_kr_below_kr0_and_total_variation(dim):
    for m, balanced in _metamorphic_cases(dim):
        kr = kr_norm(m).value
        assert kr <= m.total_variation() * (1.0 + REL)
        if balanced:
            assert kr <= kr0_norm(m).value * (1.0 + REL)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_norms_invariant_under_negation(dim):
    for m, balanced in _metamorphic_cases(dim):
        neg = m.scaled(-1.0)
        assert _close(kr_norm(neg).value, kr_norm(m).value)
        if balanced:
            assert _close(kr0_norm(neg).value, kr0_norm(m).value)


def test_plan_feasibility_and_vertex_support():
    rng = random.Random(13)
    for _ in range(10):
        m = random_measure(rng, DOM2, rng.randint(2, 10), balanced=True)
        res = kr0_norm(m)
        assert res.plan.balance_gap(m) <= 1e-12
        hj = m.hahn_jordan()
        assert len(res.plan.edges) <= len(hj.positive.atoms) + len(hj.negative.atoms) - 1
        g = random_measure(rng, DOM2, rng.randint(1, 10))
        assert kr_norm(g).plan.balance_gap(g) <= 1e-12


def test_plan_cost_equals_value():
    rng = random.Random(19)
    m = random_measure(rng, DOM2, 8, balanced=True)
    res = kr0_norm(m)
    assert res.plan.cost() == pytest.approx(res.value, abs=1e-10)
    g = random_measure(rng, DOM2, 8)
    res2 = kr_norm(g)
    assert res2.plan.cost() == pytest.approx(res2.value, abs=1e-10)


def test_mcshane_interpolates_and_extends():
    pot = DualPotential.from_values(((0.0, 0.0), (1.0, 0.0)), (0.0, 1.0))
    assert pot.lip_bound == pytest.approx(1.0)
    assert mcshane_extend(pot, (0.0, 0.0)) == pytest.approx(0.0)
    assert mcshane_extend(pot, (1.0, 0.0)) == pytest.approx(1.0)

    single = DualPotential(((0.3, 0.4),), (0.0,), 1.0, 0.0)
    assert mcshane_extend(single, (0.3, 0.8)) == pytest.approx(0.4)

    with pytest.raises(EmptyPotentialError):
        mcshane_extend(DualPotential((), (), 0.0, 0.0), (0.5, 0.5))


def test_mcshane_grid_scan_preserves_lipschitz_bound():
    rng = random.Random(3)
    pts = [(rng.random(), rng.random()) for _ in range(5)]
    vals = [rng.uniform(-1, 1) for _ in range(5)]
    pot = DualPotential.from_values(pts, vals)
    grid = [(i / 9, j / 9) for i in range(10) for j in range(10)]
    ext = [mcshane_extend(pot, z) for z in grid]
    assert lipschitz_seminorm(grid, ext) <= pot.lip_bound + 1e-9


def test_mcshane_clip_keeps_ball_membership():
    pot = DualPotential.from_values(((0.0,), (4.0,)), (0.9, -0.9))
    vals = [mcshane_extend(pot, (z / 10,), clip=1.0) for z in range(41)]
    assert max(abs(v) for v in vals) <= 1.0


def test_lipschitz_seminorm_examples():
    assert lipschitz_seminorm([(0.0,), (0.5,), (1.0,)], [2.0, 2.0, 2.0]) == 0.0
    assert lipschitz_seminorm([(0.0,), (1.0,)], [0.0, 1.0]) == pytest.approx(1.0)
    assert lip_norm([(0.0,), (1.0,)], [0.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(DuplicatePointError):
        lipschitz_seminorm([(0.0,), (0.0,)], [0.0, 1.0])


def test_witness_is_feasible_on_support():
    rng = random.Random(29)
    m = random_measure(rng, DOM2, 9, balanced=True)
    res = kr0_norm(m)
    assert lipschitz_seminorm(res.potential.points, res.potential.values) <= 1.0
    g = random_measure(rng, DOM2, 9)
    res2 = kr_norm(g)
    assert lipschitz_seminorm(res2.potential.points, res2.potential.values) <= 1.0
    assert res2.potential.sup_bound <= 1.0


def test_plan_meets_marginals_on_presolve_instance(tmp_path, capsys):
    # HiGHS presolve left this plan 4.9e-8 off its marginals and its value
    # 3.1e-8 below a checked witness's pairing
    from krdecomp import measure_from_json
    from krdecomp.cli import main

    argv = ["gen", "--seed", "536745676", "--count", "4", "--size", "40",
            "--box", "0:1", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    m = measure_from_json((tmp_path / "measure_0003.json").read_text())
    res = kr_norm(m)
    assert res.plan.balance_gap(m) <= 1e-12 * m.total_variation()
    assert res.value >= res.potential.pair_with(m) - 1e-12


def test_plan_meets_marginals_at_primal_tolerance(tmp_path, capsys):
    # at HiGHS's default primal feasibility tolerance (1e-7) this plan was
    # 8.4e-8 off its marginals and the gap 1.84e-7, above GAP_TOL
    from krdecomp import GAP_TOL, measure_from_json
    from krdecomp.cli import main

    argv = ["gen", "--seed", "1138553402", "--count", "12", "--size", "40",
            "--box", "0:1,0:1", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    m = measure_from_json((tmp_path / "measure_0001.json").read_text())
    res = kr_norm(m)
    assert res.gap <= GAP_TOL
    assert res.plan.balance_gap(m) <= 1e-12


@pytest.mark.parametrize("excess", [9.9e-11, -9.9e-11])
def test_kr0_solves_imbalance_inside_balance_tolerance(excess):
    # the transport LP is then infeasible by |excess|, just inside the
    # LP's primal feasibility tolerance
    from krdecomp import GAP_TOL, MASS_BALANCE_TOL

    atoms = [((0.1, 0.2), 0.5), ((0.8, 0.3), 0.25), ((0.4, 0.9), -0.4), ((0.6, 0.6), -0.35)]
    exact = kr0_norm(DiscreteSignedMeasure.from_atoms(DOM2, atoms))
    atoms[0] = (atoms[0][0], 0.5 + excess)
    m = DiscreteSignedMeasure.from_atoms(DOM2, atoms)
    assert m.is_balanced(MASS_BALANCE_TOL) and not m.is_balanced(abs(excess) / 2)
    res = kr0_norm(m)
    assert res.value == pytest.approx(exact.value, abs=1e-9)
    assert res.gap <= GAP_TOL
    assert res.plan.balance_gap(m) <= MASS_BALANCE_TOL


@pytest.mark.parametrize("norm, balanced", [(kr0_norm, True), (kr_norm, False)])
def test_gap_counts_plan_imbalance(monkeypatch, norm, balanced):
    import krdecomp.solver

    m = random_measure(random.Random(31), DOM2, 8, balanced=balanced)
    exact = norm(m)
    real = krdecomp.solver.linprog

    def off_by_1e6(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x = res.x.copy()
        res.x[0] += 1e-6  # the flow of the first source to the first sink
        return res

    monkeypatch.setattr(krdecomp.solver, "linprog", off_by_1e6)
    skewed = norm(m)
    assert skewed.plan.balance_gap(m) >= 1e-6 - 1e-15
    assert skewed.gap >= exact.gap + 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_residual_gap_is_tight(seed):
    # the residual of a greedy decomposition holds hundreds of nearly
    # coincident chain points; its witness must still close the gap
    from krdecomp import FamilyConfig, decompose_balanced, reconstruct

    dom = Domain.unit(1)
    m = random_measure(random.Random(seed), dom, 40, balanced=True)
    residual = m - reconstruct(decompose_balanced(m, 1e-4, FamilyConfig(dom)))
    assert kr0_norm(residual).gap <= 1e-8 * residual.total_variation()


def test_kr0_matches_1d_closed_form_at_400_atoms():
    # on the line kr0(m) is the integral of |F_m|, F_m the cumulative mass
    dom = Domain.unit(1)
    m = random_measure(random.Random(37), dom, 400, balanced=True)
    atoms = sorted(m.atoms)
    cum, exact = 0.0, []
    for (x, w), (y, _) in zip(atoms, atoms[1:]):
        cum += w
        exact.append(abs(cum) * (y[0] - x[0]))
    exact = math.fsum(exact)
    res = kr0_norm(m)
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.gap <= 1e-8


@pytest.mark.parametrize("bank", [False, True])
def test_transport_lp_matrix_and_plan_order_match_loop_reference(monkeypatch, bank):
    import numpy as np
    import scipy.sparse as sp

    import krdecomp.solver as solver

    ns, nt = 3, 4
    nx = ns * nt
    rows, cols = [], []
    for i in range(ns):
        rows += [i] * nt + ([i] if bank else [])
        cols += [i * nt + j for j in range(nt)] + ([nx + i] if bank else [])
    for j in range(nt):
        rows += [ns + j] * ns + ([ns + j] if bank else [])
        cols += [i * nt + j for i in range(ns)] + ([nx + ns + j] if bank else [])
    shape = (ns + nt, nx + (ns + nt if bank else 0))
    expected = sp.coo_matrix(([1.0] * len(rows), (rows, cols)), shape=shape).tocsr()

    seen = []
    real = solver._solve_lp
    monkeypatch.setattr(
        solver, "_solve_lp", lambda c, A, b, **kw: seen.append(A) or real(c, A, b, **kw)
    )
    rng = np.random.default_rng(3)
    src, snk = rng.random((ns, 2)), rng.random((nt, 2))
    solver._transport_lp(src, [1.0] * ns, snk, [0.75] * nt, bank)
    (got,) = seen
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)

    # edge order: source-major flow edges, then destroyed, then created
    q, p = [tuple(x) for x in src], [tuple(x) for x in snk]
    flow = rng.random((ns, nt)) * (rng.random((ns, nt)) < 0.5)
    destroyed, created = np.array([0.3, 0.0, 0.2]), np.array([0.0, 0.1, 0.4, 0.0])
    loop = [(q[i], p[j], flow[i, j]) for i in range(ns) for j in range(nt) if flow[i, j] > 0]
    loop += [(q[i], None, destroyed[i]) for i in range(ns) if destroyed[i] > 0]
    loop += [(None, p[j], created[j]) for j in range(nt) if created[j] > 0]
    plan = solver._plan_from_flow(q, p, flow, destroyed, created, 1.0)
    assert list(plan.edges) == loop
