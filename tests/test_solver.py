"""Norm solver: metric identities, duality, witnesses, plan feasibility."""

import math
import random
from typing import NamedTuple

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
from conftest import dense_l1, random_measure

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
    real = krdecomp.solver._transport_lp

    def off_by_1e6(*args, **kwargs):
        flow, *rest = real(*args, **kwargs)
        flow = flow.copy()
        flow[0, 0] += 1e-6  # the flow of the first source to the first sink
        return (flow, *rest)

    monkeypatch.setattr(krdecomp.solver, "_transport_lp", off_by_1e6)
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


def _integral_of_abs_cdf(m):
    """kr0(m) on the line: the integral of |F_m|, F_m the cumulative mass."""
    atoms = sorted(m.atoms)
    cum, parts = 0.0, []
    for (x, w), (y, _) in zip(atoms, atoms[1:]):
        cum += w
        parts.append(abs(cum) * (y[0] - x[0]))
    return math.fsum(parts)


def test_kr0_matches_1d_closed_form_at_400_atoms():
    m = random_measure(random.Random(37), Domain.unit(1), 400, balanced=True)
    res = kr0_norm(m)
    assert res.value == pytest.approx(_integral_of_abs_cdf(m), rel=1e-9)
    assert res.gap <= 1e-8


def test_kr0_matches_1d_closed_form_at_1000_atoms_on_a_sparse_lp():
    m = random_measure(random.Random(43), Domain.unit(1), 1000, balanced=True)
    res = kr0_norm(m)
    assert res.value == pytest.approx(_integral_of_abs_cdf(m), rel=1e-9)
    assert res.gap <= 1e-8
    ns = sum(1 for w in m.weights if w < 0)
    assert res.lp.cols < ns * (len(m.atoms) - ns)


def test_kr0_first_lp_is_feasible_across_far_clusters():
    # every source's and sink's nearest edges stay inside its own cluster, and
    # the left cluster holds 10 units more supply than demand: only the
    # north-west-corner plan gives the first LP an edge between the clusters
    atoms = [((0.01 * k,), -1.0) for k in range(20)]
    atoms += [((0.005 + 0.02 * k,), 1.0) for k in range(10)]
    atoms += [((3.0 + 0.01 * k,), 1.0) for k in range(20)]
    atoms += [((3.005 + 0.02 * k,), -1.0) for k in range(10)]
    m = DiscreteSignedMeasure.from_atoms(DOM1_BIG, atoms)
    res = kr0_norm(m)
    assert res.value == pytest.approx(_integral_of_abs_cdf(m), rel=1e-12)
    assert res.gap <= 1e-8


@pytest.mark.parametrize("bank", [False, True])
def test_transport_lp_matrix_and_plan_order_match_loop_reference(bank):
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

    rng = np.random.default_rng(3)
    src, snk = rng.random((ns, 2)), rng.random((nt, 2))
    dist = solver._distances(src, snk)
    cost, start, index, value = solver._columns(np.arange(shape[1]), dist)
    want = expected.tocsc()
    assert np.array_equal(start, want.indptr)
    assert np.array_equal(index, want.indices)
    assert np.array_equal(value, want.data)
    assert np.array_equal(cost[:nx], dist.ravel()) and (cost[nx:] == 1.0).all()

    # edge order: source-major flow edges, then destroyed, then created
    q, p = [tuple(x) for x in src], [tuple(x) for x in snk]
    flow = rng.random((ns, nt)) * (rng.random((ns, nt)) < 0.5)
    destroyed, created = np.array([0.3, 0.0, 0.2]), np.array([0.0, 0.1, 0.4, 0.0])
    loop = [(q[i], p[j], flow[i, j]) for i in range(ns) for j in range(nt) if flow[i, j] > 0]
    loop += [(q[i], None, destroyed[i]) for i in range(ns) if destroyed[i] > 0]
    loop += [(None, p[j], created[j]) for j in range(nt) if created[j] > 0]
    plan = solver._plan_from_flow(q, p, flow, destroyed, created, 1.0)
    assert list(plan.edges) == loop


def _linprog_solve(c, A_eq, b_eq):
    """The same LP through scipy's linprog wrapper, with the seam's options."""
    import numpy as np
    from scipy.optimize import linprog

    res = linprog(
        c, A_eq=A_eq, b_eq=b_eq, method="highs-ds",
        options={
            "presolve": False,
            "dual_feasibility_tolerance": 1e-10,
            "primal_feasibility_tolerance": 1e-10,
        },
    )
    assert res.status == 0, res.message
    return np.asarray(res.x), np.asarray(res.eqlin.marginals)


class _DenseSolution(NamedTuple):
    x: object
    duals: object
    lp: object


def _solve_dense(c, A_eq, b_eq):
    """min c.x subject to A_eq x = b_eq and x >= 0, every column in one dual
    simplex run of a fresh HiGHS instance of the solver's seam."""
    import numpy as np
    import scipy.sparse as sp

    import krdecomp.solver as solver

    A = sp.csc_matrix(A_eq)
    start, index = (a.astype(np.int32) for a in (A.indptr, A.indices))
    highs = solver._highs(np.asarray(c, float), start, index, A.data, np.asarray(b_eq, float))
    lp = solver._run(highs)
    sol = highs.getSolution()
    return _DenseSolution(np.array(sol.col_value), np.array(sol.row_dual), lp)


def _dense_transport_lp(solve):
    """A stand-in for solver._transport_lp that passes the full transport LP,
    every edge a column, to ``solve(c, A_eq, b_eq)`` in one run."""
    import numpy as np
    import scipy.sparse as sp

    from krdecomp.solver import _distances

    def transport(sources, supplies, sinks, demands, bank):
        ns, nt = len(sources), len(sinks)
        nx = ns * nt
        cost = np.ones(nx + (ns + nt if bank else 0))
        cost[:nx] = _distances(sources, sinks).ravel()
        # flow variable i * nt + j enters source row i and sink row ns + j;
        # the bank's destroy/create variables follow, one per row
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
        x, duals, lp = solve(cost, A_eq, b_eq)
        return x[:nx].reshape(ns, nt), x[nx : nx + ns], x[nx + ns :], duals[:ns], lp

    return transport


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("norm, balanced", [(kr0_norm, True), (kr_norm, False)])
@pytest.mark.parametrize("size", [6, 40, 160])
def test_direct_highs_matches_linprog(monkeypatch, dim, norm, balanced, size):
    import numpy as np

    import krdecomp.solver as solver

    m = random_measure(random.Random(1000 * dim + size), Domain.unit(dim), size, balanced)
    monkeypatch.setattr(solver, "_transport_lp", _dense_transport_lp(_solve_dense))
    direct = norm(m)
    solved = []

    def through_linprog(c, A_eq, b_eq):
        sol = _solve_dense(c, A_eq, b_eq)
        x, duals = _linprog_solve(c, A_eq, b_eq)
        assert np.array_equal(sol.x, x)
        assert np.array_equal(sol.duals, duals)
        solved.append(sol.lp)
        return sol._replace(x=x, duals=duals)

    monkeypatch.setattr(solver, "_transport_lp", _dense_transport_lp(through_linprog))
    wrapped = norm(m)
    assert solved == [direct.lp]
    assert (wrapped.value, wrapped.gap) == (direct.value, direct.gap)
    assert wrapped.plan == direct.plan
    assert wrapped.potential == direct.potential


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("norm, balanced", [(kr0_norm, True), (kr_norm, False)])
@pytest.mark.parametrize("size", [6, 40, 160, 320])
def test_column_generation_matches_dense_lp(monkeypatch, dim, norm, balanced, size):
    import krdecomp.solver as solver

    m = random_measure(random.Random(1000 * dim + size), Domain.unit(dim), size, balanced)
    sparse = norm(m)
    monkeypatch.setattr(solver, "_transport_lp", _dense_transport_lp(_solve_dense))
    dense = norm(m)
    assert math.isclose(sparse.value, dense.value, rel_tol=1e-12, abs_tol=0.0)
    assert sparse.gap <= 1e-8 and dense.gap <= 1e-8
    assert sparse.plan.balance_gap(m) <= 1e-12
    assert dense.plan.balance_gap(m) <= 1e-12
    if size == 320 and (dim, balanced) != (1, True):
        # on the line the north-west-corner staircase of the sorted support
        # is already optimal; elsewhere the first LP misses edges
        assert sparse.lp.rounds >= 2


@pytest.mark.parametrize("variant", ["kr0", "kr"])
def test_direct_highs_matches_linprog_on_l1_program(monkeypatch, variant):
    import krdecomp.decompose as decompose
    from krdecomp import FamilyConfig, decompose_l1_minimal, delta_atom

    cfg = FamilyConfig(DOM2)
    m = delta_atom(9, cfg).measure.scaled(0.6) + delta_atom(21, cfg).measure
    if variant == "kr":
        m = m + delta_atom(30, cfg).measure.scaled(-0.2)
    real = decompose._generate
    solved = []

    def recording(*args):
        ids, sol, lp = real(*args)
        solved.append(lp)
        return ids, sol, lp

    monkeypatch.setattr(decompose, "_generate", recording)
    dec = decompose_l1_minimal(m, 300, variant, cfg)
    assert len(solved) == 1 and solved[0].status == "Optimal"
    assert dec.residual_norm <= 1e-9
    assert math.isclose(dec.l1, dense_l1(cfg, 300, variant, m), rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("norm, balanced, bank", [(kr0_norm, True, 0), (kr_norm, False, 1)])
def test_norm_records_its_lp(norm, balanced, bank):
    m = random_measure(random.Random(41), DOM2, 9, balanced=balanced)
    ns = sum(1 for w in m.weights if w < 0)
    nt = len(m.atoms) - ns
    lp = norm(m).lp
    flow_cols = lp.cols - bank * (ns + nt)
    assert lp.rows == ns + nt
    assert 0 < flow_cols <= ns * nt
    assert lp.nnz == 2 * flow_cols + bank * (ns + nt)
    assert lp.status == "Optimal"
    assert lp.iterations > 0 and lp.rounds >= 1
    # no LP behind the zero measure
    assert kr0_norm(DiscreteSignedMeasure.from_atoms(DOM2, [])).lp is None
    assert kr_norm(DiscreteSignedMeasure.from_atoms(DOM2, [])).lp is None


def _exactly_certified(witness, bank: bool) -> bool:
    """(f(p) - f(q))^2 <= |p - q|^2 for every pair of support points and,
    for the extended norm, |f| <= 1, in rational arithmetic."""
    from fractions import Fraction

    vals = [Fraction(v) for v in witness.values]
    pts = [[Fraction(x) for x in p] for p in witness.points]
    if bank and any(abs(v) > 1 for v in vals):
        return False
    return all(
        (vals[i] - vals[j]) ** 2 <= sum((x - y) ** 2 for x, y in zip(pts[i], pts[j]))
        for i in range(len(pts))
        for j in range(i)
    )


def _seeded_norm_inputs(dim):
    """24 (variant, measure) pairs per dim: 20 and 60 atoms, six seeds,
    balanced kr0 and general kr."""
    for n in (20, 60):
        for s in range(6):
            for variant in ("kr0", "kr"):
                rng = random.Random(1000 * dim + 10 * n + s)
                yield variant, random_measure(rng, Domain.unit(dim), n, balanced=variant == "kr0")


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_witness_is_1_lipschitz_in_exact_arithmetic(dim):
    # a float seminorm of at most 1 still let witnesses with slope^2 up to
    # 1 + 4e-16 through; the pre-shrink leaves room for that rounding
    from krdecomp import variant_norm

    for variant, m in _seeded_norm_inputs(dim):
        assert _exactly_certified(variant_norm(variant, m).potential, variant == "kr")


@pytest.fixture
def seminorm_readings(monkeypatch):
    """Every value solver.lipschitz_seminorm returns, in call order."""
    import krdecomp.solver

    readings = []
    real = krdecomp.solver.lipschitz_seminorm

    def recording(points, values):
        readings.append(real(points, values))
        assert len(readings) < 100, "the rescale loop does not end"
        return readings[-1]

    monkeypatch.setattr(krdecomp.solver, "lipschitz_seminorm", recording)
    return readings


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_one_lipschitz_pass_per_certification(seminorm_readings, dim):
    from krdecomp import variant_norm

    for variant, m in _seeded_norm_inputs(dim):
        seminorm_readings.clear()
        variant_norm(variant, m)
        assert len(seminorm_readings) == 1 and seminorm_readings[0] <= 1.0


def test_steep_witness_is_rescaled_until_its_check_passes(seminorm_readings):
    from krdecomp.solver import _certified_potential

    m = next(_seeded_norm_inputs(2))[1]
    witness = kr0_norm(m).potential
    steep = [1.01 * v for v in witness.values]
    seminorm_readings.clear()
    rescaled = _certified_potential(witness.points, steep)
    assert len(seminorm_readings) == 2
    assert seminorm_readings[0] > 1.0 >= seminorm_readings[1]
    assert lipschitz_seminorm(rescaled.points, rescaled.values) == seminorm_readings[1]
    assert _exactly_certified(rescaled, bank=False)


@pytest.mark.parametrize("dim, variant, seed", [(2, "kr0", 5), (2, "kr", 23), (5, "kr0", 0), (5, "kr", 13)])
def test_rescale_loop_ends_on_nearly_coincident_points(seminorm_readings, dim, variant, seed):
    # the residual of one measure against another's decomposition keeps
    # points about 1e-6 apart, where a rescale smaller than one ulp of the
    # values would be rounded back if it were applied to the rounded values;
    # on these seeds the loop takes several passes
    from krdecomp import FamilyConfig, decompose_balanced, decompose_full, reconstruct, variant_norm

    dom = Domain.unit(dim)
    rng = random.Random(seed)
    m1, m2 = (random_measure(rng, dom, 10, balanced=variant == "kr0") for _ in range(2))
    decompose = decompose_balanced if variant == "kr0" else decompose_full
    residual = m2 - reconstruct(decompose(m1, 1e-4, FamilyConfig(dom)))
    seminorm_readings.clear()
    witness = variant_norm(variant, residual).potential
    assert seminorm_readings[-1] <= 1.0 < min(seminorm_readings[:-1], default=2.0)
    assert _exactly_certified(witness, variant == "kr")
