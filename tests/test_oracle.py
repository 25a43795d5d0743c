"""Brute-force oracle: exactness, caps, and agreement with the LP solvers."""

import math
import random

import pytest

from krdecomp import (
    DiscreteSignedMeasure,
    Domain,
    InstanceTooLargeError,
    QuantizationError,
    dipole,
    dirac,
    kr0_norm,
    kr_norm,
    oracle_dual_grid,
    oracle_kr,
    oracle_kr0,
    quantize,
)
from conftest import random_quantized

DOM2 = Domain.unit(2)
DOM1_BIG = Domain((0.0,), (4.0,))


def test_oracle_kr0_dipole():
    m = dipole(DOM2, (0.1, 0.1), (0.5, 0.4), 0.25)
    assert oracle_kr0(m, 0.25) == pytest.approx(0.25 * math.dist((0.1, 0.1), (0.5, 0.4)))


def test_oracle_kr0_zero():
    assert oracle_kr0(DiscreteSignedMeasure.zero(DOM2), 1.0) == 0.0


def test_oracle_kr0_three_point():
    m = DiscreteSignedMeasure.from_atoms(
        DOM2, [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((0.5, 0.0), -2.0)]
    )
    assert oracle_kr0(m, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_oracle_kr_dirac_and_truncation():
    assert oracle_kr(dirac(DOM2, (0.3, 0.3)).scaled(0.5), 0.5) == pytest.approx(0.5)
    far = dipole(DOM1_BIG, (0.25,), (3.25,), 0.5)
    assert oracle_kr(far, 0.5) == pytest.approx(1.0)  # 2 per unit mass of 0.5


def test_oracle_errors():
    with pytest.raises(QuantizationError):
        oracle_kr0(dipole(DOM2, (0.0, 0.0), (1.0, 1.0), 0.3), 0.25)
    with pytest.raises(QuantizationError):
        oracle_kr0(dirac(DOM2, (0.1, 0.2)), 1.0)  # unbalanced unit counts
    with pytest.raises(InstanceTooLargeError):
        oracle_kr(dirac(DOM2, (0.1, 0.2)).scaled(13.0), 1.0)


@pytest.mark.parametrize("unit", [math.nan, math.inf, -math.inf, 0.0, -0.25])
def test_quantize_rejects_unit_not_finite_positive(unit):
    m = dipole(DOM2, (0.0, 0.0), (1.0, 1.0), 0.5)
    with pytest.raises(QuantizationError, match="--unit"):
        quantize(m, unit)


def test_oracle_agreement_with_solver():
    rng = random.Random(101)
    for _ in range(25):
        dim = rng.choice([1, 2])
        dom = Domain.unit(dim)
        unit = rng.choice([0.25, 0.5, 1.0])
        n = rng.randint(1, 8)
        mb = random_quantized(rng, dom, unit, n, n)
        assert oracle_kr0(mb, unit) == pytest.approx(kr0_norm(mb).value, abs=1e-8)
        mg = random_quantized(rng, dom, unit, rng.randint(0, 8), rng.randint(0, 8))
        assert oracle_kr(mg, unit) == pytest.approx(kr_norm(mg).value, abs=1e-8)


def test_dual_grid_monotone_and_converging():
    x, y = (0.1, 0.2), (0.6, 0.6)
    m = dipole(DOM2, x, y, 1.0)
    target = math.dist(x, y)
    values = [oracle_dual_grid(m, depth) for depth in range(7)]
    assert all(values[i] <= values[i + 1] + 1e-15 for i in range(6))
    assert all(v <= target + 1e-9 for v in values)
    assert values[-1] >= target - 2.0 * m.domain.diameter / 2**6


def test_dual_grid_zero_measure():
    assert oracle_dual_grid(DiscreteSignedMeasure.zero(DOM2), 4) == 0.0


def test_dual_grid_is_a_lower_bound():
    rng = random.Random(55)
    for _ in range(5):
        pts = [(rng.random(), rng.random()) for _ in range(4)]
        w = [0.6, -0.6, 0.4, -0.4]
        m = DiscreteSignedMeasure.from_atoms(DOM2, list(zip(pts, w)))
        assert oracle_dual_grid(m, 5) <= kr0_norm(m).potential.pair_with(m) + 1e-9


def test_dual_grid_caps():
    m = DiscreteSignedMeasure.from_atoms(
        DOM2,
        [((i / 10, 0.0), 1.0 if i % 2 else -1.0) for i in range(6)],
    )
    with pytest.raises(InstanceTooLargeError):
        oracle_dual_grid(m, 3)
    with pytest.raises(InstanceTooLargeError):
        oracle_dual_grid(dipole(DOM2, (0.0, 0.0), (1.0, 1.0), 1.0), 9)
