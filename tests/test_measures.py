"""Measure algebra: canonicalization, mass/variation, Hahn-Jordan split."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krdecomp import (
    DegenerateDipoleError,
    DiscreteSignedMeasure,
    Domain,
    DomainMembershipError,
    dipole,
    dirac,
    measure_from_json,
    measure_to_json,
)

DOM2 = Domain.unit(2)
P = (0.25, 0.5)
Q = (0.75, 0.125)


def test_canonicalize_cancels_opposite_atoms():
    m = DiscreteSignedMeasure.from_atoms(DOM2, [(P, 1.0), (P, -1.0)])
    assert m.atoms == ()


def test_canonicalize_merges_duplicates():
    m = DiscreteSignedMeasure.from_atoms(DOM2, [(P, 0.5), (Q, 2.0), (P, 0.25)])
    assert m.atoms == ((P, 0.75), (Q, 2.0))


def test_canonicalize_empty():
    assert DiscreteSignedMeasure.from_atoms(DOM2, []).atoms == ()


def test_point_outside_domain_rejected():
    with pytest.raises(DomainMembershipError):
        DiscreteSignedMeasure.from_atoms(DOM2, [((1.5, 0.0), 1.0)])


def test_mass_and_variation_examples():
    d = dirac(DOM2, P)
    assert d.total_mass() == 1.0 and d.total_variation() == 1.0
    m = dipole(DOM2, P, Q, 1.0)
    assert m.total_mass() == 0.0
    assert m.total_variation() == 2.0  # |delta_x - delta_y|(K) = 2 for x != y
    m2 = DiscreteSignedMeasure.from_atoms(DOM2, [(P, 3.0), (Q, -1.0)])
    assert m2.total_mass() == 2.0 and m2.total_variation() == 4.0


@pytest.mark.parametrize("seed", range(5))
def test_difference_equals_sum_with_the_negation(seed):
    # points drawn from one small pool, so the two measures share most of them
    rng = random.Random(seed)
    pool = [(rng.random(), rng.random()) for _ in range(6)]
    a, b = (
        DiscreteSignedMeasure.from_atoms(
            DOM2, [(rng.choice(pool), rng.uniform(-1.0, 1.0)) for _ in range(8)]
        )
        for _ in range(2)
    )
    assert set(a.support) & set(b.support)
    assert a - b == a + b.scaled(-1.0)
    assert (a - a).atoms == ()
    with pytest.raises(ValueError, match="different domains"):
        a - DiscreteSignedMeasure.zero(Domain.unit(3))


def test_hahn_jordan_examples():
    hj = dipole(DOM2, P, Q, 1.0).hahn_jordan()
    assert hj.positive.atoms == ((P, 1.0),)
    assert hj.negative.atoms == ((Q, 1.0),)

    hj2 = DiscreteSignedMeasure.from_atoms(DOM2, [(P, 2.0)]).hahn_jordan()
    assert hj2.positive.atoms == ((P, 2.0),) and hj2.negative.atoms == ()

    m3 = DiscreteSignedMeasure.from_atoms(
        DOM2, [(P, -1.0), (Q, 3.0), ((0.5, 0.5), -1.0)]
    )
    hj3 = m3.hahn_jordan()
    assert hj3.positive.atoms == ((Q, 3.0),)
    assert hj3.negative.total_variation() == 2.0


def test_is_balanced_tolerance_semantics():
    assert dipole(DOM2, P, Q, 1.0).is_balanced(0.0)
    assert not dirac(DOM2, P).is_balanced(0.0)
    m = DiscreteSignedMeasure.from_atoms(
        DOM2, [(P, 0.5), (Q, -0.5), ((0.1, 0.1), 1e-12)]
    )
    assert m.is_balanced(1e-9)


def test_dipole_constructor():
    m = dipole(DOM2, P, Q, 1.0)
    assert m.total_mass() == 0.0
    assert dipole(DOM2, P, Q, -2.0).total_variation() == 4.0
    assert dirac(DOM2, P).total_mass() == 1.0
    with pytest.raises(DegenerateDipoleError):
        dipole(DOM2, P, P, 1.0)


def _atoms_strategy():
    coord = st.floats(0.0, 1.0, allow_nan=False)
    weight = st.floats(-5.0, 5.0, allow_nan=False)
    atom = st.tuples(st.tuples(coord, coord), weight)
    return st.lists(atom, max_size=12)


@settings(max_examples=200)
@given(atoms=_atoms_strategy())
def test_canonicalize_idempotent(atoms):
    m = DiscreteSignedMeasure.from_atoms(DOM2, atoms)
    assert m.canonicalize() == m


@settings(max_examples=200)
@given(atoms=_atoms_strategy(), seed=st.integers(0, 2**16))
def test_mass_invariant_under_permutation(atoms, seed):
    m = DiscreteSignedMeasure.from_atoms(DOM2, atoms)
    shuffled = list(atoms)
    random.Random(seed).shuffle(shuffled)
    m2 = DiscreteSignedMeasure.from_atoms(DOM2, shuffled)
    assert m2 == m
    assert abs(m.total_mass()) <= m.total_variation()


@settings(max_examples=200)
@given(atoms=_atoms_strategy())
def test_hahn_jordan_reconstructs_exactly(atoms):
    m = DiscreteSignedMeasure.from_atoms(DOM2, atoms)
    hj = m.hahn_jordan()
    assert hj.positive - hj.negative == m
    pos_support = set(hj.positive.support)
    assert pos_support.isdisjoint(hj.negative.support)


def test_json_roundtrip_deterministic():
    m = DiscreteSignedMeasure.from_atoms(DOM2, [(Q, -0.5), (P, 1.25)])
    text = measure_to_json(m)
    again = measure_from_json(text)
    assert again == m
    assert measure_to_json(again) == text


def test_json_diagnostics_name_the_field():
    with pytest.raises(ValueError, match="atoms"):
        measure_from_json(json.dumps({"dim": 1, "lo": [0.0], "hi": [1.0]}))
    with pytest.raises(ValueError, match="malformed JSON"):
        measure_from_json("{not json")


@pytest.mark.parametrize(
    "atom, weight",
    [((0.5, math.nan), 1.0), ((0.5, 0.5), math.nan), ((0.5, 0.5), -math.inf)],
)
def test_non_finite_atom_rejected(atom, weight):
    with pytest.raises(ValueError, match="atom #1 "):
        DiscreteSignedMeasure.from_atoms(DOM2, [(P, 1.0), (atom, weight)])


@pytest.mark.parametrize(
    "atoms",
    [
        '[{"point": [0.2], "weight": NaN}]',
        '[{"point": [Infinity], "weight": 1.0}]',
        '[5]',
        '[{"point": [0.2], "weight": null}]',
    ],
)
def test_json_rejects_bad_atoms(atoms):
    text = '{"dim": 1, "lo": [0], "hi": [1], "atoms": %s}' % atoms
    with pytest.raises(ValueError, match="atom #0 "):
        measure_from_json(text)


def test_domain_diameter():
    d = Domain((0.0, 0.0), (3.0, 4.0))
    assert math.isclose(d.diameter, 5.0)
    with pytest.raises(ValueError):
        Domain((0.0,), (0.0,))


def test_domain_rejects_infinite_box():
    with pytest.raises(ValueError, match="finite"):
        Domain((0.0,), (math.inf,))


@pytest.mark.parametrize(
    "lo, hi", [((-1e308,), (1e308,)), ((0.0, 0.0), (1.5e308, 1.5e308))], ids=["side", "diagonal"]
)
def test_domain_rejects_box_whose_diagonal_overflows(lo, hi):
    # finite bounds, but the diameter every norm and bound divides by is inf
    with pytest.raises(ValueError, match=r"box .* diameter beyond the float range"):
        Domain(lo, hi)
