"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import os
import random
import subprocess
import sys
import time

import pytest

import krdecomp
from krdecomp import (
    Domain,
    FamilyConfig,
    decompose_balanced,
    decompose_full,
    delta_atom,
    dipole,
    dirac,
    family_pair,
    kr0_norm,
    kr_norm,
    lipschitz_seminorm,
    mass_identity_check,
    nearest_family_point,
    oracle_kr,
    oracle_kr0,
    reconstruct,
    term_measure,
    verify_term_lower_bound,
)
from conftest import random_measure, random_quantized

DOM2 = Domain.unit(2)
CFG2 = FamilyConfig(DOM2)


def _report(criterion: int, label: str, start: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({label}, {time.time() - start:.1f}s)")


def test_criterion_1_metric_identities():
    start = time.time()
    rng = random.Random(1001)
    for dim in (2, 3):
        dom = Domain.unit(dim)
        for _ in range(50):
            x = tuple(rng.random() for _ in range(dim))
            y = tuple(rng.random() for _ in range(dim))
            if x == y:
                continue
            m = dipole(dom, x, y, 1.0)
            assert abs(kr0_norm(m).value - math.dist(x, y)) <= 1e-9
            assert abs(kr_norm(dirac(dom, x)).value - 1.0) <= 1e-9
    wide = Domain((0.0,), (3.0,))
    for _ in range(100):
        x, y = rng.uniform(0, 3), rng.uniform(0, 3)
        if x == y:
            continue
        m = dipole(wide, (x,), (y,), 1.0)
        assert abs(kr_norm(m).value - min(abs(x - y), 2.0)) <= 1e-9
    assert time.time() - start < 5.0
    _report(1, "metric identities", start)


def _certificates_meet(m, res, box: bool) -> None:
    # a plan checked feasible and a witness checked 1-Lipschitz (and
    # sup-bounded for kr), on exactly the support, meet within 1e-8
    w = res.potential
    assert w.points == m.support
    assert lipschitz_seminorm(w.points, w.values) <= 1.0
    if box:
        assert w.sup_bound <= 1.0
    assert res.plan.balance_gap(m) <= 1e-12
    assert abs(res.plan.cost() - w.pair_with(m)) <= 1e-8


def test_criterion_2_strong_duality():
    start = time.time()
    rng = random.Random(1002)
    for _ in range(100):
        mb = random_measure(rng, DOM2, rng.randint(2, 20), balanced=True)
        _certificates_meet(mb, kr0_norm(mb), box=False)
        _certificates_meet(mb, kr_norm(mb), box=True)
        mg = random_measure(rng, DOM2, rng.randint(1, 20))
        _certificates_meet(mg, kr_norm(mg), box=True)
    assert time.time() - start < 30.0
    _report(2, "strong duality, 200 measures", start)


def test_criterion_3_oracle_equivalence():
    start = time.time()
    rng = random.Random(1003)
    for trial in range(100):
        dom = Domain.unit(1 if trial % 2 else 2)
        unit = rng.choice([0.125, 0.25, 0.5, 1.0])
        n = rng.randint(1, 10)
        mb = random_quantized(rng, dom, unit, n, n)
        assert abs(oracle_kr0(mb, unit) - kr0_norm(mb).value) <= 1e-8
        mg = random_quantized(rng, dom, unit, rng.randint(0, 10), rng.randint(0, 10))
        assert abs(oracle_kr(mg, unit) - kr_norm(mg).value) <= 1e-8
    assert time.time() - start < 60.0
    _report(3, "oracle equivalence, 200 instances", start)


def test_criterion_4_decomposition_reconstruction():
    start = time.time()
    rng = random.Random(1004)
    for _ in range(50):
        m = random_measure(rng, DOM2, rng.randint(2, 8), balanced=True)
        dec = decompose_balanced(m, 1e-4, CFG2)
        assert dec.residual_norm <= 1e-4
        assert kr0_norm(m).value <= dec.l1 + dec.residual_norm + 1e-9
        assert kr0_norm(m - reconstruct(dec)).value <= dec.residual_norm + 1e-9
    for _ in range(50):
        m = random_measure(rng, DOM2, rng.randint(1, 8))
        dec = decompose_full(m, 1e-4, CFG2)
        assert dec.residual_norm <= 1e-4
        assert kr_norm(m).value <= dec.l1 + dec.residual_norm + 1e-9
        assert kr_norm(m - reconstruct(dec)).value <= dec.residual_norm + 1e-9
    assert time.time() - start < 120.0
    _report(4, "decomposition reconstruction, 100 measures", start)


def test_criterion_5_per_term_lower_bound():
    start = time.time()
    rng = random.Random(1005)
    d = DOM2.diameter
    for _ in range(100):
        j = rng.randint(1, 200)
        a1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)
        a2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)
        chk = verify_term_lower_bound(j, a1, a2, CFG2, witness_grid=1000)
        assert chk.lhs >= (abs(a1) + abs(a2)) / (d + 1) - 1e-9
        assert abs(chk.lhs - kr_norm(term_measure(j, a1, a2, CFG2)).value) <= 1e-12
        assert abs(chk.pairing - (abs(a1) + abs(a2)) / (d + 1)) <= 1e-12
        assert chk.witness_lip_norm <= 1.0 + 1e-9
    _report(5, "per-term lower bound, 100 trials", start)


def test_criterion_6_atom_normalization():
    start = time.time()
    big = FamilyConfig(Domain((0.0, 0.0), (3.0, 3.0)))
    saw_long_dipole = False
    for j in range(1, 201):
        atom = delta_atom(j, big)
        kr_value = kr_norm(atom.measure).value
        assert kr_value <= 1.0 + 1e-9
        if atom.kind == "dipole":
            assert abs(kr0_norm(atom.measure).value - 1.0) <= 1e-9
            sep = family_pair(atom.pair_index, big).separation
            if sep <= 2.0:
                assert abs(kr_value - 1.0) <= 1e-9
            else:
                saw_long_dipole = True
                assert kr_value == pytest.approx(2.0 / sep, abs=1e-9)
        else:
            assert abs(kr_value - 1.0) <= 1e-9
    assert saw_long_dipole  # the separation > 2 branch was exercised
    _report(6, "atom normalization, first 200 atoms", start)


def test_criterion_7_mass_identities():
    start = time.time()
    rng = random.Random(1007)
    for _ in range(20):
        m = random_measure(rng, DOM2, rng.randint(1, 7))
        dec = decompose_full(m, 1e-4, CFG2)
        assert abs(dec.sum_alpha2() - m.total_mass()) <= dec.residual_norm + 1e-9
    for _ in range(10):
        m = random_measure(rng, DOM2, rng.randint(1, 5))
        dec_a = decompose_full(m, 1e-4, CFG2)
        dec_b = decompose_full(m, 1e-4, CFG2, min_depth=20)
        assert mass_identity_check(dec_a, dec_b, 1e-4)
    _report(7, "mass identities", start)


def test_criterion_8_norm_axioms_and_mass_bound():
    start = time.time()
    rng = random.Random(1008)
    for _ in range(50):
        m1 = random_measure(rng, DOM2, rng.randint(2, 8), balanced=True)
        m2 = random_measure(rng, DOM2, rng.randint(2, 8), balanced=True)
        a = rng.uniform(-2.0, 2.0)
        v1, v2 = kr0_norm(m1).value, kr0_norm(m2).value
        assert abs(kr0_norm(m1.scaled(a)).value - abs(a) * v1) <= 1e-9 * max(1, abs(a))
        assert kr0_norm(m1 + m2).value <= v1 + v2 + 2e-8

        g1 = random_measure(rng, DOM2, rng.randint(1, 8))
        g2 = random_measure(rng, DOM2, rng.randint(1, 8))
        w1, w2 = kr_norm(g1).value, kr_norm(g2).value
        assert abs(kr_norm(g1.scaled(a)).value - abs(a) * w1) <= 1e-9 * max(1, abs(a))
        assert kr_norm(g1 + g2).value <= w1 + w2 + 2e-8
        assert kr_norm(g1).value >= abs(g1.total_mass()) - 1e-9
    _report(8, "norm axioms and mass bound, 100 instances", start)


def test_criterion_9_dense_family_determinism_and_density():
    start = time.time()
    cmd = [
        sys.executable, "-m", "krdecomp.cli",
        "family", "dump", "--count", "10000", "--box", "0:1,0:1",
    ]
    # the child imports the package this process imported, installed or not
    src = os.path.dirname(os.path.dirname(krdecomp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run1 = subprocess.run(cmd, capture_output=True, check=True, env=env)
    run2 = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert run1.stdout == run2.stdout
    assert len(run1.stdout.splitlines()) == 10000

    rng = random.Random(1009)
    for dim in (1, 2, 3):
        cfg = FamilyConfig(Domain.unit(dim))
        bound0 = math.sqrt(dim) / 2.0
        for depth in range(11):
            for _ in range(30):
                p = tuple(rng.random() for _ in range(dim))
                _, dist = nearest_family_point(p, depth, "d1", cfg)
                assert dist <= bound0 / 2**depth + 1e-12
    _report(9, "dense family determinism and density", start)
