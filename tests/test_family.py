"""Dense family enumeration: dyadic schedules, dedup, pairing, snapping."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krdecomp import (
    DEFAULT_OFFSET,
    Domain,
    FamilyConfig,
    d1_point,
    d2_point,
    delta_atom,
    dump_pairs_csv,
    family_pair,
    nearest_family_point,
    pair_components,
    pair_index,
    snap_radius,
)
from krdecomp.family import _coords, _cum_count, _depth_of_index, _index_of, iter_pairs

CFG1 = FamilyConfig(Domain.unit(1))
CFG2 = FamilyConfig(Domain.unit(2))
THETA = math.sqrt(2.0) - 1.0


def test_d1_first_points_on_unit_interval():
    assert d1_point(0, CFG1).coords == (0.0,)
    assert d1_point(1, CFG1).coords == (1.0,)
    assert d1_point(2, CFG1).coords == (0.5,)


def test_d1_matches_schedule_oracle():
    # oracle: walk depths, lexicographic within depth, skip repeats
    seen, expected = set(), []
    depth = 0
    while len(expected) < 40:
        for a in range((1 << depth) + 1):
            v = a / (1 << depth)
            if v not in seen:
                seen.add(v)
                expected.append((v,))
        depth += 1
    assert [d1_point(k, CFG1).coords for k in range(40)] == expected[:40]


def test_d2_first_value_is_the_shift():
    assert d2_point(0, CFG1).coords == (THETA,)


def test_d2_schedule_dedup_oracle_16_values():
    # oracle: same (depth, tick) schedule as d1, wrap by the shift, dedup
    seen, expected = set(), []
    depth = 0
    while len(expected) < 16:
        for a in range((1 << depth) + 1):
            v = (a / (1 << depth) + THETA) % 1.0
            if v not in seen:
                seen.add(v)
                expected.append((v,))
        depth += 1
    got = [d2_point(k, CFG1).coords for k in range(16)]
    assert got == expected[:16]
    assert got[1] == ((0.5 + THETA) % 1.0,)  # frac(1+theta) deduped away


def test_d2_dedup_oracle_2d():
    seen, expected = set(), []
    depth = 0
    while len(expected) < 50:
        total = (1 << depth) + 1
        for ticks in itertools.product(range(total), repeat=2):
            if depth >= 1 and all(a % 2 == 0 for a in ticks):
                continue
            c = tuple((a / (1 << depth) + THETA) % 1.0 for a in ticks)
            if c not in seen:
                seen.add(c)
                expected.append(c)
        depth += 1
    assert [d2_point(k, CFG2).coords for k in range(50)] == expected[:50]


def test_families_carry_disjoint_tags():
    assert d1_point(3, CFG1).family == "d1"
    assert d2_point(3, CFG1).family == "d2"


@settings(max_examples=300)
@given(k=st.integers(0, 5000), dim=st.sampled_from([1, 2, 3]))
def test_enumeration_indexing_roundtrip(k, dim):
    cfg = FamilyConfig(Domain.unit(dim))
    for which, point in (("d1", d1_point(k, cfg)), ("d2", d2_point(k, cfg))):
        assert point.index == k
        assert _index_of(point.ticks, point.depth, dim, which) == k


def _scan_depth(k, n, family, depth=0):
    """The least depth at or above ``depth`` whose cumulative count exceeds
    k, by scanning upward."""
    while _cum_count(depth, n, family) <= k:
        depth += 1
    return depth


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("family", ["d1", "d2"])
def test_depth_of_index_matches_scan(dim, family):
    depth = 0
    for k in range(10**5):
        depth = _scan_depth(k, dim, family, depth)  # the scan, resumed
        assert _depth_of_index(k, dim, family) == depth
    rng = random.Random(dim)
    for _ in range(2000):
        k = rng.getrandbits(rng.randint(1, 256))
        assert _depth_of_index(k, dim, family) == _scan_depth(k, dim, family)
    for depth in range(64):  # both sides of every count
        count = _cum_count(depth, dim, family)
        assert _depth_of_index(count - 1, dim, family) == depth
        assert _depth_of_index(count, dim, family) == depth + 1


def test_family_pair_anti_diagonal_order():
    p1 = family_pair(1, CFG1)
    assert (p1.x.index, p1.y.index) == (0, 0)
    p2 = family_pair(2, CFG1)
    assert (p2.x.index, p2.y.index) == (0, 1)
    p3 = family_pair(3, CFG1)
    assert (p3.x.index, p3.y.index) == (1, 0)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_iter_pairs_matches_family_pair(dim):
    cfg = FamilyConfig(Domain.unit(dim))
    assert list(iter_pairs(cfg, range(1, 2049))) == [family_pair(j, cfg) for j in range(1, 2049)]


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_iter_pairs_any_index_list(dim):
    # unsorted and repeated indices, and the terms of a deep greedy
    # decomposition, decode exactly as one family_pair call each
    import random

    from conftest import random_measure
    from krdecomp import decompose_balanced, decompose_full

    cfg = FamilyConfig(Domain.unit(dim))
    rng = random.Random(dim)
    decs = [
        decompose_balanced(random_measure(rng, cfg.domain, 5, balanced=True), 1e-4, cfg, 20),
        decompose_full(random_measure(rng, cfg.domain, 5), 1e-4, cfg, 20),
    ]
    lists = [[9, 3, 3, 1, 120, 2, 9, 57, 1], list(range(400, 0, -7)), []]
    lists += [[j for j, _, _ in dec.terms] for dec in decs]
    assert all(dec.terms for dec in decs)
    for js in lists:
        assert list(iter_pairs(cfg, js)) == [family_pair(j, cfg) for j in js]


def test_pair_index_bijection():
    seen = set()
    for j in range(1, 3000):
        ab = pair_components(j)
        assert pair_index(*ab) == j
        assert ab not in seen
        seen.add(ab)


def test_pair_separation_positive_exhaustive():
    # disjointness scan on the unit square for the first 10^4 pairs
    for j in range(1, 10_001):
        assert family_pair(j, CFG2).separation > 0.0


def test_delta_atoms_follow_the_interleaving():
    a1 = delta_atom(1, CFG1)
    assert a1.kind == "dipole" and a1.pair_index == 1
    assert a1.measure.total_mass() == 0.0
    sep = family_pair(1, CFG1).separation
    assert math.isclose(a1.measure.total_variation(), 2.0 / sep, rel_tol=1e-15)

    a2 = delta_atom(2, CFG1)
    assert a2.kind == "delta" and a2.pair_index == 1
    assert a2.measure.total_mass() == 1.0

    a3 = delta_atom(3, CFG1)
    assert a3.kind == "dipole" and a3.pair_index == 2
    assert a3.measure.total_mass() == 0.0


def test_nearest_family_point_identity_case():
    fp, dist = nearest_family_point((0.25,), 2, "d1", CFG1)
    assert fp.coords == (0.25,) and dist == 0.0


def test_nearest_family_point_d1_example():
    fp, dist = nearest_family_point((0.3,), 2, "d1", CFG1)
    assert fp.coords == (0.25,)
    assert math.isclose(dist, 0.05)


def test_nearest_family_point_d2_depth2():
    # oracle: enumerate the 4 shifted grid values frac(a/4 + theta)
    values = sorted(
        ((abs(0.3 - ((a / 4 + THETA) % 1.0)), (a / 4 + THETA) % 1.0) for a in range(4))
    )
    best_dist, best_val = values[0]
    fp, dist = nearest_family_point((0.3,), 2, "d2", CFG1)
    assert fp.coords == (best_val,)
    assert math.isclose(dist, best_dist)


def test_nearest_agrees_with_brute_force():
    import random

    cfg = FamilyConfig(Domain((0.0, -1.0), (2.0, 3.0)))
    rng = random.Random(11)
    for _ in range(150):
        p = (rng.uniform(0, 2), rng.uniform(-1, 3))
        depth = rng.randrange(0, 4)
        for which in ("d1", "d2"):
            fp, dist = nearest_family_point(p, depth, which, cfg)
            ticks_range = (
                range((1 << depth) + 1) if which == "d1" else range(1 << depth)
            )
            brute = min(
                (math.dist(p, _coords(t, depth, cfg, which)), _coords(t, depth, cfg, which))
                for t in itertools.product(ticks_range, repeat=2)
            )
            assert fp.coords == brute[1]
            assert math.isclose(dist, brute[0], abs_tol=1e-15)


def test_snap_radius_bounds_hold():
    import random

    rng = random.Random(23)
    for dim in (1, 2, 3):
        cfg = FamilyConfig(Domain.unit(dim))
        for depth in range(0, 11):
            for _ in range(20):
                p = tuple(rng.random() for _ in range(dim))
                _, dist1 = nearest_family_point(p, depth, "d1", cfg)
                assert dist1 <= snap_radius(depth, cfg, "d1") + 1e-12
                _, dist2 = nearest_family_point(p, depth, "d2", cfg)
                assert dist2 <= snap_radius(depth, cfg, "d2") + 1e-12


def test_density_quantified():
    # for any target eps, a deep enough snap gets below eps
    p = (0.7310987, 0.1234567)
    for eps in (1e-1, 1e-3, 1e-6):
        depth = 0
        while snap_radius(depth, CFG2, "d1") >= eps:
            depth += 1
        _, dist = nearest_family_point(p, depth, "d1", CFG2)
        assert dist < eps


def test_dump_replay_identical():
    assert dump_pairs_csv(CFG2, 200) == dump_pairs_csv(CFG2, 200)


def test_dipole_atoms_balanced_delta_atoms_unit_mass():
    for j in range(1, 41):
        atom = delta_atom(j, CFG2)
        if atom.kind == "dipole":
            assert atom.measure.total_mass() == 0.0
        else:
            assert atom.measure.total_mass() == 1.0


def test_offset_validation():
    with pytest.raises(ValueError):
        FamilyConfig(Domain.unit(1), offset=1.5)
    assert 0.0 < DEFAULT_OFFSET < 1.0


# -- boxes other than the unit box -------------------------------------------

SHIFTED2 = Domain((0.1, 0.3), (0.7, 0.9))


def _box(kind, dim):
    """The unit box, or the box (0.1, 0.3)..(0.7, 0.9) with its bounds
    repeated over ``dim`` axes."""
    if kind == "unit":
        return Domain.unit(dim)
    return Domain(((0.1, 0.3) * dim)[:dim], ((0.7, 0.9) * dim)[:dim])


def test_family_points_on_the_upper_face_stay_in_the_box():
    # 0.3 + (0.9 - 0.3) * 1 rounds to 0.9000000000000001
    cfg = FamilyConfig(SHIFTED2)
    assert d1_point(1, cfg).coords == (0.1, 0.9)
    for pair in iter_pairs(cfg, range(1, 2001)):
        assert SHIFTED2.contains(pair.x.coords) and SHIFTED2.contains(pair.y.coords)


def test_every_one_decimal_interval_keeps_its_family_points():
    bounds = [round(-2.0 + 0.1 * k, 1) for k in range(41)]
    boxes = [Domain((lo,), (hi,)) for lo, hi in itertools.combinations(bounds, 2)]
    assert len(boxes) == 820
    for box in boxes:
        for pair in iter_pairs(FamilyConfig(box), range(1, 16)):
            assert box.contains(pair.x.coords) and box.contains(pair.y.coords)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: nearest_family_point((0.3, 0.6), 2, "d3", CFG2), "which"),
        (lambda: nearest_family_point((0.3, 0.6), -1, "d1", CFG2), "depth"),
        (lambda: snap_radius(2, CFG2, "d3"), "which"),
        (lambda: snap_radius(-1, CFG2, "d2"), "depth"),
    ],
    ids=["nearest-family", "nearest-depth", "radius-family", "radius-depth"],
)
def test_snap_rejects_bad_arguments_by_name(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_snap_tie_goes_to_the_smaller_coordinate():
    # 0.375 lies halfway between the depth-2 ticks 0.25 and 0.5
    fp, dist = nearest_family_point((0.375,), 2, "d1", CFG1)
    assert fp.coords == (0.25,) and dist == 0.125
    fp, _ = nearest_family_point((0.625, 0.375), 2, "d1", CFG2)
    assert fp.coords == (0.5, 0.25)


def _snap_probe_points(cfg, rng):
    """Random points, grid points of both families, points on box faces,
    and midpoints between two neighbouring ticks on every axis."""
    lo, hi = cfg.domain.lo, cfg.domain.hi
    points = [tuple(rng.uniform(a, b) for a, b in zip(lo, hi)) for _ in range(6)]
    for family in ("d1", "d2"):
        for depth in (0, 2, 7, 60):
            top = (1 << depth) if family == "d1" else (1 << depth) - 1
            ticks = [rng.randint(0, top) for _ in lo]
            points.append(_coords(ticks, depth, cfg, family))
        for depth in (1, 3, 30):
            top = (1 << depth) - (1 if family == "d1" else 2)
            ticks = [rng.randint(0, top) for _ in lo]
            a = _coords(ticks, depth, cfg, family)
            b = _coords([t + 1 for t in ticks], depth, cfg, family)
            points.append(tuple((u + v) / 2 for u, v in zip(a, b)))
    for _ in range(4):
        p = [rng.uniform(a, b) for a, b in zip(lo, hi)]
        for axis in rng.sample(range(len(p)), rng.randint(1, len(p))):
            p[axis] = rng.choice((lo[axis], hi[axis]))
        points.append(tuple(p))
    points.append(lo)
    points.append(hi)
    return points


def _brute_nearest(p, grid, coords):
    """The nearest grid point to p by math.dist, ties to the smaller
    coordinates; numpy only shortlists the candidates."""
    import numpy as np

    d = np.sqrt(((grid - np.array(p)) ** 2).sum(axis=1))
    close = np.flatnonzero(d <= d.min() + 1e-12)
    return min((math.dist(p, coords[k]), coords[k]) for k in close)


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("box", ["unit", "shifted"])
def test_snap_table_matches_nearest_and_brute_force(dim, box):
    import random

    import numpy as np

    from krdecomp.family import SnapTable

    cfg = FamilyConfig(_box(box, dim))
    points = _snap_probe_points(cfg, random.Random(dim))
    table = SnapTable(cfg)
    for which in ("d1", "d2"):
        for depth in range(61):
            grid = coords = None
            if depth <= 3:
                top = (1 << depth) + 1 if which == "d1" else 1 << depth
                coords = [
                    _coords(t, depth, cfg, which)
                    for t in itertools.product(range(top), repeat=dim)
                ]
                grid = np.array(coords)
            for p in points:
                fp, dist = table.nearest(p, depth, which)
                assert (fp, dist) == nearest_family_point(p, depth, which, cfg)
                assert cfg.domain.contains(fp.coords)
                assert dist == math.dist(p, fp.coords)
                if grid is not None:
                    brute_dist, brute_coords = _brute_nearest(p, grid, coords)
                    assert fp.coords == brute_coords
                    assert math.isclose(dist, brute_dist, abs_tol=1e-15)
