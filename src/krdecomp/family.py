"""Deterministic dense point families on a box and the canonical atom sequence.

Two countable dense families are enumerated:

* ``d1``: the dyadic grid points of the box, by increasing depth, then
  lexicographically, skipping points already produced at a smaller depth.
* ``d2``: the same schedule shifted per axis by an irrational offset
  (default sqrt(2) - 1) and wrapped modulo the box side, deduplicated.

Shifted coordinates are never dyadic in exact arithmetic, so the two
families are disjoint; disjointness is carried structurally by the family
tag on each point, never decided by comparing floats.

Pairs (x, y) in d1 x d2 are enumerated along Cantor anti-diagonals, and the
canonical atom sequence interleaves normalized dipoles (odd indices) with
unit point masses (even indices).

:func:`iter_pairs` is the one pair decoder: every pair, single or batched,
is built there, each distinct d1/d2 point once per call.  ``term_atoms`` is
the one definition of a term alpha1 * dipole_j + alpha2 * delta_{x_j} as
point atoms, shared by the canonical atoms and every reconstruction.
:class:`SnapTable` is the one snapper: it finds each nearest family point
once per table, and :func:`nearest_family_point` is one lookup in a fresh
table.  Every family coordinate is computed by ``_coord``, which keeps it
inside the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

from .measures import DiscreteSignedMeasure, Domain, Point, euclidean

FamilyTag = Literal["d1", "d2"]

DEFAULT_OFFSET = math.sqrt(2.0) - 1.0

__all__ = [
    "DEFAULT_OFFSET",
    "FamilyConfig",
    "FamilyPoint",
    "FamilyPair",
    "DeltaAtom",
    "d1_point",
    "d2_point",
    "family_pair",
    "pair_index",
    "pair_components",
    "delta_atom",
    "nearest_family_point",
    "snap_radius",
    "dump_pairs_csv",
]


@dataclass(frozen=True)
class FamilyConfig:
    """Box plus the irrational shift used by the d2 family."""

    domain: Domain
    offset: float = DEFAULT_OFFSET

    def __post_init__(self) -> None:
        if not 0.0 < self.offset < 1.0:
            raise ValueError("offset must lie in (0, 1)")


@dataclass(frozen=True)
class FamilyPoint:
    """A grid point with provenance: which family, enumeration index, and
    the exact dyadic ticks (numerators at ``depth``) that generated it."""

    family: FamilyTag
    index: int
    depth: int
    ticks: tuple[int, ...]
    coords: Point

    def __post_init__(self) -> None:
        limit = 1 << self.depth
        hi_ok = limit if self.family == "d1" else limit - 1
        if any(a < 0 or a > hi_ok for a in self.ticks):
            raise ValueError("ticks out of range for depth")


@dataclass(frozen=True)
class FamilyPair:
    """The j-th pair (x_j, y_j) of the d1 x d2 enumeration; x != y always."""

    index: int
    x: FamilyPoint
    y: FamilyPoint
    separation: float


@dataclass(frozen=True)
class DeltaAtom:
    """Canonical atom: normalized dipole at odd index, point mass at even."""

    index: int
    kind: Literal["dipole", "delta"]
    pair_index: int
    measure: DiscreteSignedMeasure


# -- exact dyadic enumeration ------------------------------------------------
#
# d1 at depth L uses ticks in {0..2^L}, d2 uses {0..2^L - 1} (the shifted
# value of tick 2^L wraps onto tick 0).  A tick tuple is new at depth L >= 1
# iff some tick is odd; depth 0 holds the corners (d1) or the single shifted
# origin (d2).  Cumulative counts through depth L are (2^L + 1)^n for d1 and
# 2^(L*n) for d2, which makes index <-> (depth, ticks) an exact integer
# computation.


def _cum_count(depth: int, n: int, family: FamilyTag) -> int:
    if depth < 0:
        return 0
    if family == "d1":
        return ((1 << depth) + 1) ** n
    return 1 << (depth * n)


def _depth_of_index(k: int, n: int, family: FamilyTag) -> int:
    """The least depth L whose cumulative count exceeds k.  Either
    family's count through depth L lies in [2^(L*n), 2^((L+1)*n)], so with
    b = bits(k) and L0 = ceil(b/n), L0 qualifies (2^(L0*n) >= 2^b > k) and
    L0 - 2 does not (2^((L0-1)*n) <= 2^(b-1) <= k): one exact integer
    check decides between L0 - 1 and L0."""
    depth = -(-k.bit_length() // n)
    return depth - 1 if depth > 0 and _cum_count(depth - 1, n, family) > k else depth


def _values_per_axis(depth: int, family: FamilyTag) -> tuple[int, int]:
    """(total values, even values) per axis at this depth."""
    if family == "d1":
        total = (1 << depth) + 1
        even = (1 << max(depth - 1, 0)) + 1 if depth >= 1 else total
    else:
        total = 1 << depth
        even = 1 << max(depth - 1, 0) if depth >= 1 else total
    return total, even


def _completions(rem: int, need_odd: bool, total: int, even: int) -> int:
    """Number of valid tick suffixes of length ``rem``."""
    if not need_odd:
        return total**rem
    return total**rem - even**rem


def _unrank_ticks(rank: int, depth: int, n: int, family: FamilyTag) -> tuple[int, ...]:
    """rank-th (lex) tick tuple that is new at ``depth``."""
    total, even = _values_per_axis(depth, family)
    need_odd = depth >= 1
    ticks = []
    for i in range(n):
        rem = n - i - 1
        if not need_odd:
            per = _completions(rem, False, total, even)
            a, rank = divmod(rank, per)
        else:
            ce = _completions(rem, True, total, even)  # choosing an even tick
            co = _completions(rem, False, total, even)  # choosing an odd tick
            pair, r = divmod(rank, ce + co)
            if r < ce:
                a, rank = 2 * pair, r
            else:
                a, rank = 2 * pair + 1, r - ce
        if a >= total:
            raise ValueError("rank out of range at this depth")
        ticks.append(a)
        need_odd = need_odd and a % 2 == 0
    if rank != 0:
        raise ValueError("rank out of range at this depth")
    return tuple(ticks)


def _rank_ticks(ticks: Sequence[int], depth: int, n: int, family: FamilyTag) -> int:
    """Inverse of :func:`_unrank_ticks` for a tuple new at ``depth``."""
    total, even = _values_per_axis(depth, family)
    need_odd = depth >= 1
    rank = 0
    for i, a in enumerate(ticks):
        rem = n - i - 1
        if not need_odd:
            rank += a * _completions(rem, False, total, even)
        else:
            n_even_below = (a + 1) // 2
            n_odd_below = a // 2
            rank += n_even_below * _completions(rem, True, total, even)
            rank += n_odd_below * _completions(rem, False, total, even)
        need_odd = need_odd and a % 2 == 0
    if need_odd and depth >= 1:
        raise ValueError("ticks are not new at this depth (all even)")
    return rank


def _normalize(ticks: Sequence[int], depth: int) -> tuple[tuple[int, ...], int]:
    """Reduce (ticks, depth) to the minimal depth producing the same point."""
    t = list(ticks)
    while depth > 0 and all(a % 2 == 0 for a in t):
        t = [a // 2 for a in t]
        depth -= 1
    return tuple(t), depth


def _index_of(ticks: Sequence[int], depth: int, n: int, family: FamilyTag) -> int:
    ticks, depth = _normalize(ticks, depth)
    return _cum_count(depth - 1, n, family) + _rank_ticks(ticks, depth, n, family)


def _rel(tick: int, depth: int, family: FamilyTag, offset: float) -> float:
    """Relative position of a tick in [0, 1]: tick / 2^depth for d1, that
    plus the offset, wrapped, for d2."""
    u = tick / (1 << depth)
    if family == "d1":
        return u
    u += offset
    return u - 1.0 if u >= 1.0 else u


def _coord(lo: float, hi: float, rel: float) -> float:
    """The one family coordinate at relative position rel of [lo, hi]:
    lo + (hi - lo) * rel can round above hi at rel = 1, so it is capped."""
    return min(hi, lo + (hi - lo) * rel)


def _coords(ticks: Sequence[int], depth: int, cfg: FamilyConfig, family: FamilyTag) -> Point:
    return tuple(
        _coord(lo, hi, _rel(a, depth, family, cfg.offset))
        for lo, hi, a in zip(cfg.domain.lo, cfg.domain.hi, ticks)
    )


def _point_at(k: int, cfg: FamilyConfig, family: FamilyTag) -> FamilyPoint:
    if k < 0:
        raise ValueError("index must be nonnegative")
    n = cfg.domain.dim
    depth = _depth_of_index(k, n, family)
    rank = k - _cum_count(depth - 1, n, family)
    ticks = _unrank_ticks(rank, depth, n, family)
    return FamilyPoint(family, k, depth, ticks, _coords(ticks, depth, cfg, family))


def d1_point(k: int, cfg: FamilyConfig) -> FamilyPoint:
    """k-th point of the dyadic enumeration of the box (dense in K)."""
    return _point_at(k, cfg, "d1")


def d2_point(k: int, cfg: FamilyConfig) -> FamilyPoint:
    """k-th point of the shifted dyadic enumeration (dense, disjoint from d1)."""
    return _point_at(k, cfg, "d2")


def pair_index(a: int, b: int) -> int:
    """1-based Cantor anti-diagonal index of (d1_point(a), d2_point(b))."""
    if a < 0 or b < 0:
        raise ValueError("component indices must be nonnegative")
    s = a + b
    return s * (s + 1) // 2 + a + 1


def pair_components(j: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    if j < 1:
        raise ValueError("pair index must be >= 1")
    t = j - 1
    s = (math.isqrt(8 * t + 1) - 1) // 2
    a = t - s * (s + 1) // 2
    return a, s - a


def iter_pairs(cfg: FamilyConfig, indices: Iterable[int]) -> Iterator[FamilyPair]:
    """The pairs (x_j, y_j) for j in ``indices``, in their order (repeats
    allowed).  Each distinct d1/d2 point is built once per call: the first
    n pairs use only O(sqrt(n)) of them, and the terms of a decomposition
    share many."""
    points: dict[tuple[FamilyTag, int], FamilyPoint] = {}

    def point(k: int, family: FamilyTag) -> FamilyPoint:
        if (family, k) not in points:
            points[family, k] = _point_at(k, cfg, family)
        return points[family, k]

    for j in indices:
        a, b = pair_components(j)
        x, y = point(a, "d1"), point(b, "d2")
        yield FamilyPair(j, x, y, euclidean(x.coords, y.coords))


def family_pair(j: int, cfg: FamilyConfig) -> FamilyPair:
    """The j-th pair (x_j, y_j), j >= 1, walking d1 x d2 anti-diagonals."""
    return next(iter_pairs(cfg, (j,)))


def term_atoms(pair: FamilyPair, alpha1: float, alpha2: float) -> list[tuple[Point, float]]:
    """Atoms of alpha1 * dipole_j + alpha2 * delta_{x_j}, j = pair.index,
    where dipole_j = (delta_x - delta_y) / |x - y|."""
    atoms = []
    if alpha1 != 0.0:
        w = alpha1 / pair.separation
        atoms += [(pair.x.coords, w), (pair.y.coords, -w)]
    if alpha2 != 0.0:
        atoms.append((pair.x.coords, alpha2))
    return atoms


def delta_atom(j: int, cfg: FamilyConfig) -> DeltaAtom:
    """Canonical atom j: dipole (delta_x - delta_y)/|x-y| for odd j = 2k-1,
    unit mass delta_x for even j = 2k, built from pair k."""
    if j < 1:
        raise ValueError("atom index must be >= 1")
    k = (j + 1) // 2
    kind, alphas = ("dipole", (1.0, 0.0)) if j % 2 == 1 else ("delta", (0.0, 1.0))
    atoms = term_atoms(family_pair(k, cfg), *alphas)
    return DeltaAtom(j, kind, k, DiscreteSignedMeasure.from_atoms(cfg.domain, atoms))


def _check_snap_args(depth: int, which: FamilyTag) -> None:
    if which not in ("d1", "d2"):
        raise ValueError(f"family which must be 'd1' or 'd2', not {which!r}")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, not {depth!r}")


def snap_radius(depth: int, cfg: FamilyConfig, which: FamilyTag) -> float:
    """Worst-case snap distance at this depth (d2 pays twice the d1 bound
    because the shifted grid is not symmetric about the box boundary)."""
    _check_snap_args(depth, which)
    n = cfg.domain.dim
    half = math.sqrt(n) / 2.0 * cfg.domain.max_side / (1 << depth)
    return half if which == "d1" else 2.0 * half


def _axis_snap(
    x: float, t: float, lo: float, hi: float, depth: int, which: FamilyTag, offset: float
) -> tuple[int, float]:
    """The tick nearest to coordinate x (relative position t in [0, 1]) on
    one axis of [lo, hi], with the coordinate it was compared by; ties go
    to the smaller coordinate, then to the smaller tick."""
    size = 1 << depth
    if which == "d1":
        base = math.floor(t * size)
        ticks = (base, base + 1) if base < size else (size,)
    else:
        shift = math.floor(offset * size)
        base = math.floor((t - (offset - shift / size)) * size)
        # the shifted grid indices base - 1 .. base + 1, clamped, as ticks
        first, last = (min(max(i, 0), size - 1) for i in (base - 1, base + 1))
        ticks = sorted([(i - shift) % size for i in range(first, last + 1)])
    best_a, best_v, best_d = -1, math.inf, math.inf
    for a in ticks:
        v = _coord(lo, hi, _rel(a, depth, which, offset))
        d = abs(x - v)
        if d < best_d or (d == best_d and v < best_v):
            best_a, best_v, best_d = a, v, d
    return best_a, best_v


class SnapTable:
    """Nearest family points of box points, each (point, depth, family)
    computed once: a point is checked against the box and put in relative
    coordinates on its first lookup, each snap on its first request.  A
    greedy decomposition keeps one table for the snaps of all its plan
    edges; nothing outlives it."""

    def __init__(self, cfg: FamilyConfig) -> None:
        self.cfg = cfg
        self._axes: dict[Point, tuple[Point, list[tuple[float, float, float, float]]]] = {}
        self._snaps: dict[tuple[Point, int, FamilyTag], tuple[FamilyPoint, float]] = {}

    def nearest(self, p: Point, depth: int, which: FamilyTag) -> tuple[FamilyPoint, float]:
        """Nearest depth-``depth`` grid point of the family ``which`` to p,
        with its Euclidean distance; ties broken toward the
        lexicographically smaller point."""
        key = (p, depth, which)
        hit = self._snaps.get(key)
        if hit is None:
            hit = self._snaps[key] = self._snap(p, depth, which)
        return hit

    def _snap(self, p: Point, depth: int, which: FamilyTag) -> tuple[FamilyPoint, float]:
        _check_snap_args(depth, which)
        if p not in self._axes:
            domain = self.cfg.domain
            q = domain.require_member(p)
            self._axes[p] = q, [
                (x, (x - lo) / (hi - lo), lo, hi) for lo, hi, x in zip(domain.lo, domain.hi, q)
            ]
        q, axes = self._axes[p]
        offset = self.cfg.offset
        ticks, coords = zip(*(_axis_snap(*axis, depth, which, offset) for axis in axes))
        norm_ticks, norm_depth = _normalize(ticks, depth)
        idx = _index_of(norm_ticks, norm_depth, len(q), which)
        # halving every tick and the depth leaves each tick / 2^depth as it
        # was, so the compared coordinates are the normalized point's
        point = FamilyPoint(which, idx, norm_depth, norm_ticks, coords)
        return point, euclidean(q, coords)


def nearest_family_point(
    p: Sequence[float], depth: int, which: FamilyTag, cfg: FamilyConfig
) -> tuple[FamilyPoint, float]:
    """Nearest depth-``depth`` grid point of the chosen family, with its
    Euclidean distance; ties broken toward the lexicographically smaller
    point.  One lookup in a fresh :class:`SnapTable`."""
    return SnapTable(cfg).nearest(tuple(p), depth, which)


def dump_pairs_csv(cfg: FamilyConfig, count: int) -> str:
    """CSV dump `j,x_1..x_n,y_1..y_n,separation` with 17 significant digits."""
    lines = []
    for pair in iter_pairs(cfg, range(1, count + 1)):
        fields = [str(pair.index)]
        fields += [format(c, ".17g") for c in pair.x.coords]
        fields += [format(c, ".17g") for c in pair.y.coords]
        fields.append(format(pair.separation, ".17g"))
        lines.append(",".join(fields) + "\n")
    return "".join(lines)
