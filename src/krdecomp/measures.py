"""Finitely supported signed measures on an axis-aligned box in R^n.

A measure is a finite list of (point, weight) atoms inside a compact box
domain.  Construction always canonicalizes: duplicate points are merged by
summing weights, zero weights are dropped, and atoms are sorted
lexicographically by coordinates, so equality of measures is plain equality
of their atom lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

Point = tuple[float, ...]

__all__ = [
    "Point",
    "Domain",
    "DiscreteSignedMeasure",
    "HahnJordanPair",
    "DomainMembershipError",
    "DegenerateDipoleError",
    "euclidean",
    "dirac",
    "dipole",
    "measure_from_json",
    "measure_to_json",
]


class DomainMembershipError(ValueError):
    """A point lies outside the box domain."""


class DegenerateDipoleError(ValueError):
    """Dipole endpoints coincide."""


def euclidean(p: Sequence[float], q: Sequence[float]) -> float:
    return math.dist(p, q)


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_n, hi_n]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be nonempty and of equal length")
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if not all(map(math.isfinite, self.lo + self.hi)):
            raise ValueError("box bounds must be finite")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError(f"need lo < hi per axis, got [{a}, {b}]")
        if not math.isfinite(self.diameter):
            raise ValueError(f"box {self.lo}..{self.hi} has a diameter beyond the float range")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def diameter(self) -> float:
        """Euclidean length of the box diagonal."""
        return euclidean(self.lo, self.hi)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def max_side(self) -> float:
        return max(self.sides)

    def contains(self, point: Sequence[float]) -> bool:
        return len(point) == self.dim and all(
            a <= x <= b for a, x, b in zip(self.lo, point, self.hi)
        )

    def require_member(self, point: Sequence[float]) -> Point:
        p = tuple(float(x) for x in point)
        if not self.contains(p):
            raise DomainMembershipError(f"point {p} outside box {self.lo}..{self.hi}")
        return p

    @classmethod
    def unit(cls, dim: int) -> "Domain":
        return cls((0.0,) * dim, (1.0,) * dim)


def _canonical_atoms(
    domain: Domain, atoms: Iterable[tuple[Sequence[float], float]]
) -> tuple[tuple[Point, float], ...]:
    """Merge duplicates by exact coordinate equality, drop zeros, sort.

    Every nonzero weight is kept so total-variation identities stay
    exact."""
    buckets: dict[Point, list[float]] = {}
    for i, (point, weight) in enumerate(atoms):
        w = float(weight)
        if not math.isfinite(w):
            raise ValueError(f"atom #{i} has non-finite weight {w}")
        try:
            # the box is finite, so this also rejects non-finite coordinates
            p = domain.require_member(point)
        except DomainMembershipError as exc:
            raise DomainMembershipError(f"atom #{i} {exc}") from None
        buckets.setdefault(p, []).append(w)
    merged = []
    try:
        for p in sorted(buckets):
            w = math.fsum(buckets[p])
            if w != 0.0:
                merged.append((p, w))
        # a finite total variation keeps every later mass and balance sum finite
        math.fsum(abs(w) for _, w in merged)
    except OverflowError:
        raise ValueError("total variation of the atoms exceeds the float range") from None
    return tuple(merged)


@dataclass(frozen=True)
class DiscreteSignedMeasure:
    """Canonical finitely supported signed measure on a box."""

    domain: Domain
    atoms: tuple[tuple[Point, float], ...]

    @classmethod
    def from_atoms(
        cls, domain: Domain, atoms: Iterable[tuple[Sequence[float], float]]
    ) -> "DiscreteSignedMeasure":
        return cls(domain, _canonical_atoms(domain, atoms))

    @classmethod
    def zero(cls, domain: Domain) -> "DiscreteSignedMeasure":
        return cls(domain, ())

    def canonicalize(self) -> "DiscreteSignedMeasure":
        """Idempotent re-canonicalization (merge, drop zeros, sort)."""
        return DiscreteSignedMeasure.from_atoms(self.domain, self.atoms)

    @property
    def support(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.atoms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.atoms)

    def total_mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def total_variation(self) -> float:
        return math.fsum(abs(w) for _, w in self.atoms)

    def is_balanced(self, tol: float) -> bool:
        if tol < 0:
            raise ValueError("tolerance must be nonnegative")
        return abs(self.total_mass()) <= tol

    def hahn_jordan(self) -> "HahnJordanPair":
        pos = tuple((p, w) for p, w in self.atoms if w > 0)
        neg = tuple((p, -w) for p, w in self.atoms if w < 0)
        return HahnJordanPair(
            positive=DiscreteSignedMeasure(self.domain, pos),
            negative=DiscreteSignedMeasure(self.domain, neg),
        )

    def scaled(self, factor: float) -> "DiscreteSignedMeasure":
        return DiscreteSignedMeasure.from_atoms(
            self.domain, ((p, factor * w) for p, w in self.atoms)
        )

    def __add__(self, other: "DiscreteSignedMeasure") -> "DiscreteSignedMeasure":
        if other.domain != self.domain:
            raise ValueError("measures live on different domains")
        return DiscreteSignedMeasure.from_atoms(
            self.domain, list(self.atoms) + list(other.atoms)
        )

    def __sub__(self, other: "DiscreteSignedMeasure") -> "DiscreteSignedMeasure":
        if other.domain != self.domain:
            raise ValueError("measures live on different domains")
        # negation is exact, so this is self + other.scaled(-1) canonicalized once
        return DiscreteSignedMeasure.from_atoms(
            self.domain, list(self.atoms) + [(p, -w) for p, w in other.atoms]
        )

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class HahnJordanPair:
    """Exact split m = positive - negative with disjoint supports."""

    positive: DiscreteSignedMeasure
    negative: DiscreteSignedMeasure


def dirac(domain: Domain, x: Sequence[float]) -> DiscreteSignedMeasure:
    """Unit point mass at x."""
    return DiscreteSignedMeasure.from_atoms(domain, [(x, 1.0)])


def dipole(
    domain: Domain, x: Sequence[float], y: Sequence[float], a: float
) -> DiscreteSignedMeasure:
    """Balanced two-point measure a*(delta_x - delta_y); requires x != y."""
    px = domain.require_member(x)
    py = domain.require_member(y)
    if px == py:
        raise DegenerateDipoleError(f"dipole endpoints coincide at {px}")
    return DiscreteSignedMeasure.from_atoms(domain, [(px, a), (py, -a)])


def measure_to_json(m: DiscreteSignedMeasure) -> str:
    """Serialize to the documented measure schema (deterministic)."""
    doc = {
        "dim": m.domain.dim,
        "lo": list(m.domain.lo),
        "hi": list(m.domain.hi),
        "atoms": [{"point": list(p), "weight": w} for p, w in m.atoms],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def measure_from_json(text: str) -> DiscreteSignedMeasure:
    """Parse the measure schema; raises ValueError naming the bad field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("measure file must hold a JSON object")
    for field in ("dim", "lo", "hi", "atoms"):
        if field not in doc:
            raise ValueError(f"measure file missing field '{field}'")
    dim = doc["dim"]
    if not (isinstance(dim, int) and dim >= 1):
        raise ValueError("field 'dim' must be a positive integer")
    for field in ("lo", "hi", "atoms"):
        if not isinstance(doc[field], list):
            raise ValueError(f"field '{field}' must be a list")
    if len(doc["lo"]) != dim or len(doc["hi"]) != dim:
        raise ValueError("fields 'lo'/'hi' must have length 'dim'")
    try:
        lo = tuple(float(v) for v in doc["lo"])
        hi = tuple(float(v) for v in doc["hi"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("fields 'lo'/'hi' must hold numbers") from exc
    domain = Domain(lo, hi)
    atoms = []
    for i, entry in enumerate(doc["atoms"]):
        if not isinstance(entry, dict):
            raise ValueError(f"atom #{i} must be an object with 'point' and 'weight'")
        if "point" not in entry or "weight" not in entry:
            raise ValueError(f"atom #{i} missing 'point' or 'weight'")
        if not isinstance(entry["point"], list):
            raise ValueError(f"atom #{i} point must be a list")
        try:
            point = tuple(float(x) for x in entry["point"])
            weight = float(entry["weight"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"atom #{i} has a non-numeric point or weight") from exc
        if len(point) != dim:
            raise ValueError(f"atom #{i} point has wrong dimension")
        atoms.append((point, weight))
    return DiscreteSignedMeasure.from_atoms(domain, atoms)
