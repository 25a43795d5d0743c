"""Workload definitions and their seeded instance pools.

A workload is a cycle of slots run in a fixed order; the benchmark runs
whole cycles, so every run holds the size, dimension and variant mix
stated here exactly.  Each slot takes a fresh instance: no instance is
used twice in a run.  Instances come from the program's own `gen` and
`family dump` commands, with seeds derived from the benchmark's seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BOXES = {1: "0:1", 2: "0:1,0:1", 5: "0:1,0:1,0:1,0:1,0:1"}
DIMS = (1, 2, 5)
VARIANTS = ("kr0", "kr")  # kr0 on balanced instances, kr on unbalanced ones
# `norm --tol` on norm-sweep.  The program's default, 1e-8, is not met on
# about 3% of 320-atom 2-D instances: the dual LP is solved at HiGHS's
# default feasibility tolerance, the raw witness is up to ~1e-6 steeper than
# 1, and certification rescales it, leaving gaps up to ~3e-5.  The tolerance
# only sets the exit code, not the work done; run.py prints how many gaps
# exceed DEFAULT_NORM_TOL so the defect stays in view.
NORM_TOL = 1e-3
DEFAULT_NORM_TOL = 1e-8
CHECK_TERMS = 4
L1_TRUNCATE = 1024


@dataclass(frozen=True)
class Slot:
    method: str  # "norm", "greedy" (decompose + verify) or "l1" (decompose + verify)
    size: int
    dim: int
    variant: str
    tol: float = NORM_TOL


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]  # one cycle
    min_cycles: int  # enough cycles for >= 100 commands, so p90 has >= 10 beyond it
    batch_cycles: int  # cycles of instances generated per batch


def _grid(method: str, sizes: tuple[int, ...], tol: float) -> tuple[Slot, ...]:
    return tuple(
        Slot(method, n, d, v, tol) for d in DIMS for v in VARIANTS for n in sizes
    )


WORKLOADS = {
    w.name: w
    for w in (
        # 40 and 80 atoms twice per cycle, so p50 falls inside the 80-atom
        # band and p90 inside the 320-atom band (16.7% of commands).
        Workload("norm-sweep", _grid("norm", (40, 40, 80, 80, 160, 320), NORM_TOL), 3, 6),
        # (40 atoms, dim 5, kr0) is left out: one such pipeline takes about
        # 3 s, 38% of a cycle, so a run would hold three and its throughput
        # would swing with the seed.
        Workload(
            "decompose-verify",
            tuple(s for s in _grid("greedy", (10, 20, 40), 1e-4)
                  if (s.size, s.dim, s.variant) != (40, 5, "kr0")),
            3,
            8,
        ),
        Workload(
            "small-deep", _grid("greedy", (4, 6, 8), 1e-8) + _grid("l1", (4, 6, 8), 1e-8), 2, 12
        ),
    )
}


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass(frozen=True)
class Instance:
    path: Path
    points: np.ndarray
    weights: np.ndarray


def load_instance(path: Path) -> Instance:
    doc = json.loads(path.read_text())
    points = np.array([a["point"] for a in doc["atoms"]], dtype=float)
    weights = np.array([a["weight"] for a in doc["atoms"]], dtype=float)
    return Instance(path, points.reshape(len(weights), doc["dim"]), weights)


def _family_points(csv: str, dim: int) -> list[list[float]]:
    """Distinct x and y points of a `family dump` CSV, in first-seen order."""
    seen: dict[tuple[float, ...], None] = {}
    for line in csv.splitlines():
        fields = [float(v) for v in line.split(",")[1:]]
        seen.setdefault(tuple(fields[:dim]), None)
        seen.setdefault(tuple(fields[dim : 2 * dim]), None)
    return [list(p) for p in seen]


class InstancePool:
    """Seeded instances per slot kind, generated a batch at a time through
    the CLI.  `run_cli(argv)` returns (exit code, stdout)."""

    def __init__(self, root: Path, seed: int, workload: Workload, run_cli) -> None:
        self.root = root
        self.seed = seed
        self.workload = workload
        self.run_cli = run_cli
        self.per_cycle: dict[Slot, int] = {}
        for slot in workload.slots:
            self.per_cycle[slot] = self.per_cycle.get(slot, 0) + 1
        self.ready: dict[Slot, list[Path]] = {s: [] for s in self.per_cycle}
        self.batches: dict[Slot, int] = {s: 0 for s in self.per_cycle}
        self.family: dict[int, list[list[float]]] = {}
        self.seen: set[bytes] = set()

    def fill(self) -> None:
        """Generate one batch for every slot kind."""
        for slot in self.per_cycle:
            self._batch(slot)

    def next(self, slot: Slot) -> Instance:
        if not self.ready[slot]:
            self._batch(slot)
        path = self.ready[slot].pop(0)
        digest = hashlib.sha256(path.read_bytes()).digest()
        if digest in self.seen:
            raise RuntimeError(f"instance {path} repeats an earlier one")
        self.seen.add(digest)
        return load_instance(path)

    def _batch(self, slot: Slot) -> None:
        b = self.batches[slot]
        self.batches[slot] += 1
        count = self.per_cycle[slot] * self.workload.batch_cycles
        tag = f"{slot.method}-{slot.variant}-d{slot.dim}-n{slot.size}"
        out = self.root / tag / f"b{b}"
        seed = derive_seed(self.seed, self.workload.name, tag, b)
        if slot.method == "l1":
            self._family_batch(slot, out, count, seed)
        else:
            argv = ["gen", "--seed", str(seed), "--count", str(count),
                    "--size", str(slot.size), "--box", BOXES[slot.dim], "--out", str(out)]
            if slot.variant == "kr0":
                argv.append("--balanced")
            code, _ = self.run_cli(argv)
            if code != 0:
                raise RuntimeError(f"gen failed with exit {code}: {argv}")
        self.ready[slot] += sorted(out.glob("measure_*.json"))

    def _family_batch(self, slot: Slot, out: Path, count: int, seed: int) -> None:
        """Measures supported on points of the first L1_TRUNCATE family
        pairs, so the truncated l1 program has an exact solution."""
        if slot.dim not in self.family:
            argv = ["family", "dump", "--count", str(L1_TRUNCATE), "--box", BOXES[slot.dim]]
            code, csv = self.run_cli(argv)
            if code != 0:
                raise RuntimeError(f"family dump failed with exit {code}")
            self.family[slot.dim] = _family_points(csv, slot.dim)
        points = self.family[slot.dim]
        rng = random.Random(seed)
        out.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            support = rng.sample(points, slot.size)
            weights = [rng.uniform(-1.0, 1.0) for _ in support]
            if slot.variant == "kr0":
                mean = sum(weights) / len(weights)
                weights = [w - mean for w in weights]
            doc = {
                "dim": slot.dim,
                "lo": [0.0] * slot.dim,
                "hi": [1.0] * slot.dim,
                "atoms": [{"point": p, "weight": w} for p, w in zip(support, weights)],
            }
            (out / f"measure_{i:04d}.json").write_text(json.dumps(doc) + "\n")
