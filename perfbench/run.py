"""krdecomp benchmark: the CLI commands users run, timed end to end.

    python3 perfbench/run.py --workload norm-sweep --seed 1 --seconds 25 --trace 0

Runs `norm`, `decompose` and `verify` as in-process calls to
`krdecomp.cli.main(argv)` on instances made by the program's `gen` and
`family dump` commands from `--seed`.  The load is one client in a closed
loop: one command at a time, the next sent when the previous returns.
Every output is checked (see checks.py) outside the timed region.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced cycles and reports per-layer metrics from
the traced ones (see tracer.py).  The last line of stdout is one JSON
object; the lines before it list the same figures for people.

Run from the root of a source checkout; the package is imported from
./src.  Exit code 1 means the checker self-test or the oracle gate failed.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from calibrate import REF_S, Calibrator, at_reference_speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_TERMS,
    DEFAULT_NORM_TOL,
    L1_TRUNCATE,
    VARIANTS,
    WORKLOADS,
    InstancePool,
    Slot,
    Workload,
    derive_seed,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
ORACLE_UNIT = 0.25
ORACLE_MAX_UNITS = 10  # per side
ORACLE_REL = 1e-9


class Bench:
    """Runs CLI commands in-process and records latencies and failures."""

    def __init__(self, main) -> None:
        self.main = main
        self.tracer: Tracer | None = None
        self.calibrator = Calibrator()
        # per timed command: (command, raw seconds, kernel seconds just before, traced)
        self.records: list[tuple[str, float, float, bool]] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # one message per failed check
        self.norm_gaps: list[float] = []  # gap of each timed norm command that exited 0

    def call(self, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if self.tracer is None:
                code = self.main(argv)
            else:
                code = self.tracer.command(argv[0], self.main, argv)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """An untimed, untraced helper command (gen, family dump)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.main(argv)
        return code, out.getvalue()

    def _timed(self, argv: list[str], record: bool) -> tuple[int, str, str]:
        kernel = self.calibrator.sample() if record else 0.0
        code, out, err, elapsed = self.call(argv)
        if record:
            self.records.append((argv[0], elapsed, kernel, self.tracer is not None))
            self.busy += elapsed
        return code, out, err

    def reference_latencies(self) -> list[float]:
        """Latency of each timed command at reference speed."""
        return at_reference_speed([r[1] for r in self.records], [r[2] for r in self.records])

    def _outcome(self, what: str, errs: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errs)
        self.failures += [f"{what}: {e}" for e in errs]

    def run_slot(self, slot: Slot, pool: InstancePool, record: bool = True) -> None:
        inst = pool.next(slot)
        path, v = str(inst.path), slot.variant
        what = f"{slot.method} {v} d{slot.dim} n{slot.size} {inst.path.relative_to(WORK)}"
        if slot.method == "norm":
            argv = ["norm", "--input", path, "--variant", v, "--tol", repr(slot.tol),
                    "--emit", "plan,potential"]
            code, out, err = self._timed(argv, record)
            if code:
                self._outcome(what, [f"exit {code}: {err.strip()}"])
                return
            doc = json.loads(out)
            if record:
                self.norm_gaps.append(float(doc["gap"]))
            self._outcome(what, checks.check_norm(inst.points, inst.weights, v, doc, slot.tol))
            return
        dec = WORK / "dec.json"
        dec.unlink(missing_ok=True)
        argv = ["decompose", "--input", path, "--variant", v, "--out", str(dec)]
        if slot.method == "greedy":
            argv += ["--tol", repr(slot.tol)]
        else:
            argv += ["--method", "l1", "--truncate", str(L1_TRUNCATE)]
        code, _, err = self._timed(argv, record)
        if code:
            self._outcome(what, [f"decompose exit {code}: {err.strip()}"])
            self._outcome(what, ["verify not run: decompose failed"])
            return
        self._outcome(what, checks.check_decompose(
            slot.method, json.loads(dec.read_text()), slot.tol))
        argv = ["verify", "--input", path, "--dec", str(dec), "--check-terms", str(CHECK_TERMS)]
        code, out, err = self._timed(argv, record)
        errs = [f"verify exit {code}: {err.strip()}"] if code else checks.check_verify(
            json.loads(out))
        self._outcome(what, errs)

    def run_cycle(self, wl: Workload, pool: InstancePool) -> None:
        for slot in wl.slots:
            self.run_slot(slot, pool)


# -- gates run before timing ------------------------------------------------


def oracle_gate(bench: Bench, seed: int) -> list[str]:
    """`norm` must agree with the brute-force `oracle` command on small
    quantized instances, for both variants."""
    rng = random.Random(derive_seed(seed, "oracle"))
    gate = WORK / "oracle"
    gate.mkdir(parents=True)
    errs = []
    for variant in VARIANTS:
        for dim in (1, 2):
            for i in range(2):
                path = gate / f"{variant}-d{dim}-{i}.json"
                path.write_text(json.dumps(_quantized(rng, dim, variant == "kr0")))
                code, out, err, _ = bench.call(
                    ["norm", "--input", str(path), "--variant", variant])
                ocode, oout, oerr, _ = bench.call(
                    ["oracle", "--input", str(path), "--variant", variant,
                     "--unit", repr(ORACLE_UNIT)])
                if code or ocode:
                    errs.append(f"{path.name}: norm exit {code} {err.strip()}, "
                                f"oracle exit {ocode} {oerr.strip()}")
                    continue
                value, exact = json.loads(out)["value"], float(oout)
                if abs(value - exact) > ORACLE_REL * max(1.0, exact):
                    errs.append(f"{path.name}: norm {value!r} vs oracle {exact!r}")
    return errs


def _quantized(rng: random.Random, dim: int, balanced: bool) -> dict:
    """Up to 3 atoms per side, weights multiples of ORACLE_UNIT, at most
    ORACLE_MAX_UNITS units per side."""
    k_pos, k_neg = rng.randint(1, 3), rng.randint(1, 3)
    u_pos = rng.randint(k_pos, ORACLE_MAX_UNITS)
    u_neg = rng.randint(k_neg, ORACLE_MAX_UNITS)
    if balanced:
        u_pos = u_neg = rng.randint(max(k_pos, k_neg), ORACLE_MAX_UNITS)

    def split(units: int, parts: int) -> list[int]:
        counts = [1] * parts
        for _ in range(units - parts):
            counts[rng.randrange(parts)] += 1
        return counts

    counts = split(u_pos, k_pos) + [-c for c in split(u_neg, k_neg)]
    atoms = [
        {"point": [rng.uniform(0.0, 1.0) for _ in range(dim)], "weight": ORACLE_UNIT * c}
        for c in counts
    ]
    return {"dim": dim, "lo": [0.0] * dim, "hi": [1.0] * dim, "atoms": atoms}


# -- set-up -------------------------------------------------------------------


def setup(bench: Bench, wl: Workload, seed: int, k: int) -> tuple[float, InstancePool]:
    """Import the package in a fresh interpreter, generate the first batch
    of instances and run one untimed warm-up pipeline per method and
    variant.  Returns the wall time and the instance pool.

    Set-up is not scaled to reference speed: it is dominated by a child
    interpreter and file writes, which the kernel samples taken in this
    process do not track (scaling widened its spread from 7% to 25%)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import krdecomp.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    pool = InstancePool(WORK / f"setup{k}", seed, wl, bench.cli)
    pool.fill()
    warm_slots = {}
    for slot in wl.slots:
        warm_slots.setdefault((slot.method, slot.variant), slot)
    warm = Workload(f"warm-{wl.name}", tuple(warm_slots.values()), 1, 1)
    warm_pool = InstancePool(WORK / f"warm{k}", seed, warm, bench.cli)
    for slot in warm.slots:
        bench.run_slot(slot, warm_pool, record=False)
    return time.perf_counter() - start, pool


# -- reporting -------------------------------------------------------------------


def _p50_p90(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(bench: Bench, setup_s: float) -> tuple[dict, list[str]]:
    """The gated metrics, and lines for the figures printed beside them:
    p90 and peak RSS spread too widely across seeds to gate (on
    decompose-verify the top decile is about five 40-atom kr0 instances, and
    the peak is set by the single largest residual LP of the run)."""
    everything = bench.reference_latencies()
    p50, p90 = _p50_p90(everything)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(everything) / sum(everything), "unit": "1/s"},
        "p50_ms": {"value": 1e3 * p50, "unit": "ms"},
    }
    kernel = statistics.median(r[2] for r in bench.records)
    lines = [f"commands timed: {len(everything)} over {bench.busy:.2f} s of command time",
             f"reference kernel: median {1e3 * kernel:.3f} ms, reference {1e3 * REF_S:g} ms; "
             f"times below are at reference speed",
             f"p90_ms {1e3 * p90:.3f} ms ({len(everything)} samples)",
             f"peak_rss_mb {peak_rss_mb():.1f} MB"]
    if bench.norm_gaps:
        over = sum(g > DEFAULT_NORM_TOL for g in bench.norm_gaps)
        lines.append(f"norm gaps: max {max(bench.norm_gaps):.3e}; {over} of "
                     f"{len(bench.norm_gaps)} above the program's default --tol "
                     f"{DEFAULT_NORM_TOL:g}")
    for kind in ("norm", "decompose", "verify"):
        lat = [t for t, r in zip(everything, bench.records) if r[0] == kind]
        if len(lat) >= 100:
            q50, q90 = _p50_p90(lat)
            lines += [f"{kind}_p50_ms {1e3 * q50:.3f} ms ({len(lat)} samples)",
                      f"{kind}_p90_ms {1e3 * q90:.3f} ms"]
        elif lat:
            lines += [f"{kind}_p50_ms {1e3 * statistics.median(lat):.3f} ms ({len(lat)} samples)",
                      f"{kind}_p90_ms absent (fewer than 100 samples)"]
        else:
            lines += [f"{kind}_p50_ms absent (workload runs no {kind})",
                      f"{kind}_p90_ms absent (workload runs no {kind})"]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "krdecomp" / "cli.py").is_file():
        print(f"error: no krdecomp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from krdecomp.cli import main as cli_main

    missed = checks.self_test()
    if missed:
        print("error: the output checks missed planted defects:", *missed,
              sep="\n  ", file=sys.stderr)
        return 1

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    bench = Bench(cli_main)
    gate = oracle_gate(bench, args.seed)
    if gate:
        print("error: norm disagrees with the oracle:", *gate, sep="\n  ", file=sys.stderr)
        return 1

    wl = WORKLOADS[args.workload]
    setups = [setup(bench, wl, args.seed, k) for k in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _ in setups)
    pool = setups[-1][1]
    cycles = 0
    if args.trace == 0:
        while cycles < wl.min_cycles or bench.busy < args.seconds:
            bench.run_cycle(wl, pool)
            cycles += 1
        metrics, lines = end_to_end(bench, setup_s)
    else:
        # untraced and traced cycles alternate on distinct instances of the
        # same mix; their command-time ratio is the tracing overhead
        tracer = Tracer()
        while cycles < wl.min_cycles or bench.busy < args.seconds:
            bench.run_cycle(wl, pool)
            tracer.install()
            bench.tracer = tracer
            try:
                bench.run_cycle(wl, pool)
            finally:
                bench.tracer = None
                tracer.uninstall()
            cycles += 2
        scaled = bench.reference_latencies()
        traced_s = sum(t for t, r in zip(scaled, bench.records) if r[3])
        plain_s = sum(t for t, r in zip(scaled, bench.records) if not r[3])
        metrics, absent = tracer.metrics(traced_s / plain_s)
        metrics["proc.peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
        kernel = statistics.median(r[2] for r in bench.records if r[3])
        for m in metrics.values():
            if m["unit"] == "s/cmd":
                m["value"] *= REF_S / kernel
        lines = [f"traced commands: {tracer.commands}; per-layer times are per command, "
                 f"at reference speed (kernel median {1e3 * kernel:.3f} ms)"]
        lines += [f"absent: {name}" for name in absent]
        lines += [f"absent span {s}: {why}" for s, why in tracer.absent.items()]

    fail_frac = bench.failed / bench.attempted
    for msg in bench.failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload {wl.name}, seed {args.seed}, {cycles} cycles of {len(wl.slots)} slots")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {fail_frac:.6g} ratio ({bench.failed} of {bench.attempted})")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
