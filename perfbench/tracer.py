"""Per-layer tracing of krdecomp from outside the package.

While installed, the tracer replaces public functions at each module
boundary with wrappers that open a span, call the original, close the span
and return the original's result unchanged.  Every krdecomp module whose
global name is bound to a traced function gets the wrapper, so calls made
through `from .solver import kr0_norm` are traced too.  A traced name that
no longer exists is skipped and the metrics that depend only on it are
reported absent.

Spans are folded into per-name totals as they close (duration, self time
= duration minus the time covered by direct children, call count), because
a traced small-deep run opens over 10^5 of them.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

MODULES = ("cli", "decompose", "family", "measures", "oracle", "solver")

# span name -> (defining module, attribute path)
TARGETS = {
    "solver.linprog": ("solver", "linprog"),
    "solver.kr0_norm": ("solver", "kr0_norm"),
    "solver.kr_norm": ("solver", "kr_norm"),
    "solver.kr0_dual": ("solver", "kr0_dual"),
    "solver.kr_dual": ("solver", "kr_dual"),
    "solver.lipschitz_seminorm": ("solver", "lipschitz_seminorm"),
    "family.nearest_family_point": ("family", "nearest_family_point"),
    "family.family_pair": ("family", "family_pair"),
    "decompose.decompose_balanced": ("decompose", "decompose_balanced"),
    "decompose.decompose_full": ("decompose", "decompose_full"),
    "decompose.decompose_l1_minimal": ("decompose", "decompose_l1_minimal"),
    "decompose.reconstruct": ("decompose", "reconstruct"),
    "decompose.verify_bounds": ("decompose", "verify_bounds"),
    "decompose.verify_term_lower_bound": ("decompose", "verify_term_lower_bound"),
    "measures.from_atoms": ("measures", "DiscreteSignedMeasure.from_atoms"),
    "measures.measure_from_json": ("measures", "measure_from_json"),
}
ROOT = "cli.main"
NORMS = ("solver.kr0_norm", "solver.kr_norm")
DECOMPOSERS = (
    "decompose.decompose_balanced",
    "decompose.decompose_full",
    "decompose.decompose_l1_minimal",
)

# Per-layer metrics: name -> (unit, how, span names).  `how` selects the
# span total: "time" (duration), "self" (self time), "calls", or a counter
# name recorded by a hook.  Times and counts are per traced CLI command.
METRICS = {
    "solver.highs_s": ("s/cmd", "time", ("solver.linprog",)),
    "solver.highs_calls": ("count/cmd", "calls", ("solver.linprog",)),
    "solver.highs_iters": ("count/cmd", "nit", ("solver.linprog",)),
    "solver.lp_rows": ("count/cmd", "rows", ("solver.linprog",)),
    "solver.lp_nnz": ("count/cmd", "nnz", ("solver.linprog",)),
    "solver.dual_s": ("s/cmd", "time", ("solver.kr0_dual", "solver.kr_dual")),
    "solver.assembly_s": ("s/cmd", "self", NORMS),
    "solver.certify_s": ("s/cmd", "time", ("solver.lipschitz_seminorm",)),
    "solver.witness_lip_max": ("ratio", "lip_max", ("solver.lipschitz_seminorm",)),
    "solver.norm_calls": ("count/cmd", "calls", NORMS),
    "solver.distinct_measure_ratio": ("ratio", "distinct", NORMS),
    "decompose.residual_s": ("s/cmd", "residual_s", NORMS + DECOMPOSERS),
    "decompose.residual_atoms": ("count/cmd", "residual_atoms", NORMS + DECOMPOSERS),
    "decompose.chain_s": (
        "s/cmd", "self", ("decompose.decompose_balanced", "decompose.decompose_full"),
    ),
    "decompose.terms": ("count/cmd", "terms", DECOMPOSERS),
    "decompose.l1_s": ("s/cmd", "self", ("decompose.decompose_l1_minimal",)),
    "decompose.reconstruct_calls": ("count/cmd", "calls", ("decompose.reconstruct",)),
    "decompose.reconstruct_s": ("s/cmd", "time", ("decompose.reconstruct",)),
    "decompose.verify_bounds_s": ("s/cmd", "time", ("decompose.verify_bounds",)),
    "decompose.term_check_s": ("s/cmd", "time", ("decompose.verify_term_lower_bound",)),
    "family.nearest_calls": ("count/cmd", "calls", ("family.nearest_family_point",)),
    "family.nearest_s": ("s/cmd", "time", ("family.nearest_family_point",)),
    "family.pair_calls": ("count/cmd", "calls", ("family.family_pair",)),
    "family.pair_s": ("s/cmd", "time", ("family.family_pair",)),
    "measures.from_atoms_calls": ("count/cmd", "calls", ("measures.from_atoms",)),
    "measures.from_atoms_s": ("s/cmd", "time", ("measures.from_atoms",)),
    "measures.from_json_s": ("s/cmd", "time", ("measures.measure_from_json",)),
    "cli.self_s": ("s/cmd", "self", (ROOT,)),
}

# Spans whose self time some metric above reports; the rest of a command's
# time is `trace.unattributed_s`.
SELF_TIME_SPANS = (
    (ROOT, "solver.linprog", "solver.lipschitz_seminorm", "family.nearest_family_point",
     "family.family_pair", "measures.from_atoms")
    + NORMS
    + DECOMPOSERS
)


@dataclass
class _Frame:
    name: str
    start: float
    arg: object = None  # the measure a norm or decompose call received
    children: float = 0.0


@dataclass
class _Totals:
    time: float = 0.0
    own: float = 0.0  # self time
    calls: int = 0


class Tracer:
    """Span totals for the commands run while installed."""

    def __init__(self) -> None:
        self.totals: dict[str, _Totals] = {}
        self.counters: dict[str, float] = {}
        self.absent: dict[str, str] = {}  # span name -> reason
        self.commands = 0
        self.command_kinds: dict[str, float] = {}  # kind -> total seconds
        self._stack: list[_Frame] = []
        self._patches: list = []
        self._solved: set = set()  # (norm, measure) pairs of the current command

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {}
        for name in MODULES:
            try:
                mods[name] = importlib.import_module(f"krdecomp.{name}")
            except ImportError:
                continue
        for span, (home, path) in TARGETS.items():
            owner = mods.get(home)
            if owner is None:
                self.absent[span] = f"module krdecomp.{home} not found"
                continue
            if "." in path:
                self._install_classmethod(span, owner, path)
                continue
            original = getattr(owner, path, None)
            if not callable(original):
                self.absent[span] = f"krdecomp.{home}.{path} not found"
                continue
            wrapper = self._wrap(span, original)
            for mod in mods.values():
                if getattr(mod, path, None) is original:
                    self._patches.append((mod, path, original))
                    setattr(mod, path, wrapper)

    def _install_classmethod(self, span: str, owner, path: str) -> None:
        cls_name, attr = path.split(".")
        cls = getattr(owner, cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if not isinstance(original, classmethod):
            self.absent[span] = f"krdecomp.{owner.__name__}.{path} not found"
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, classmethod(self._wrap(span, original.__func__)))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _close(self, frame: _Frame) -> float:
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += dur
        t = self.totals.get(frame.name)
        if t is None:
            t = self.totals[frame.name] = _Totals()
        t.time += dur
        t.own += dur - frame.children
        t.calls += 1
        return dur

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, span: str, fn):
        tracer = self
        before, after = _HOOKS.get(span, (None, None))

        def wrapper(*args, **kwargs):
            frame = _Frame(span, 0.0)
            if before is not None:
                before(tracer, frame, args, kwargs)
            tracer._stack.append(frame)
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame)
            if after is not None:
                after(tracer, frame, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def command(self, kind: str, main, argv: list[str]) -> int:
        """Run one CLI command as the root span of its own trace."""
        self._solved = set()
        frame = _Frame(ROOT, 0.0)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        try:
            return main(argv)
        finally:
            dur = self._close(frame)
            self.commands += 1
            self.command_kinds[kind] = self.command_kinds.get(kind, 0.0) + dur
            self._count("distinct", len(self._solved))

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_frac: float) -> tuple[dict, list[str]]:
        """(metrics in the output schema, names reported absent)."""
        n = max(self.commands, 1)
        out, absent = {}, []
        for name, (unit, how, spans) in METRICS.items():
            present = [s for s in spans if s not in self.absent]
            if not present:
                absent.append(name)
                out[name] = {"value": 0.0, "unit": unit}
                continue
            tots = [self.totals.get(s, _Totals()) for s in present]
            if how == "time":
                value = sum(t.time for t in tots) / n
            elif how == "self":
                value = sum(t.own for t in tots) / n
            elif how == "calls":
                value = sum(t.calls for t in tots) / n
            elif how == "lip_max":
                value = self.counters.get("lip_max", 0.0)
            elif how == "distinct":
                calls = sum(t.calls for t in tots)
                value = self.counters.get("distinct", 0.0) / calls if calls else 0.0
            else:
                value = self.counters.get(how, 0.0) / n
            out[name] = {"value": value, "unit": unit}
        total = self.totals.get(ROOT, _Totals()).time
        named_self = sum(self.totals[s].own for s in SELF_TIME_SPANS if s in self.totals)
        out["trace.unattributed_s"] = {"value": (total - named_self) / n, "unit": "s/cmd"}
        for kind in ("norm", "decompose", "verify"):
            out[f"cli.{kind}_s"] = {"value": self.command_kinds.get(kind, 0.0) / n, "unit": "s/cmd"}
        out["trace.commands"] = {"value": self.commands, "unit": "count"}
        out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
        return out, absent


# -- hooks: counters that need a call's arguments or result ----------------


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _lp_after(tracer, frame, args, kwargs, res, dur):
    rows = nnz = 0
    for pos, key in ((1, "A_ub"), (3, "A_eq")):
        a = _arg(args, kwargs, pos, key)
        if a is not None:
            rows += a.shape[0]
            nnz += a.nnz if hasattr(a, "nnz") else int((a != 0).sum())
    tracer._count("rows", rows)
    tracer._count("nnz", nnz)
    tracer._count("nit", getattr(res, "nit", 0) or 0)


def _norm_before(tracer, frame, args, kwargs):
    m = _arg(args, kwargs, 0, "m")
    frame.arg = m
    tracer._solved.add((frame.name, m))


def _norm_after(tracer, frame, args, kwargs, res, dur):
    # a residual solve: a norm called by a decomposer on a measure other
    # than the one it was asked to decompose
    parent = tracer._stack[-1] if tracer._stack else None
    if parent is not None and parent.name in DECOMPOSERS and frame.arg != parent.arg:
        tracer._count("residual_s", dur)
        tracer._count("residual_atoms", len(frame.arg))


def _decompose_before(tracer, frame, args, kwargs):
    frame.arg = _arg(args, kwargs, 0, "m")


def _decompose_after(tracer, frame, args, kwargs, res, dur):
    parent = tracer._stack[-1] if tracer._stack else None
    if parent is None or parent.name not in DECOMPOSERS:
        tracer._count("terms", len(res.terms))


def _lip_after(tracer, frame, args, kwargs, res, dur):
    tracer.counters["lip_max"] = max(tracer.counters.get("lip_max", 0.0), float(res))


_HOOKS = {
    "solver.linprog": (None, _lp_after),
    "solver.kr0_norm": (_norm_before, _norm_after),
    "solver.kr_norm": (_norm_before, _norm_after),
    "solver.lipschitz_seminorm": (None, _lip_after),
    "decompose.decompose_balanced": (_decompose_before, _decompose_after),
    "decompose.decompose_full": (_decompose_before, _decompose_after),
    "decompose.decompose_l1_minimal": (_decompose_before, _decompose_after),
}
