"""Command-line interface: norms, decompositions, verification, family
inspection, brute-force oracle values, and random instance generation.

Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import NoReturn

from .decompose import (
    AtomicDecomposition,
    decompose_balanced,
    decompose_full,
    decompose_l1_minimal,
    reconstruct,
    verify_bounds,
)
from .family import DEFAULT_OFFSET, FamilyConfig, dump_pairs_csv
from .measures import (
    DiscreteSignedMeasure,
    Domain,
    measure_from_json,
    measure_to_json,
)
from .oracle import oracle_kr, oracle_kr0
from .solver import GAP_TOL, LPSolveError, NormResult, variant_norm

OK, INPUT_ERROR, VERIFY_FAIL = 0, 1, 2


def _fail(message: str, code: int = INPUT_ERROR) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, an input error; argparse's own 2 means a failed
    verification here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"error: {message}\n")


def _load_measure(path: str) -> DiscreteSignedMeasure:
    return measure_from_json(Path(path).read_text())


def _parse_box(spec: str) -> Domain:
    """Parse a box given as comma-separated per-axis 'lo:hi' ranges."""
    lo, hi = [], []
    for axis in spec.split(","):
        bounds = axis.split(":")
        if len(bounds) != 2:
            raise ValueError(f"bad box axis '{axis}', expected lo:hi")
        lo.append(float(bounds[0]))
        hi.append(float(bounds[1]))
    return Domain(tuple(lo), tuple(hi))


def _g17(v: float) -> str:
    return format(v, ".17g")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _norm_payload(result: NormResult, emit: set[str]) -> dict:
    payload: dict = {"value": result.value, "gap": result.gap}
    if "plan" in emit:
        payload["plan"] = [
            {
                "source": list(e.source) if e.source is not None else None,
                "target": list(e.target) if e.target is not None else None,
                "mass": e.mass,
            }
            for e in result.plan.edges
        ]
    if "potential" in emit:
        payload["potential"] = [
            {"point": list(p), "value": v}
            for p, v in zip(result.potential.points, result.potential.values)
        ]
    return payload


def _norm_csv(payload: dict) -> str:
    lines = [f"value,{_g17(payload['value'])}", f"gap,{_g17(payload['gap'])}"]
    for e in payload.get("plan", []):
        src = ";".join(map(_g17, e["source"])) if e["source"] else "bank"
        tgt = ";".join(map(_g17, e["target"])) if e["target"] else "bank"
        lines.append(f"plan,{src},{tgt},{_g17(e['mass'])}")
    for p in payload.get("potential", []):
        lines.append(f"potential,{';'.join(map(_g17, p['point']))},{_g17(p['value'])}")
    return "\n".join(lines) + "\n"


def cmd_norm(args: argparse.Namespace) -> int:
    result = variant_norm(args.variant, _load_measure(args.input))
    emit = set(filter(None, (args.emit or "").split(",")))
    payload = _norm_payload(result, emit)
    text = (
        json.dumps(payload, indent=2) + "\n"
        if args.format == "json"
        else _norm_csv(payload)
    )
    _write_out(text, args.out)
    return OK if result.gap <= args.tol else VERIFY_FAIL


def _dec_to_doc(dec: AtomicDecomposition) -> dict:
    return {
        "variant": dec.variant,
        "method": dec.method,
        "offset": dec.family.offset,
        "terms": [list(t) for t in dec.terms],
        "l1": dec.l1,
        "residual_norm": dec.residual_norm,
        "ratio": dec.ratio,
    }


def _term_from_doc(i: int, term, variant: str) -> tuple[int, float, float]:
    try:
        # older files store kr0 terms as [j, a1]
        j, a1, a2 = (*term, 0.0)[:3] if variant == "kr0" else term
        parsed = (j, float(a1), float(a2))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"decomposition term #{i} is not [j, a1, a2]") from exc
    if type(j) is not int or j < 1:  # a bool, float or string is no pair index
        raise ValueError(f"decomposition term #{i} has pair index {j!r}, not an integer >= 1")
    if variant == "kr0" and parsed[2] != 0.0:
        raise ValueError(f"decomposition term #{i} has a point mass in a kr0 file")
    return parsed


def _dec_from_doc(doc: dict, m: DiscreteSignedMeasure) -> AtomicDecomposition:
    """The file's terms, l1 and stated residual; its norm is left unknown
    (NaN) for the caller to solve."""
    if not isinstance(doc, dict):
        raise ValueError("decomposition file must hold a JSON object")
    for field in ("variant", "terms", "l1", "residual_norm"):
        if field not in doc:
            raise ValueError(f"decomposition file missing field '{field}'")
    variant = doc["variant"]
    if variant not in ("kr0", "kr"):
        raise ValueError("field 'variant' must be 'kr0' or 'kr'")
    if not isinstance(doc["terms"], list):
        raise ValueError("field 'terms' must be a list")
    l1, residual = _number_field(doc, "l1"), _number_field(doc, "residual_norm")
    offset = _number_field(doc, "offset") if "offset" in doc else DEFAULT_OFFSET
    cfg = FamilyConfig(m.domain, offset)
    terms = tuple(_term_from_doc(i, t, variant) for i, t in enumerate(doc["terms"]))
    return AtomicDecomposition(
        cfg, variant, terms, l1, residual, math.nan, m, doc.get("method", "greedy")
    )


def _number_field(doc: dict, field: str) -> float:
    try:
        return float(doc[field])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field '{field}' must be a number") from exc


def cmd_decompose(args: argparse.Namespace) -> int:
    m = _load_measure(args.input)
    cfg = FamilyConfig(m.domain, args.offset)
    if args.method == "l1":
        dec = decompose_l1_minimal(m, args.truncate, args.variant, cfg)
    elif args.variant == "kr0":
        dec = decompose_balanced(m, args.tol, cfg, args.min_depth)
    else:
        dec = decompose_full(m, args.tol, cfg, args.min_depth)
    _write_out(json.dumps(_dec_to_doc(dec), indent=2) + "\n", args.out)
    return OK


def cmd_verify(args: argparse.Namespace) -> int:
    m = _load_measure(args.input)
    dec = _dec_from_doc(json.loads(Path(args.dec).read_text()), m)
    fresh = variant_norm(dec.variant, m - reconstruct(dec)).value
    try:
        l1 = math.fsum(abs(a1) + abs(a2) for _, a1, a2 in dec.terms)
    except OverflowError:
        l1 = math.inf
    if not (l1 < math.inf and abs(dec.l1 - l1) <= 1e-12 * l1):
        # the upper bound would be checked against a sum the terms do not have
        return _fail(
            f"field 'l1' states {dec.l1:.17g} but the terms sum to {l1:.17g}", VERIFY_FAIL
        )
    if fresh > dec.residual_norm + max(args.tol, 1e-6):
        return _fail(
            f"decomposition does not match the measure: certified residual "
            f"{fresh:.3e} exceeds the stated {dec.residual_norm:.3e}"
        )
    # no number is taken from the file: l1 is summed, both norms are solved
    norm = variant_norm(dec.variant, m).value
    dec = replace(dec, l1=l1, residual_norm=fresh, norm=norm)
    report = verify_bounds(
        m, dec, args.tol, ratio_floor=args.ratio_floor, check_terms=args.check_terms
    )
    _write_out(json.dumps(asdict(report), indent=2) + "\n", args.out)
    flags = (report.upper_ok, report.per_term_lower_ok, report.ratio_floor_ok)
    return OK if all(flag for flag in flags if flag is not None) else VERIFY_FAIL


def cmd_family(args: argparse.Namespace) -> int:
    cfg = FamilyConfig(_parse_box(args.box), args.offset)
    _write_out(dump_pairs_csv(cfg, args.count), args.out)
    return OK


def cmd_oracle(args: argparse.Namespace) -> int:
    m = _load_measure(args.input)
    oracle = oracle_kr0 if args.variant == "kr0" else oracle_kr
    print(_g17(oracle(m, args.unit)))
    return OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.size < 1:
        return _fail("support size must be >= 1")
    domain = _parse_box(args.box)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    for i in range(args.count):
        atoms = []
        for _ in range(args.size):
            point = tuple(rng.uniform(lo, hi) for lo, hi in zip(domain.lo, domain.hi))
            atoms.append((point, rng.uniform(-1.0, 1.0)))
        if args.balanced:
            mean = sum(w for _, w in atoms) / len(atoms)
            atoms = [(p, w - mean) for p, w in atoms]
        m = DiscreteSignedMeasure.from_atoms(domain, atoms)
        (out_dir / f"measure_{i:04d}.json").write_text(measure_to_json(m) + "\n")
    print(f"wrote {args.count} measures to {out_dir}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="krdecomp",
        description="Kantorovich-Rubinstein norms and atomic decompositions "
        "of finitely supported signed measures on boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="compute a norm with certificates")
    p.add_argument("--input", required=True)
    p.add_argument("--variant", choices=["kr0", "kr"], default="kr0")
    p.add_argument("--tol", type=float, default=GAP_TOL)
    p.add_argument("--emit", default="", help="comma list of plan,potential")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("decompose", help="decompose a measure into atoms")
    p.add_argument("--input", required=True)
    p.add_argument("--variant", choices=["kr0", "kr"], default="kr0")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--method", choices=["greedy", "l1"], default="greedy")
    p.add_argument("--truncate", type=int, default=64, help="family size for --method l1")
    p.add_argument("--min-depth", type=int, default=0)
    p.add_argument("--offset", type=float, default=DEFAULT_OFFSET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check the bound report of a decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--dec", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--check-terms", type=int, default=0)
    p.add_argument("--ratio-floor", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="inspect the dense pair family")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--box", default="0:1")
    p.add_argument("--offset", type=float, default=DEFAULT_OFFSET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("oracle", help="brute-force norm of a quantized instance")
    p.add_argument("--input", required=True)
    p.add_argument("--variant", choices=["kr0", "kr"], default="kr0")
    p.add_argument("--unit", type=float, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate random measure files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--box", default="0:1,0:1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an exception becomes an exit code:
    an unsolved LP is a failed verification, a bad file or value (unreadable,
    unwritable, malformed or out of range) an input error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LPSolveError as exc:
        return _fail(str(exc), VERIFY_FAIL)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
