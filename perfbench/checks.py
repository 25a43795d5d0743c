"""Output checks for the krdecomp CLI, written with numpy only.

Nothing here imports krdecomp: every check recomputes its quantity from
the instance file and the command's JSON output, so a defect in the
program cannot hide behind shared code.  Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

BALANCE_REL = 1e-9  # plan marginals must match the measure within this * TV
COST_REL = 1e-9  # recomputed plan cost vs the stated value
LIP_SLACK = 1e-12  # witness slope and sup-norm slack above 1
PAIRING_REL = 1e-12  # slack of value - pairing around [0, gap]
CLOSED_FORM_REL = 1e-9  # 1-D kr0 value vs the closed form


def closed_form_kr0_1d(points: np.ndarray, weights: np.ndarray) -> float:
    """1-D balanced norm as the integral of |F_m(t)|, F_m the cumulative
    mass of m up to t (optimal transport on the line)."""
    order = np.argsort(points[:, 0], kind="stable")
    x = points[order, 0]
    cum = np.cumsum(weights[order])
    return math.fsum(np.abs(cum[:-1]) * np.diff(x))


def check_norm(
    points: np.ndarray,
    weights: np.ndarray,
    variant: str,
    out: dict,
    tol: float,
) -> list[str]:
    """Certificate checks on the JSON of `norm --emit plan,potential`."""
    errs: list[str] = []
    value, gap = float(out["value"]), float(out["gap"])
    tv = float(np.abs(weights).sum())
    scale = max(1.0, tv)
    index = {tuple(p): i for i, p in enumerate(points.tolist())}

    net = np.zeros(len(weights))
    cost_terms = []
    for e in out["plan"]:
        src, tgt, mass = e["source"], e["target"], float(e["mass"])
        if mass < 0.0:
            errs.append(f"plan edge with negative mass {mass:.3e}")
        if src is None or tgt is None:
            if variant == "kr0":
                errs.append("bank edge in a kr0 plan")
            cost_terms.append(mass)
        else:
            cost_terms.append(mass * math.dist(src, tgt))
        for end, sign in ((tgt, 1.0), (src, -1.0)):
            if end is None:
                continue
            i = index.get(tuple(end))
            if i is None:
                errs.append(f"plan endpoint {end} is off the support")
            else:
                net[i] += sign * mass
    imbalance = float(np.max(np.abs(net - weights))) if len(weights) else 0.0
    if imbalance > BALANCE_REL * tv:
        errs.append(f"plan misses the marginals by {imbalance:.3e} (TV {tv:.3e})")
    cost = math.fsum(cost_terms)
    if abs(cost - value) > COST_REL * max(1.0, value):
        errs.append(f"plan cost {cost!r} differs from value {value!r}")

    pot = {tuple(p["point"]): float(p["value"]) for p in out["potential"]}
    if set(pot) != set(index):
        errs.append("witness is not given on exactly the support")
        return errs
    f = np.array([pot[tuple(p)] for p in points.tolist()])
    if len(f) > 1:
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(dist, np.inf)
        slope = float(np.max(np.abs(f[:, None] - f[None, :]) / dist))
        if slope > 1.0 + LIP_SLACK:
            errs.append(f"witness slope {slope!r} exceeds 1")
    if variant == "kr" and len(f) and float(np.max(np.abs(f))) > 1.0 + LIP_SLACK:
        errs.append(f"kr witness sup-norm {float(np.max(np.abs(f)))!r} exceeds 1")
    pairing = math.fsum((weights * f).tolist())
    slack = PAIRING_REL * scale
    if not -slack <= value - pairing <= gap + slack:
        errs.append(f"value - pairing = {value - pairing:.3e} outside [0, gap={gap:.3e}]")
    if gap > tol:
        errs.append(f"gap {gap:.3e} exceeds --tol {tol:.1e}")

    if variant == "kr0" and points.shape[1] == 1:
        exact = closed_form_kr0_1d(points, weights)
        if abs(value - exact) > CLOSED_FORM_REL * max(exact, 1e-12):
            errs.append(f"1-D value {value!r} differs from the closed form {exact!r}")
    if variant == "kr" and value > tv * (1.0 + LIP_SLACK):
        errs.append(f"kr value {value!r} exceeds TV {tv!r}")
    return errs


def check_decompose(method: str, doc: dict, tol: float) -> list[str]:
    """The greedy construction must state a residual within --tol."""
    if method == "greedy" and not float(doc["residual_norm"]) <= tol:
        return [f"residual {doc['residual_norm']!r} exceeds --tol {tol:.1e}"]
    return []


def check_verify(out: dict) -> list[str]:
    """`verify --check-terms` must report both bounds as holding."""
    errs = []
    if out.get("upper_ok") is not True:
        errs.append("verify reports upper_ok false")
    if out.get("per_term_lower_ok") is not True:
        errs.append(f"verify reports per_term_lower_ok {out.get('per_term_lower_ok')}")
    return errs


# -- planted defects -------------------------------------------------------


def _dipole_case() -> tuple[np.ndarray, np.ndarray, dict]:
    """1.5*(delta_0.2 - delta_0.7) with its exact plan and witness."""
    points = np.array([[0.2], [0.7]])
    weights = np.array([1.5, -1.5])
    out = {
        "value": 0.75,
        "gap": 0.0,
        "plan": [{"source": [0.7], "target": [0.2], "mass": 1.5}],
        "potential": [{"point": [0.2], "value": 0.25}, {"point": [0.7], "value": -0.25}],
    }
    return points, weights, out


def _bank_case() -> tuple[np.ndarray, np.ndarray, dict]:
    """A unit point mass: kr norm 1, all mass created at the bank."""
    points = np.array([[0.5]])
    weights = np.array([1.0])
    out = {
        "value": 1.0,
        "gap": 0.0,
        "plan": [{"source": None, "target": [0.5], "mass": 1.0}],
        "potential": [{"point": [0.5], "value": 1.0}],
    }
    return points, weights, out


def self_test() -> list[str]:
    """Plant one defect at a time and require each check to flag it.
    Returns the defects that went unflagged (empty when all are caught)."""
    missed = []

    def expect(name: str, errs: list[str], needle: str) -> None:
        if not any(needle in e for e in errs):
            missed.append(f"{name}: got {errs}")

    def expect_clean(name: str, errs: list[str]) -> None:
        if errs:
            missed.append(f"{name}: a correct output was flagged: {errs}")

    for variant in ("kr0", "kr"):
        pts, w, out = _dipole_case()
        expect_clean(f"exact dipole ({variant})", check_norm(pts, w, variant, out, 1e-8))
    pts, w, out = _bank_case()
    expect_clean("exact point mass (kr)", check_norm(pts, w, "kr", out, 1e-8))

    pts, w, out = _dipole_case()
    out["plan"][0]["mass"] -= 1e-6
    expect("plan missing 1e-6 of mass", check_norm(pts, w, "kr0", out, 1e-8), "marginals")

    pts, w, out = _dipole_case()
    out["potential"] = [{"point": [0.2], "value": 0.2525}, {"point": [0.7], "value": -0.2525}]
    expect("1.01-Lipschitz witness", check_norm(pts, w, "kr0", out, 1e-8), "slope")

    pts, w, out = _bank_case()
    out["potential"][0]["value"] = 1.01
    expect("kr witness with |f| = 1.01", check_norm(pts, w, "kr", out, 1e-8), "sup-norm")

    pts, w, out = _dipole_case()
    out["value"] += 1e-6
    expect("1-D value off by 1e-6", check_norm(pts, w, "kr0", out, 1e-8), "closed form")

    pts, w, out = _dipole_case()
    out["plan"].append({"source": None, "target": [0.2], "mass": 0.0})
    expect("bank edge in a kr0 plan", check_norm(pts, w, "kr0", out, 1e-8), "bank edge")

    pts, w, out = _dipole_case()
    out["gap"] = 1e-6
    expect("gap above --tol", check_norm(pts, w, "kr0", out, 1e-8), "exceeds --tol")

    for a, x, y in ((1.5, 0.2, 0.7), (-2.0, 0.9, 0.1), (0.3, 0.0, 1.0)):
        got = closed_form_kr0_1d(np.array([[x], [y]]), np.array([a, -a]))
        if abs(got - abs(a) * abs(x - y)) > 1e-15:
            missed.append(f"closed form of {a}(d_{x} - d_{y}) gave {got!r}")
    got = closed_form_kr0_1d(np.array([[0.0], [0.5], [1.0]]), np.array([1.0, -2.0, 1.0]))
    if abs(got - 1.0) > 1e-15:
        missed.append(f"closed form of d_0 - 2 d_0.5 + d_1 gave {got!r}")

    expect("greedy residual above --tol",
           check_decompose("greedy", {"residual_norm": 2e-4}, 1e-4), "residual")
    expect("verify upper bound failed",
           check_verify({"upper_ok": False, "per_term_lower_ok": True}), "upper_ok")
    expect("verify per-term bound failed",
           check_verify({"upper_ok": True, "per_term_lower_ok": False}), "per_term")
    return missed
