"""Independent checks of the outputs of each workload's jobs.

Every check returns a list of problems (empty when the output is right).
The expected values come from closed forms, properties the method must
have, or an independent evaluation written here -- never from a stored copy
of earlier output.  ``selftest.py`` feeds each check a corrupted output and
asserts that it is rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ------------------------------------------------------------------- model

# Dimensionless entropy coefficients in closed form: a3' = 25/21 (published),
# the quartic pair 125/784 and 425/196, and the degree-5/6 values as integer
# multiples of C6 = 125/98882784.  Signs follow the convention of
# kkls.entropy.EntropyCoefficients (a_i = -kT a_i').
C6 = Fraction(125, 98882784)
ENTROPY_PRIMED = {
    "a3": Fraction(25, 21), "a4": Fraction(125, 784), "b4": Fraction(-425, 196),
    "a5": -546000 * C6, "b5": 2175264 * C6,
    "a6": 419600 * C6, "b6": -3099312 * C6, "c6": -716640 * C6,
    "d6": -612405 * C6,
}


def quadratic_coeffs(T, U0, lam):
    """(alpha, beta, gamma) of the physical model at temperature T."""
    l1, l2, l3 = lam
    alpha = 2.5 * T - 0.5 * U0 * (0.25 * l1 + 0.25 * l2 + l3)
    beta = 2.5 * T - 0.375 * U0 * (l1 + l2)
    gamma = -(math.sqrt(3.0) / 8.0) * U0 * (l1 - l2)
    return alpha, beta, gamma


def free_energy_pointwise(T, U0, lam, invariants):
    """The degree-6 free energy as a function of (s, p, d, c), evaluated
    through ``invariants.eval_basis_r4`` rather than the series code."""
    alpha, beta, gamma = quadratic_coeffs(T, U0, lam)
    k = {name: -T * float(v) for name, v in ENTROPY_PRIMED.items()}

    def energy(w):
        s, p, d, c = w
        f = invariants.eval_basis_r4(invariants.OrderParams(s, p, d, c))
        return (alpha * (s * s + p * p) + beta * (d * d + c * c)
                + 2.0 * gamma * (s * d + p * c)
                + k["a3"] * f.f3 + k["a4"] * f.f4 + k["b4"] * f.f2 ** 2
                + k["a5"] * f.f5 + k["b5"] * f.f2 * f.f3
                + k["a6"] * f.f6 + k["b6"] * f.f2 ** 3 + k["c6"] * f.f3 ** 2
                + k["d6"] * f.f2 * f.f4)

    return energy


def central_gradient(energy, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    grad = np.empty(4)
    for i in range(4):
        step = np.zeros(4)
        step[i] = h
        grad[i] = (energy(w + step) - energy(w - step)) / (2.0 * h)
    return grad


def left_d3():
    """The six matrices of the left triangle action on (s, p, d, c)."""
    out = []
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    for k in range(3):
        c, s = math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)
        rot = np.kron(np.eye(2), np.array([[c, -s], [s, c]]))
        out += [rot, rot @ flip]
    return out


GRADIENT_TOL = 1e-9
CLOSURE_TOL = 1e-7
MATCH_TOL = 1e-6


def check_model(job, classify, reduced, points, fixed_points, invariants, radius):
    """classify: the classify.json payload; reduced: reduced_coeffs.json;
    points: list of (s, p, d, c) from critical_points_4d.csv;
    fixed_points: list of W from solve_fixed_point; radius: the search
    radius of solve4d.  Completeness, hence D3 closure, is promised only
    inside the seed ball: points found beyond it (solve4d keeps them up to
    4x the radius) may be single members of their orbits."""
    problems = []
    T, Tc, xi = job["T"], job["Tc"], job["xi"]
    if (classify["classification"] == "stable") != (T > Tc):
        problems.append(f"classify says {classify['classification']!r} at "
                        f"T - Tc = {T - Tc:+.2e}")
    e3 = T * 25.0 / 21.0 * math.sin(3.0 * xi)
    if abs(reduced["e3"] - e3) > 1e-9 * max(1.0, abs(e3)):
        problems.append(f"reduce e3 = {reduced['e3']!r}, closed form {e3!r}")
    energy = free_energy_pointwise(T, 1.0, job["lam"], invariants)
    pts = [np.asarray(p, dtype=float) for p in points]
    for p in pts:
        g = np.linalg.norm(central_gradient(energy, p))
        if g > GRADIENT_TOL:
            problems.append(f"gradient {g:.2e} at critical point {p.tolist()}")
    inside = [p for p in pts if np.linalg.norm(p) <= radius]
    for p in inside:
        for g in left_d3():
            if min((np.linalg.norm(g @ p - q) for q in pts), default=np.inf) > CLOSURE_TOL:
                problems.append(f"point set not closed under D3 at {p.tolist()}")
                break
    small = [p for p in pts if 1e-4 < np.linalg.norm(p) <= 0.05]
    if not small:
        problems.append("no critical point with 1e-4 < |W| <= 0.05 near the cone")
    for p in small:
        gap = min((np.linalg.norm(p - np.asarray(w)) for w in fixed_points),
                  default=np.inf)
        if gap > MATCH_TOL:
            problems.append(f"critical point {p.tolist()} has no fixed-point "
                            f"solution within {MATCH_TOL} (nearest {gap:.2e})")
    return problems


# ---------------------------------------------------------------- geometry

def axis_poly(nf):
    """F(x) with p'(x) = x F(x) on the axis u = 0 (e6 = e8 = 0)."""
    return np.array([2 * nf["e2"], 3 * nf["e3"], 4 * nf["e4"], 5 * nf["e5"],
                     6 * (nf["m"] + nf["n"])])


def planar_gradient(nf, x, u):
    """Gradient of P(X, Y) at X = x^2 + u^2, Y = x^3 - 3 x u^2."""
    X, Y = x * x + u * u, x ** 3 - 3 * x * u * u
    px = nf["e2"] + 2 * nf["e4"] * X + nf["e5"] * Y + 3 * nf["m"] * X * X
    py = nf["e3"] + nf["e5"] * X + 2 * nf["n"] * Y
    scale = (abs(nf["e2"]) + 2 * abs(nf["e4"] * X) + abs(nf["e5"] * Y)
             + 3 * abs(nf["m"]) * X * X + abs(nf["e3"]) + 2 * abs(nf["n"] * Y))
    grad = (px * 2 * x + py * 3 * (x * x - u * u), px * 2 * u - py * 6 * x * u)
    return grad, scale * max(1.0, X)


def b1_e2(nf):
    """e2 of the biaxial double fold (B1 line) at the family's e3."""
    e3, e4, e5, m, n = nf["e3"], nf["e4"], nf["e5"], nf["m"], nf["n"]
    return (e3 * e5 + (4 * n * e4 - e5 ** 2) ** 2 / (24 * n * m)) / (2 * n)


ROOT_TOL = 1e-9
EVENT_TOL = 1e-6


def check_solve(nf, uniaxial, biaxial):
    """uniaxial: x per uniaxial.csv row; biaxial: (x_rep, u_rep) per row."""
    problems = []
    for x, u in [(x, 0.0) for x in uniaxial] + list(biaxial):
        grad, scale = planar_gradient(nf, x, u)
        if math.hypot(*grad) > ROOT_TOL * scale:
            problems.append(f"solve point ({x!r}, {u!r}) has gradient {grad}")
    return problems


def check_bifset(nf, rows):
    """rows: (kind, parameter, e2, e3) from bifurcation_set.csv."""
    problems = []
    kinds = {kind for kind, *_ in rows}
    for kind in ("swallowtail_S", "bluebird_B0_plus", "bluebird_B0_minus"):
        if kind not in kinds:
            problems.append(f"bifurcation set has no {kind} rows")
    for kind, par, e2, e3 in rows:
        here = {**nf, "e2": e2, "e3": e3}
        if kind == "swallowtail_S":
            f = axis_poly(here)
            df = np.polynomial.polynomial.polyder(f)
            for name, c in (("F", f), ("F'", df)):
                value = np.polynomial.polynomial.polyval(par, c)
                size = np.polynomial.polynomial.polyval(abs(par), np.abs(c))
                if abs(value) > ROOT_TOL * max(1.0, size):
                    problems.append(f"S row x={par!r}: {name} = {value:.2e}")
        elif kind.startswith("bluebird_B0"):
            X = par
            Y = -(e3 + nf["e5"] * X) / (2 * nf["n"])
            if abs(X ** 3 - Y * Y) > ROOT_TOL * max(X ** 3, 1e-12):
                problems.append(f"B0 row X={X!r}: X^3 - Y^2 = {X ** 3 - Y * Y:.2e}")
            # X is also a root of the biaxial radius quadratic at (e2, e3)
            n, e5 = nf["n"], nf["e5"]
            terms = (2 * n * e2, -e3 * e5, (4 * n * nf["e4"] - e5 ** 2) * X,
                     6 * n * nf["m"] * X * X)
            if abs(sum(terms)) > ROOT_TOL * max(1.0, sum(map(abs, terms))):
                problems.append(f"B0 row X={X!r}: radius quadratic = {sum(terms):.2e}")
    return problems


def check_census(rows, expected_cells, oracle_counts):
    """rows: (e2, e3, uni, biax, total) from census.csv; oracle_counts maps
    a row index to the dense-grid critical-point count of that cell."""
    problems = []
    if len(rows) != expected_cells:
        problems.append(f"census has {len(rows)} cells, expected {expected_cells}")
    for e2, e3, uni, biax, total in rows:
        if total != 1 + 3 * uni + 6 * biax:
            problems.append(f"census cell ({e2!r}, {e3!r}) total {total} "
                            f"!= 1 + 3*{uni} + 6*{biax}")
            break
    for index, count in oracle_counts.items():
        if rows[index][4] != count:
            problems.append(f"census cell {index} total {rows[index][4]}, "
                            f"dense-grid count {count}")
    return problems


def check_sweep(sweep, events):
    """sweep: the affine path (e2 from e2_start to e2_end over [0, 1], the
    other coefficients constant); events: sweep_events.json events."""
    problems = []
    e2a, e2b = sweep["e2_start"], sweep["e2_end"]
    targets = {"biaxial_double_fold": (b1_e2(sweep) - e2a) / (e2b - e2a),
               "origin stability change": (0.0 - e2a) / (e2b - e2a)}
    for what, t in targets.items():
        if what == "biaxial_double_fold":
            hits = [e for e in events if e["kind"] == what]
        else:
            hits = [e for e in events if e["changes"][2]]
        if not any(abs(e["t"] - t) <= EVENT_TOL for e in hits):
            found = [round(e["t"], 9) for e in hits]
            problems.append(f"no {what} event at t = {t!r} (found {found})")
    if any(e["ambiguous"] for e in events):
        problems.append("sweep reports an ambiguous event")
    return problems


# ------------------------------------------------------------------- exact

HILBERT = {
    # group: (numerator exponents, denominator exponents); the numerator
    # is the product of (1 + t^k), the denominator of (1 - t^k)
    "d3": ((), (2, 3)),
    "d3tilde": ((5,), (2, 3, 4, 6)),
    "d3xd3": ((5, 6), (2, 3, 4, 6)),
}


def hilbert_series(group, max_degree):
    """Coefficients 0..max_degree of the closed-form Hilbert series."""
    numer, denom = HILBERT[group]
    coeffs = [1] + [0] * max_degree
    for k in numer:
        coeffs = [c + (coeffs[d - k] if d >= k else 0)
                  for d, c in enumerate(coeffs)]
    for k in denom:
        for d in range(k, max_degree + 1):
            coeffs[d] += coeffs[d - k]
    return coeffs


def check_reduction(report):
    problems = []
    if report.max_mixed_coeff != 0:
        problems.append(f"mixed coefficient {report.max_mixed_coeff!r} survives")
    if report.residual_match_error != 0:
        problems.append(f"residual mismatch {report.residual_match_error!r}")
    if not report.quadratic_ok:
        problems.append("quadratic part is not 2 mu (y^2 + v^2)")
    if report.quartic_shear_residual_shift != 0:
        problems.append("quartic shear shifts the residual")
    if report.mixed_offenders:
        problems.append(f"{len(report.mixed_offenders)} mixed offenders listed")
    return problems


def check_molien(group, max_degree, rows, coefficients):
    """rows: (degree, coefficient) from the CSV; coefficients: the JSON list."""
    expected = hilbert_series(group, max_degree)
    problems = []
    if [c for _, c in rows] != expected or [d for d, _ in rows] != list(range(max_degree + 1)):
        problems.append(f"molien {group} CSV {[c for _, c in rows]} != {expected}")
    if coefficients != expected:
        problems.append(f"molien {group} JSON {coefficients} != {expected}")
    return problems


# Verdicts of criteria 9 and 10 for a generic germ m X^3 + n Y^2: the 6-jet
# certificate fails at degree 8 (witness X Y^2), the 8-jet one holds; the
# full family is versal and dropping X^2, X^3 or X^4 breaks it at weighted
# degree 4, 6 or 8.
VERSAL_FAMILY = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (4, 0))
VERSAL_BREAKS = {None: None, (2, 0): 4, (3, 0): 6, (4, 0): 8}


def check_determinacy(k, verdict):
    expected = (True, None) if k == 8 else (False, 8)
    got = (verdict["holds_on_window"], verdict["witness_degree"])
    return [] if got == expected else [f"determinacy k={k}: {got} != {expected}"]


def check_versal(dropped, verdict):
    degree = VERSAL_BREAKS[dropped]
    expected = (degree is None, degree)
    got = (verdict["versal_on_window"], verdict["failing_degree"])
    return [] if got == expected else [f"versal without {dropped}: {got} != {expected}"]
