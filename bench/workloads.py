"""The three workloads: seeded job draws, the program calls each job makes,
and the checks of what those calls wrote.

Every job of a workload is the same kind of job on different inputs.  A job
gets its own output directory; ``run`` makes the program calls (timed by
the caller) and ``check`` reads the outputs afterwards (not timed).
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from kkls import cli, critpoints, entropy, invariants, landau, reduction
from kkls.invariants import LandauCoeffs


class JobFailed(Exception):
    """A program call exited with a nonzero code."""


def _cli(*argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise JobFailed(f"kkls {argv[0]} exited with code {code}")


def _write_config(path, sections):
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text):
    """A CSV float.  Under numpy 2 the CLI writes numpy scalars as
    ``np.float64(<repr>)``; the value inside is the full repr, so it is
    read as that float (the format fault is a FOUND line in CHANGES.md)."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------------- model
#
# One physical model near the isotropic instability per job.  The cone angle
# keeps |sin 3 xi| >= cos(0.6) ~ 0.83, so the cubic term is strong and the
# small critical points stay inside |W| <~ 0.02, where the degree-6
# polynomial and the untruncated fixed point agree to 1e-6.  Each round has
# one job below and one above the cone temperature.

MODEL_RADIUS = 0.15


def draw_model(rng, slot):
    xi = math.pi / 6 + rng.randrange(3) * math.pi / 3 + rng.uniform(-0.2, 0.2)
    tc = rng.uniform(0.13, 0.16)
    side = 1.0 if slot % 2 else -1.0
    T = tc + side * rng.uniform(0.0004, 0.0012)
    lam = landau.cone_point(tc, xi, 1.0).lam
    return {"xi": xi, "Tc": tc, "T": T, "lam": list(lam)}


def run_model(job, out):
    cfg = out / "model.cfg"
    _write_config(cfg, {
        "model": {"T": repr(job["T"]), "U0": "1.0",
                  "lambda": ", ".join(repr(v) for v in job["lam"])},
        "solver": {"search_radius": MODEL_RADIUS, "grid_n": 5, "tol": 1e-12},
        "reduction": {"xi": repr(job["xi"])},
    })
    for command in ("classify", "solve4d", "reduce"):
        _cli(command, "--config", cfg, "--out", out)
    # self-consistency cross-check: B W(eta) = kT eta seeded at 5x the small
    # critical points of the degree-6 polynomial
    points = _model_points(out)
    small = [p for p in points if 1e-4 < np.linalg.norm(p) <= 0.05]
    alpha, beta, gamma = landau.coeffs_from_Tlambda(
        landau.ConeParams(T=job["T"], U0=1.0, lam=tuple(job["lam"])))
    sols = landau.solve_fixed_point(alpha, beta, gamma, job["T"],
                                    entropy.default_quadrature(),
                                    seeds=[np.zeros(4)] + [5.0 * p for p in small])
    return [w for _, w in sols]


def _model_points(out):
    return [np.array([_num(r[k]) for k in "spdc"])
            for r in _read_csv(out / "critical_points_4d.csv")]


def check_model(job, out, fixed_points):
    return checks.check_model(job, _read_json(out / "classify.json"),
                              _read_json(out / "reduced_coeffs.json"),
                              _model_points(out), fixed_points, invariants,
                              MODEL_RADIUS)


# ---------------------------------------------------------------- geometry
#
# One normal-form family (e4 < 0, e5, m, n > 0) per job.  The constant e3 of
# the sweep is 40-60 % of the smaller of two limits: the B1 segment's reach
# (so the sweep crosses the biaxial double fold) and the e3 of the
# swallowtail/bluebird contact points (where a fold and a B0 crossing meet).
# With the family ranges below that keeps |e3| >= 0.035, so the axis fold at
# e2 ~ 9 e3^2 / (32 e4) lies several merge windows (span * 1e-4) away from
# the origin flip at e2 = 0; see the sweep merge-window FOUND line.

GRID = 61
SWEEP_STEPS = 241
CENSUS_PROBES = 3
# The dense-grid oracle's seed spacing (0.03) must resolve critical points
# lying close together; its default 41x41 grid over radius 2 misses pairs
# 0.07 from the origin.  Critical points of these families lie within 1.
ORACLE_RADIUS, ORACLE_GRID = 1.5, 101


def _e3_limit(e4, e5, m, n):
    a, b, c = 24 * m + 18 * n, 12 * e5, 8 * e4
    root = math.sqrt(b * b - 4 * a * c)
    contact = [abs(e5 * x * x + 2 * n * x ** 3)
               for x in ((-b + root) / (2 * a), (-b - root) / (2 * a))]
    x_star = -(4 * n * e4 - e5 ** 2) / (12 * n * m)
    return min(2 * n * x_star ** 1.5 - abs(e5) * x_star, *contact), x_star


def draw_geometry(rng, slot):
    e4, e5 = -rng.uniform(0.8, 1.2), rng.uniform(-0.15, 0.15)
    m, n = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    limit, x_star = _e3_limit(e4, e5, m, n)
    e3 = rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 0.6) * limit
    family = {"e2": 0.0, "e3": e3, "e4": e4, "e5": e5, "m": m, "n": n}
    b1 = checks.b1_e2(family)
    scale = checks.b1_e2({**family, "e3": 0.0})
    e3_reach = 2 * n * x_star ** 1.5
    return {
        "family": family,
        "solve_e2": 0.5 * b1,
        "census": {"e2_min": -0.5 * scale, "e2_max": 1.5 * scale,
                   "e3_min": -1.5 * e3_reach, "e3_max": 1.5 * e3_reach},
        "sweep": {**family, "e2_start": b1 + 0.5 * scale, "e2_end": -0.5 * scale},
        "probes": [rng.randrange(GRID * GRID) for _ in range(CENSUS_PROBES)],
    }


def run_geometry(job, out):
    fam, census, sweep = job["family"], job["census"], job["sweep"]
    coeffs = {k: repr(fam[k]) for k in ("e3", "e4", "e5", "m", "n")}
    _write_config(out / "nf.cfg", {
        "normal_form": {"e2": repr(job["solve_e2"]), **coeffs},
        "bifset": {"x_max": 1.0, "num": 601},
        "census": {**{k: repr(v) for k, v in census.items()},
                   "e2_steps": GRID, "e3_steps": GRID},
    })
    _write_config(out / "sweep.cfg", {"sweep": {
        "kind": "affine", "t_min": 0.0, "t_max": 1.0, "steps": SWEEP_STEPS,
        "e2": f"{sweep['e2_start']!r}:{sweep['e2_end']!r}", **coeffs}})
    for command in ("solve", "bifset", "census"):
        _cli(command, "--config", out / "nf.cfg", "--out", out)
    _cli("sweep", "--config", out / "sweep.cfg", "--out", out)
    return None


def check_geometry(job, out, _):
    fam = job["family"]
    solve_nf = {**fam, "e2": job["solve_e2"]}
    problems = checks.check_solve(
        solve_nf,
        [_num(r["x"]) for r in _read_csv(out / "uniaxial.csv")],
        [(_num(r["x_rep"]), _num(r["u_rep"])) for r in _read_csv(out / "biaxial.csv")])
    problems += checks.check_bifset(
        fam, [(r["kind"], _num(r["parameter"]), _num(r["e2"]), _num(r["e3"]))
              for r in _read_csv(out / "bifurcation_set.csv")])
    rows = [(_num(r["e2"]), _num(r["e3"]), int(r["uniaxial_pts"]),
             int(r["biaxial_orbits"]), int(r["total_critical_pts"]))
            for r in _read_csv(out / "census.csv")]
    oracle = {}
    for index in job["probes"]:
        if index < len(rows):
            nf = critpoints.NormalFormParams(
                e2=rows[index][0], e3=rows[index][1], e4=fam["e4"],
                e5=fam["e5"], m=fam["m"], n=fam["n"])
            oracle[index] = len(critpoints.dense_grid_critical_points(
                nf, radius=ORACLE_RADIUS, grid_n=ORACLE_GRID))
    problems += checks.check_census(rows, GRID * GRID, oracle)
    problems += checks.check_sweep(job["sweep"],
                                   _read_json(out / "sweep_events.json")["events"])
    return problems


# ------------------------------------------------------------------- exact
#
# Each job: one exact reduction on a rational draw with the distribution of
# acceptance criterion 4, one Molien series, and the determinacy and
# versality certificates of the germ m X^3 + n Y^2.  A round covers the
# three groups at a low (8-16) and a high (17-24) degree.

GROUPS = ("d3", "d3xd3", "d3tilde")
EXACT_ROUND = 2 * len(GROUPS)


def _draw_reduction(rng):
    def f():
        return Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 5, 8]))
    lc = {k: f() for k in ("a3", "a4", "b4", "a5", "b5", "a6", "b6", "c6", "d6")}
    mu = (f() or Fraction(1)) + Fraction(1, 7)
    tangent = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return lc, mu, tangent


def draw_exact(rng, slot):
    lc, mu, tangent = _draw_reduction(rng)
    degree = rng.randint(8, 16) if slot < len(GROUPS) else rng.randint(17, 24)
    while True:
        m, n = rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((-1, 1)) * rng.randint(1, 5)
        if m * n * (m + n) != 0:
            break
    return {"lc": lc, "mu": mu, "tangent": tangent,
            "group": GROUPS[slot % len(GROUPS)], "degree": degree,
            "m": m, "n": n, "k": rng.choice((6, 8)),
            "dropped": rng.choice((None, (2, 0), (3, 0), (4, 0)))}


def run_exact(job, out):
    cos_xi, sin_xi = reduction.pythagorean_pair(job["tangent"])
    report = reduction.verify_reduction(LandauCoeffs(**job["lc"]), job["mu"],
                                        cos_xi, sin_xi)
    _cli("molien", "--group", job["group"], "--max-degree", job["degree"],
         "--out", out)
    poly = f"3,0,{job['m']};0,2,{job['n']}"
    _cli("determinacy", "--poly", poly, "--k", job["k"], "--out", out)
    family = [mono for mono in checks.VERSAL_FAMILY if mono != job["dropped"]]
    _cli("versal", "--poly", poly,
         "--monomials", ";".join(f"{a},{b}" for a, b in family), "--out", out)
    return report


def check_exact(job, out, report):
    group = job["group"]
    rows = [(int(r["degree"]), int(r["coefficient"]))
            for r in _read_csv(out / f"molien_{group}.csv")]
    return (checks.check_reduction(report)
            + checks.check_molien(group, job["degree"], rows,
                                  _read_json(out / f"molien_{group}.json")["coefficients"])
            + checks.check_determinacy(job["k"], _read_json(out / "determinacy.json"))
            + checks.check_versal(job["dropped"], _read_json(out / "versal.json")))


# name: (draw, run, check, jobs per round)
WORKLOADS = {
    "model": (draw_model, run_model, check_model, 2),
    "geometry": (draw_geometry, run_geometry, check_geometry, 1),
    "exact": (draw_exact, run_exact, check_exact, EXACT_ROUND),
}
