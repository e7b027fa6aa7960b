"""Tests of the benchmark itself: every check accepts a right output and
rejects a deliberately corrupted one, the tracer derives self times and
counts correctly, and BENCHMARK.json lists exactly the metrics run.py prints.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import copy
import io
import contextlib
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def outputs():
    """One job of each workload, run for real; outputs kept until the end."""
    root = Path(tempfile.mkdtemp(prefix="selftest-"))
    done = {}
    for name in ("model", "geometry", "exact"):
        draw, run, check, _ = workloads.WORKLOADS[name]
        job = draw(random.Random(f"selftest:{name}"), 1)
        out = root / name
        out.mkdir()
        with contextlib.redirect_stdout(io.StringIO()):
            result = run(job, out)
        done[name] = (job, out, result, check)
    yield done
    shutil.rmtree(root)


def _csv_rewrite(path, edit):
    """Apply edit(rows) to a CSV's data rows (lists of strings) in place."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _json_rewrite(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("name", ["model", "geometry", "exact"])
def test_right_outputs_pass(outputs, name):
    job, out, result, check = outputs[name]
    assert check(job, out, result) == []


def _corrupted(outputs, name, file, rewrite, edit):
    """Run the check on a copy of the outputs with one file corrupted."""
    job, out, result, check = outputs[name]
    bad = Path(tempfile.mkdtemp(prefix="selftest-bad-"))
    try:
        copy_dir = bad / name
        shutil.copytree(out, copy_dir)
        rewrite(copy_dir / file, edit)
        return check(job, copy_dir, result)
    finally:
        shutil.rmtree(bad)


def test_model_rejects_nudged_critical_point(outputs):
    def nudge(rows):
        rows[-1][1] = repr(workloads._num(rows[-1][1]) + 1e-4)
    assert _corrupted(outputs, "model", "critical_points_4d.csv", _csv_rewrite, nudge)


def test_model_rejects_flipped_classification(outputs):
    def flip(payload):
        payload["classification"] = ("saddle_2_2" if payload["classification"] == "stable"
                                     else "stable")
    assert _corrupted(outputs, "model", "classify.json", _json_rewrite, flip)


def test_model_rejects_wrong_e3(outputs):
    def scale(payload):
        payload["e3"] *= 1.001
    assert _corrupted(outputs, "model", "reduced_coeffs.json", _json_rewrite, scale)


def test_model_rejects_missing_orbit_member(outputs):
    def drop(rows):
        norms = [np.linalg.norm([workloads._num(v) for v in r[1:5]]) for r in rows]
        rows.pop(min((n, i) for i, n in enumerate(norms) if n > 0)[1])
    assert _corrupted(outputs, "model", "critical_points_4d.csv", _csv_rewrite, drop)


def test_model_rejects_unmatched_fixed_point(outputs):
    job, out, result, check = outputs["model"]
    moved = [np.asarray(w) + 1e-5 for w in result]
    assert check(job, out, moved)


def test_geometry_rejects_census_total_off_by_three(outputs):
    job = outputs["geometry"][0]
    index = job["probes"][0]

    def bump(rows):
        rows[index][4] = str(int(rows[index][4]) + 3)
    assert _corrupted(outputs, "geometry", "census.csv", _csv_rewrite, bump)


def test_geometry_rejects_census_count_against_oracle():
    rows = [(0.1, 0.0, 2, 1, 13)]
    assert checks.check_census(rows, 1, {0: 13}) == []
    assert checks.check_census([(0.1, 0.0, 3, 1, 13)], 1, {0: 13})
    assert checks.check_census(rows, 1, {0: 19})


def test_geometry_rejects_moved_sweep_event(outputs):
    def move(payload):
        for event in payload["events"]:
            if event["kind"] == "biaxial_double_fold":
                event["t"] += 1e-3
    assert _corrupted(outputs, "geometry", "sweep_events.json", _json_rewrite, move)


def test_geometry_rejects_moved_origin_flip(outputs):
    def move(payload):
        for event in payload["events"]:
            if event["changes"][2]:
                event["t"] -= 1e-3
    assert _corrupted(outputs, "geometry", "sweep_events.json", _json_rewrite, move)


def test_geometry_rejects_bad_swallowtail_row(outputs):
    def shift(rows):
        row = next(r for r in rows if r[0] == "swallowtail_S")
        row[2] = repr(workloads._num(row[2]) + 1e-6)
    assert _corrupted(outputs, "geometry", "bifurcation_set.csv", _csv_rewrite, shift)


def test_geometry_rejects_bad_b0_row(outputs):
    def shift(rows):
        row = next(r for r in rows if r[0].startswith("bluebird_B0"))
        row[3] = repr(workloads._num(row[3]) + 1e-6)
    assert _corrupted(outputs, "geometry", "bifurcation_set.csv", _csv_rewrite, shift)


def test_geometry_rejects_bad_solve_point(outputs):
    def shift(rows):
        rows[-1][0] = repr(workloads._num(rows[-1][0]) + 1e-3)
    assert _corrupted(outputs, "geometry", "uniaxial.csv", _csv_rewrite, shift)


def test_exact_rejects_molien_coefficient_off_by_one(outputs):
    def bump(rows):
        rows[4][1] = str(int(rows[4][1]) + 1)
    assert _corrupted(outputs, "exact", f"molien_{outputs['exact'][0]['group']}.csv",
                      _csv_rewrite, bump)


def test_exact_rejects_flipped_determinacy_verdict(outputs):
    def flip(payload):
        payload["holds_on_window"] = not payload["holds_on_window"]
    assert _corrupted(outputs, "exact", "determinacy.json", _json_rewrite, flip)


def test_exact_rejects_flipped_versal_verdict(outputs):
    def flip(payload):
        payload["versal_on_window"] = not payload["versal_on_window"]
    assert _corrupted(outputs, "exact", "versal.json", _json_rewrite, flip)


def test_exact_rejects_nonzero_reduction_error(outputs):
    job, out, report, check = outputs["exact"]
    bad = copy.copy(report)
    bad.residual_match_error = 1e-30
    assert check(job, out, bad)


def test_hilbert_series_closed_forms():
    assert checks.hilbert_series("d3", 8) == [1, 0, 1, 1, 1, 1, 2, 1, 2]
    assert checks.hilbert_series("d3tilde", 11) == [1, 0, 1, 1, 2, 2, 4, 3, 6, 6, 8, 9]
    assert checks.hilbert_series("d3xd3", 8) == [1, 0, 1, 1, 2, 2, 5, 3, 7]


def test_draws_depend_only_on_the_seed():
    for name in ("model", "geometry", "exact"):
        draw = workloads.WORKLOADS[name][0]
        a = draw(random.Random(f"{name}:7:0:1"), 1)
        b = draw(random.Random(f"{name}:7:0:1"), 1)
        c = draw(random.Random(f"{name}:8:0:1"), 1)
        assert repr(a) == repr(b) != repr(c)


def test_tracer_self_times_and_counts():
    import kkls
    tracer = Tracer()
    tracer.install(kkls)
    try:
        tracer.active = True
        kkls.critpoints.region_census(-1.0, 0.0, 1.0, 1.0, [0.1, 0.2], [0.0, 0.05, 0.1])
        tracer.active = False
        kkls.critpoints.census_at(kkls.critpoints.NormalFormParams(e2=0.1))  # not recorded
    finally:
        tracer.uninstall()
    inclusive, calls, self_time, counts, spans = tracer.layer_metrics()
    assert calls["critpoints.region_census"] == 1
    assert calls["critpoints.census_at"] == 6
    assert calls["critpoints.uniaxial_points"] == 6
    assert counts["critpoints.region_census.cells"] == 6
    total = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    assert sum(self_time.values()) == pytest.approx(total, rel=1e-9)
    assert kkls.critpoints.census_at.__name__ == "census_at"
    assert not hasattr(kkls.critpoints.census_at, "__wrapped__")


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: bench_run.per_layer_unit(name) for name in bench_run.PER_LAYER}
    expected.update(bench_run.TRACE_OVERHEAD)
    assert per_layer == expected
