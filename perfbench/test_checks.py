"""Tests of the benchmark's output checks: each accepts a valid output and
rejects a corrupted one. Run with ``python3 -m pytest perfbench``."""

import csv
import json
import math

import numpy as np
import pytest

import checks


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _loop_norms(values, h):
    """Reference L2 and H1-seminorm of one (n, 3) field, written as loops."""
    n = len(values)
    l2 = sum(c * c for node in values for c in node)
    padded = [[0.0] * 3] + [list(v) for v in values] + [[0.0] * 3]
    h1 = sum(((padded[i + 1][j] - padded[i][j]) / h) ** 2 for i in range(n + 1) for j in range(3))
    return math.sqrt(h * l2), math.sqrt(h * h1)


N_NODES, STEPS = 7, 5


@pytest.fixture
def det_dir(tmp_path):
    h = 1.0 / (N_NODES + 1)
    x = h * np.arange(1, N_NODES + 1)
    profile = np.stack([np.sin(np.pi * x), 0.5 * np.sin(2 * np.pi * x), 0.1 * x * (1 - x)], -1)
    fields, report = [], []
    for step in range(STEPS + 1):
        values = profile * math.exp(-0.3 * step)
        l2, h1 = _loop_norms(values.tolist(), h)
        report.append([step, repr(0.1 * step), repr(l2), repr(h1), "0.0", "0.0"])
        fields += [[step, node, *map(repr, values[node].tolist())] for node in range(N_NODES)]
    _write_csv(tmp_path / "fields.csv", ["step", "node_index", "ux", "uy", "uz"], fields)
    _write_csv(tmp_path / "trajectory_report.csv", ["step", "time", "l2", "h1_semi", "h2_semi", "linf"], report)
    return tmp_path


def _edit_row(path, index, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[index + 1][column] = value
    _write_csv(path, rows[0], rows[1:])


def test_deterministic_accepts_consistent_outputs(det_dir):
    assert checks.check_deterministic([det_dir], N_NODES, STEPS) == []


def test_deterministic_rejects_perturbed_fields_row(det_dir):
    _edit_row(det_dir / "fields.csv", 3 * N_NODES + 2, 3, "0.123")
    problems = checks.check_deterministic([det_dir], N_NODES, STEPS)
    assert any("from fields.csv differs" in p for p in problems)


def test_deterministic_rejects_increasing_norm(det_dir):
    _edit_row(det_dir / "trajectory_report.csv", 4, 2, "10.0")
    problems = checks.check_deterministic([det_dir], N_NODES, STEPS)
    assert any("l2 increases at step 4" in p for p in problems)


EPS = (0.1, 0.01, 0.001)


def _clt_outputs(path, means, n_failed=0, slope=None):
    rows = [[repr(e), repr(m), "0.0", 8 - n_failed, n_failed] for e, m in zip(EPS, means)]
    _write_csv(path / "clt_report.csv", ["epsilon", "mean_error", "std_error", "n_ok", "n_failed"], rows)
    if slope is None:
        slope = float(np.polyfit(np.log(EPS), np.log(means), 1)[0])
    with open(path / "summary.json", "w") as fh:
        json.dump({"slope": slope}, fh)


def test_clt_accepts_first_order_decay(tmp_path):
    _clt_outputs(tmp_path, [0.01, 0.0011, 0.0001])
    assert checks.check_clt([tmp_path], EPS, 8) == []


def test_clt_rejects_non_decreasing_row(tmp_path):
    _clt_outputs(tmp_path, [0.01, 0.01, 0.0001])
    problems = checks.check_clt([tmp_path], EPS, 8)
    assert any("not strictly decreasing" in p for p in problems)


def test_clt_rejects_shallow_slope(tmp_path):
    _clt_outputs(tmp_path, [0.01, 0.003, 0.0005])
    problems = checks.check_clt([tmp_path], EPS, 8)
    assert any("slope" in p and "below" in p for p in problems)


def test_clt_rejects_failed_sample_and_stale_summary(tmp_path):
    _clt_outputs(tmp_path, [0.01, 0.0011, 0.0001], n_failed=1, slope=0.5)
    problems = checks.check_clt([tmp_path], EPS, 8)
    assert any("n_failed 1" in p for p in problems)
    assert any("differs from refit" in p for p in problems)


HORIZON, RATE_STEPS, H_STAR_COST = 0.25, 10, 0.03125


def _rate_outputs(path, coefficient, misfit=1.0e-5, reported_cost=None):
    target = np.outer(np.sin(np.pi * np.arange(1, 6) / 6), [1.0, 0.5, 0.2])
    _write_csv(path / "target.csv", ["node_index", "ux", "uy", "uz"],
               [[i, *map(repr, row)] for i, row in enumerate(target.tolist())])
    _write_csv(path / "control.csv", ["step", "k", "j", "coefficient"],
               [[n, 1, j, repr(coefficient if j == 3 else 0.0)] for n in range(RATE_STEPS) for j in (1, 2, 3)])
    cost = 0.5 * HORIZON * coefficient**2 if reported_cost is None else reported_cost
    l2, h1 = _loop_norms(target.tolist(), 1.0 / 6)
    with open(path / "rate_estimate.json", "w") as fh:
        json.dump({"cost": cost, "misfit": misfit, "target_h1": math.hypot(l2, h1)}, fh)
    return path / "target.csv"


def test_rate_accepts_recovered_control(tmp_path):
    target = _rate_outputs(tmp_path, 0.5)
    assert checks.check_rate([tmp_path], target, H_STAR_COST, HORIZON, RATE_STEPS) == []


def test_rate_rejects_cost_above_bound(tmp_path):
    target = _rate_outputs(tmp_path, 0.52)
    problems = checks.check_rate([tmp_path], target, H_STAR_COST, HORIZON, RATE_STEPS)
    assert any("above 1.05" in p for p in problems)


def test_rate_rejects_large_misfit_and_cost_mismatch(tmp_path):
    target = _rate_outputs(tmp_path, 0.5, misfit=1.0, reported_cost=0.03)
    problems = checks.check_rate([tmp_path], target, H_STAR_COST, HORIZON, RATE_STEPS)
    assert any("misfit" in p for p in problems)
    assert any("differs from control.csv cost" in p for p in problems)


def test_clt_pools_runs(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d, means in zip(dirs, ([0.01, 0.0011, 0.0001], [0.01, 0.0009, 0.0004])):
        d.mkdir()
        _clt_outputs(d, means)
    assert checks.check_clt(dirs, EPS, 8) == []
    _clt_outputs(dirs[1], [0.0001, 0.0009, 0.004])
    assert any("pooled slope" in p for p in checks.check_clt(dirs, EPS, 8))


def test_digests_reject_differing_repeat_and_edited_file(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1\n")
    good = {"config": 0, "outputs": {"a.csv": checks.sha256_file(tmp_path / "a.csv")}}
    other = {"config": 0, "outputs": {"a.csv": "0" * 64}}
    assert checks.check_digests([tmp_path], [good, good]) == []
    assert any("differ between repeats" in p for p in checks.check_digests([tmp_path], [good, other]))
    assert any("fewer than two" in p for p in checks.check_digests([tmp_path], [good]))
    (tmp_path / "a.csv").write_text("x\n2\n")
    assert any("does not match" in p for p in checks.check_digests([tmp_path], [good, good]))
