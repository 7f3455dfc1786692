import json
import math

import pytest

from llblab.clt import CltConfig, run_clt, write_clt_csv, write_clt_summary
from llblab.dynamics import ModelParams, TimeGrid, initial_profile
from llblab.field import make_grid
from llblab.noise import CovarianceSpec, make_covariance


def small_config(**overrides):
    g = make_grid(31)
    defaults = dict(
        epsilons=(1e-1, 1e-2, 1e-3),
        samples=6,
        params=ModelParams(),
        tgrid=TimeGrid(0.1, 250),
        spec=make_covariance(4, 4.0),
        initial=initial_profile(g),
        base_seed=11,
    )
    defaults.update(overrides)
    return CltConfig(**defaults)


# --- config validation ---------------------------------------------------------

def test_config_rejects_bad_epsilons():
    with pytest.raises(ValueError, match="decreasing"):
        small_config(epsilons=(1e-2, 1e-1))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        small_config(epsilons=(2.0, 1e-1))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        small_config(epsilons=(1e-1, 0.0))
    with pytest.raises(ValueError, match="one epsilon"):
        small_config(epsilons=())


def test_config_rejects_few_samples():
    with pytest.raises(ValueError, match="2 samples"):
        small_config(samples=1)


# --- the experiment ---------------------------------------------------------------

def test_run_clt_zero_noise_amplitude_gives_zero_error():
    spec = CovarianceSpec(4, 4.0, amplitude_scale=0.0)
    report = run_clt(small_config(spec=spec, samples=2, epsilons=(1e-1, 1e-2)))
    for row in report.rows:
        assert row.mean_error == 0.0
        assert row.n_failed == 0
    assert report.fit is None  # no positive metrics to fit


def test_run_clt_reproducible_bitwise():
    cfg = small_config(samples=2, epsilons=(1e-1, 1e-2))
    a = run_clt(cfg)
    b = run_clt(cfg)
    assert [r.mean_error for r in a.rows] == [r.mean_error for r in b.rows]
    assert [r.std_error for r in a.rows] == [r.std_error for r in b.rows]


def test_run_clt_small_nonlinear_decay_and_slope():
    report = run_clt(small_config())
    means = [r.mean_error for r in report.rows]
    assert all(r.n_failed == 0 for r in report.rows)
    assert means[0] > means[1] > means[2]
    # decade gaps dwarf the pooled sampling error
    for a, b in zip(report.rows, report.rows[1:]):
        pooled = math.hypot(a.std_error, b.std_error)
        assert a.mean_error - b.mean_error > pooled
    assert report.fit.slope >= 0.7


def test_run_clt_linear_regime_slope():
    # gamma = mu = 0 leaves a linear drift; the deviation gap closes at a
    # clean first order in eps
    report = run_clt(small_config(params=ModelParams(gamma=0.0, mu=0.0), base_seed=7))
    assert report.fit.slope >= 0.9


def test_run_clt_epsilon_scaling_of_deviation():
    # the raw deviation field scales like sqrt(eps): the error functional of
    # V_eps against V_0 must shrink by ~10x per epsilon decade, which is what
    # the slope >= 0.7 assertion above pins quantitatively
    report = run_clt(small_config(samples=4, epsilons=(1e-1, 1e-3)))
    assert report.rows[0].mean_error / report.rows[1].mean_error > 10.0


def test_run_clt_excludes_and_counts_failed_samples(monkeypatch):
    import llblab.clt as clt_module
    from llblab.dynamics import BlowUpError

    real = clt_module._sample_error

    def flaky(config, u0_rec, eps_index, sample):
        if eps_index == 0 and sample == 1:
            raise BlowUpError("forced failure", step=5, time=0.0)
        return real(config, u0_rec, eps_index, sample)

    monkeypatch.setattr(clt_module, "_sample_error", flaky)
    report = run_clt(small_config(samples=3, epsilons=(1e-1, 1e-2)))
    assert report.rows[0].n_failed == 1
    assert report.rows[0].n_ok == 2
    assert report.rows[1].n_failed == 0
    assert len(report.failures) == 1
    eps, sample, message = report.failures[0]
    assert (eps, sample) == (1e-1, 1) and "forced failure" in message
    # the failed sample is excluded from the mean, not averaged as NaN
    assert math.isfinite(report.rows[0].mean_error)


# --- persistence -------------------------------------------------------------------

def test_clt_csv_and_summary(tmp_path):
    report = run_clt(small_config(samples=2))
    csv_path = tmp_path / "clt_report.csv"
    write_clt_csv(report, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "epsilon,mean_error,std_error,n_ok,n_failed"
    assert len(lines) == 1 + len(report.rows)

    json_path = tmp_path / "summary.json"
    write_clt_summary(report, json_path)
    payload = json.loads(json_path.read_text())
    assert payload["slope"] == pytest.approx(report.fit.slope)
    assert len(payload["rows"]) == len(report.rows)
