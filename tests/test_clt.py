import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from llblab.clt import run_clt, write_clt_csv, write_clt_summary, write_csv, write_json
from llblab.dynamics import ModelParams, TimeGrid, initial_profile
from llblab.field import make_grid
from llblab.noise import CovarianceSpec, make_covariance, stream_rng
from conftest import ScaledRng, record_batch


class CltArgs(NamedTuple):
    """The arguments of ``run_clt``, in its order."""

    epsilons: tuple
    samples: int
    params: ModelParams
    tgrid: TimeGrid
    spec: CovarianceSpec
    initial: np.ndarray
    base_seed: int


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
    return CltArgs(**defaults)


# --- config validation ---------------------------------------------------------

def test_config_rejects_bad_epsilons():
    with pytest.raises(ValueError, match="decreasing"):
        run_clt(*small_config(epsilons=(1e-2, 1e-1)))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        run_clt(*small_config(epsilons=(2.0, 1e-1)))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        run_clt(*small_config(epsilons=(1e-1, 0.0)))
    with pytest.raises(ValueError, match="one epsilon"):
        run_clt(*small_config(epsilons=()))


def test_config_rejects_few_samples():
    with pytest.raises(ValueError, match="2 samples"):
        run_clt(*small_config(samples=1))


@pytest.mark.parametrize(
    "overrides",
    [dict(epsilons=(1e-2, 1e-1)), dict(samples=1)],
    ids=["increasing-epsilons", "one-sample"],
)
def test_run_clt_rejects_bad_arguments_before_integrating(monkeypatch, overrides):
    import llblab.clt as clt_module

    def no_run(*args, **kwargs):
        raise AssertionError("run_clt integrated before it checked its arguments")

    monkeypatch.setattr(clt_module, "integrate", no_run)
    monkeypatch.setattr(clt_module, "integrate_batch", no_run)
    with pytest.raises(ValueError):
        run_clt(*small_config(**overrides))


@pytest.mark.parametrize(
    "epsilons, samples", [((), 3), ((0.1,), 0)], ids=["no-epsilons", "no-samples"]
)
def test_a_priori_ensemble_rejects_an_empty_ensemble_before_integrating(
    monkeypatch, epsilons, samples
):
    import llblab.clt as clt_module
    from llblab.clt import a_priori_ensemble

    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble integrated before it checked its arguments")

    monkeypatch.setattr(clt_module, "integrate_batch", no_run)
    config = small_config()
    with pytest.raises(ValueError, match="one epsilon and one sample"):
        a_priori_ensemble(
            epsilons, samples, config.params, config.tgrid, config.spec, config.initial, 4
        )


# --- the experiment ---------------------------------------------------------------

def test_run_clt_zero_noise_amplitude_gives_zero_error(monkeypatch):
    import llblab.clt as clt_module

    # every stream draws zero increments
    monkeypatch.setattr(clt_module, "stream_rng", lambda *key: ScaledRng(stream_rng(*key), 0.0))
    report = run_clt(*small_config(samples=2, epsilons=(1e-1, 1e-2)))
    for row in report.rows:
        assert row.mean_error == 0.0
        assert row.n_failed == 0
    assert report.fit is None  # no positive metrics to fit


@pytest.mark.parametrize("damping", [1.0, 1e300])
def test_run_clt_from_zero_gives_zero_error_at_any_damping(damping):
    # zero is a fixed point of the coupled flow and of the linear deviation system;
    # at 1e300 the weight 2 dt nu2 mu overflows, and inf * (b.v = 0) retired every sample
    report = run_clt(
        (0.5, 0.25, 0.125), 2, ModelParams(nu2=damping, mu=damping), TimeGrid(1e-9, 3),
        make_covariance(2), np.zeros((7, 3)), 1,
    )
    assert report.failures == ()
    assert [tuple(r)[1:] for r in report.rows] == [(0.0, 0.0, 2, 0)] * 3


def test_run_clt_reproducible_bitwise():
    cfg = small_config(samples=2, epsilons=(1e-1, 1e-2))
    a = run_clt(*cfg)
    b = run_clt(*cfg)
    assert [r.mean_error for r in a.rows] == [r.mean_error for r in b.rows]
    assert [r.std_error for r in a.rows] == [r.std_error for r in b.rows]


def test_run_clt_small_nonlinear_decay_and_slope():
    report = run_clt(*small_config())
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
    report = run_clt(*small_config(params=ModelParams(gamma=0.0, mu=0.0), base_seed=7))
    assert report.fit.slope >= 0.9


def test_run_clt_epsilon_scaling_of_deviation():
    # the raw deviation field scales like sqrt(eps): the error functional of
    # V_eps against V_0 must shrink by ~10x per epsilon decade, which is what
    # the slope >= 0.7 assertion above pins quantitatively
    report = run_clt(*small_config(samples=4, epsilons=(1e-1, 1e-3)))
    assert report.rows[0].mean_error / report.rows[1].mean_error > 10.0


def _path_gap_errors(config):
    """Per-sample errors computed the long way: the (u_eps, V0) pair of each
    sample stored step by step from one width-1 coupled batch, then path_gap;
    test oracle only."""
    from llblab.analysis import path_gap
    from llblab.dynamics import SystemKind, integrate

    tg = config.tgrid
    u0 = integrate(SystemKind.DETERMINISTIC, config.initial, config.params, tg, stride=1)
    # the deterministic reference as a shared column of the batch
    start = (config.initial[..., None], np.zeros_like(config.initial)[..., None], config.initial)
    errors = []
    for i, eps in enumerate(config.epsilons):
        row = []
        for m in range(config.samples):
            ((u_eps, v0, ref),), failed = record_batch(
                (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC),
                start, config.params, tg, spec=config.spec,
                rngs=[stream_rng(config.base_seed, i, m)],
                epsilons=[eps],
            )
            assert failed == []
            assert ref.tobytes() == u0.snapshots.tobytes()
            v_eps = (u_eps - u0.snapshots) / math.sqrt(eps)
            row.append(path_gap(v_eps, v0, u0.grid.spacing, tg.dt, config.params.nu1))
        errors.append(row)
    return errors


def test_run_clt_streamed_metric_equals_stored_path_gap(monkeypatch):
    import llblab.clt as clt_module

    config = small_config(samples=3, epsilons=(1e-1, 1e-2, 1e-3))
    report = run_clt(*config)
    for row, errors in zip(report.rows, _path_gap_errors(config)):
        assert row.mean_error == pytest.approx(float(np.mean(errors)), rel=1e-12, abs=0.0)
        assert row.n_ok == 3
    # batches of any width give the same bits
    monkeypatch.setattr(clt_module, "BATCH_COLUMNS", 4)
    narrow = run_clt(*config)
    assert [(r.mean_error, r.std_error) for r in narrow.rows] == [
        (r.mean_error, r.std_error) for r in report.rows
    ]


def test_run_clt_excludes_and_counts_failed_samples(monkeypatch, tmp_path):
    import llblab.clt as clt_module
    from llblab.dynamics import SystemKind

    def loud_stream(base_seed, *key):
        rng = stream_rng(base_seed, *key)
        return ScaledRng(rng, 1.0e4) if key == (0, 1) else rng

    monkeypatch.setattr(clt_module, "stream_rng", loud_stream)
    config = small_config(samples=3, epsilons=(1e-1, 1e-2))
    report = run_clt(*config)
    assert report.rows[0].n_failed == 1
    assert report.rows[0].n_ok == 2
    assert report.rows[1].n_failed == 0
    assert len(report.failures) == 1
    eps_index, sample, step = report.failures[0]
    assert (eps_index, sample) == (0, 1) and step > 0
    # the failed sample is excluded from the mean, not averaged as NaN
    assert math.isfinite(report.rows[0].mean_error)
    # the stream key and step replay the failure on its own
    tgrid, key = config.tgrid, (config.base_seed, 0, 1)
    _, (exc,) = record_batch(
        (SystemKind.STOCHASTIC,), (config.initial[..., None],),
        config.params, tgrid, spec=config.spec,
        rngs=[loud_stream(*key)],
        epsilons=(1e-1,), keys=(key,),
    )
    assert (exc.step, exc.key) == (step, key)
    write_clt_summary(report, tmp_path / "summary.json")
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["n_failures"] == 1
    assert payload["failures"] == [{"eps_index": 0, "sample": 1, "step": step}]


def test_run_clt_blocks_of_any_length_give_the_same_bits(monkeypatch):
    # 6 columns take blocks of BATCH_COLUMNS // 6 steps: 1, 7 and 10 here. 255
    # steps (0..254) fill no whole number of blocks of 7 or 10, so the last
    # block of those runs is short
    import llblab.clt as clt_module

    config = small_config(samples=2, tgrid=TimeGrid(0.1, 254))
    reports = []
    for columns in (6, 42, 64):
        monkeypatch.setattr(clt_module, "BATCH_COLUMNS", columns)
        report = run_clt(*config)
        reports.append(([(r.mean_error, r.std_error) for r in report.rows], report.failures))
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_run_columns_batch_retired_before_its_first_block_fills(monkeypatch):
    # every column blows up before step 16, the end of its first block: its
    # metrics are all None and every failure is listed, while the reference
    # marches on to the last step, so that a later blow-up of its own would
    # still end the run, and every block of it reaches ``difference``
    import llblab.clt as clt_module
    from llblab.clt import run_columns
    from llblab.dynamics import SystemKind, integrate

    monkeypatch.setattr(
        clt_module, "stream_rng", lambda seed, *key: ScaledRng(stream_rng(seed, *key), 1.0e8)
    )
    config = small_config(samples=2, epsilons=(1e-1, 1e-2))
    calls = []
    reference = []

    def difference(n, block, eps):
        calls.append(n)
        reference.append(np.moveaxis(block[:, :, len(eps)], -1, 0).copy())
        return block[:, :, :len(eps)]

    values, failures, ref_metric = run_columns(
        (SystemKind.STOCHASTIC, SystemKind.DETERMINISTIC), config.initial, config.epsilons, 2,
        config.base_seed, difference, config.params, config.tgrid, config.spec,
    )
    assert ref_metric == []
    assert values == [[None, None], [None, None]]
    assert [(f.eps_index, f.sample) for f in failures] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(f.step < 16 for f in failures)
    assert calls == list(range(0, config.tgrid.steps + 1, 16))
    det = integrate(SystemKind.DETERMINISTIC, config.initial, config.params, config.tgrid)
    assert np.concatenate(reference).tobytes() == det.snapshots.tobytes()


# --- persistence -------------------------------------------------------------------

def test_clt_csv_and_summary(tmp_path):
    report = run_clt(*small_config(samples=2))
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
    assert payload["failures"] == [] and payload["n_failures"] == 0


def test_write_csv_spells_every_float_as_repr(tmp_path):
    # numpy floats too, which the csv module alone would spell as np.float64(...);
    # the CLI writes its small tables through the same function
    from llblab import cli

    assert cli._write_csv is write_csv
    path = tmp_path / "table.csv"
    rows = [(np.float64(0.1), 1, math.nan), (-0.0, np.int64(2), "ok"), (1e-7, True, -math.inf)]
    write_csv(path, ("a", "b", "c"), rows)
    assert path.read_bytes() == b"a,b,c\r\n0.1,1,nan\r\n-0.0,2,ok\r\n1e-07,True,-inf\r\n"


def test_a_priori_ensemble_at_zero_noise_is_the_deterministic_metric(monkeypatch):
    import llblab.clt as clt_module
    from llblab.analysis import path_gap
    from llblab.clt import a_priori_ensemble
    from llblab.dynamics import SystemKind, integrate

    config = small_config(tgrid=TimeGrid(0.05, 50))
    args = ((0.0, 0.1), 3, config.params, config.tgrid, config.spec, config.initial, 4)
    det_metric, values, failures = a_priori_ensemble(*args)
    # batches of 4 and 2 columns: the first batch's reference gives the same metric
    monkeypatch.setattr(clt_module, "BATCH_COLUMNS", 4)
    assert a_priori_ensemble(*args) == (det_metric, values, failures)
    # the noiseless columns run the deterministic flow: the same sums give the same bits
    assert values[0] == [det_metric] * 3
    assert failures == ()
    assert all(value > 0.0 for value in values[1])
    # the proof metric of u itself, with the model's nu1
    det = integrate(SystemKind.DETERMINISTIC, config.initial, config.params, config.tgrid)
    expected = path_gap(
        det.snapshots, 0.0 * det.snapshots, det.grid.spacing, config.tgrid.dt, config.params.nu1
    )
    assert det_metric == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_a_priori_ensemble_gives_the_same_bits_in_batches_of_one_step_blocks(monkeypatch):
    # 6 columns in batches of 6 take blocks of one step, the default batch
    # blocks of 10: the samples' metrics and the reference's, a column of the
    # same metric, have the same bits
    import llblab.clt as clt_module
    from llblab.clt import a_priori_ensemble

    config = small_config(tgrid=TimeGrid(0.05, 50))
    args = ((0.1, 0.01), 3, config.params, config.tgrid, config.spec, config.initial, 4)
    wide = a_priori_ensemble(*args)
    monkeypatch.setattr(clt_module, "BATCH_COLUMNS", 6)
    assert a_priori_ensemble(*args) == wide


@pytest.mark.parametrize("samples", [3, 64, 70], ids=["one-batch", "two-batches", "three-batches"])
def test_run_columns_reference_metric_is_the_deterministic_runs(samples):
    # the reference column of the samples' own metric, at nu1 > 0, has the
    # bits of a width-1 metric fed the stored deterministic run: a column's
    # sums do not depend on its batch, its blocks or the batch's width
    from llblab.analysis import StreamedPathGap
    from llblab.clt import run_columns
    from llblab.dynamics import SystemKind, integrate

    config = small_config(tgrid=TimeGrid(0.02, 20))
    values, failures, reference = run_columns(
        (SystemKind.STOCHASTIC, SystemKind.DETERMINISTIC), config.initial, (0.1, 0.01), samples,
        config.base_seed, lambda n, block, eps: block, config.params, config.tgrid, config.spec,
    )
    assert failures == () and [len(v) for v in values] == [samples, samples]
    det = integrate(SystemKind.DETERMINISTIC, config.initial, config.params, config.tgrid)
    alone = StreamedPathGap(1, config.tgrid, config.params.nu1)
    alone.add(0, np.moveaxis(det.snapshots, 0, -1)[:, :, None])
    assert config.params.nu1 > 0.0
    assert np.array(reference).tobytes() == alone.values.tobytes()


def test_a_priori_ensemble_sees_the_noise_lift_a_small_gradient():
    # weak diffusion and no damping: the noise lifts the proof metric of a
    # nearly flat initial state, sup ||grad u||^2 + nu1 int ||Lap u||^2, above
    # the deterministic run's in every sample
    from llblab.clt import a_priori_ensemble

    config = small_config(
        params=ModelParams(nu1=0.01, nu2=0.0),
        tgrid=TimeGrid(0.05, 50),
        initial=initial_profile(make_grid(31), a=0.01, b=0.0),
    )
    det_metric, values, failures = a_priori_ensemble(
        (1.0, 0.3, 0.1), 4, config.params, config.tgrid, config.spec, config.initial, 4
    )
    assert failures == ()
    for per_epsilon in values:
        assert len(per_epsilon) == 4
        assert all(value > det_metric for value in per_epsilon)


def test_write_json_spells_non_finite_floats_as_null(tmp_path):
    payload = {"b": [1.5, math.nan, (2, -math.inf)], "a": {"x": np.float64(math.inf), "y": "nan"}}
    write_json(tmp_path / "out.json", payload)
    assert json.loads((tmp_path / "out.json").read_text()) == {
        "a": {"x": None, "y": "nan"}, "b": [1.5, None, [2, None]],
    }


def test_write_json_of_finite_values_is_json_dump(tmp_path):
    payload = {"rows": [{"e": 0.1, "n": 3, "t": (1e-300, -0.0)}], "fit": None, "ok": True}
    write_json(tmp_path / "out.json", payload)
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "out.json").read_text() == expected
