import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llblab.analysis import energy_drift
from llblab.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    KEY_TABLE,
    KINDS,
    ConfigError,
    main,
    parse_config,
    run,
)
from llblab.clt import write_json
from llblab.dynamics import BlowUpError, SystemKind, integrate, write_fields_csv, write_report_csv
from llblab.field import STACK_CHUNK
from conftest import ScaledRng, record_batch

TINY_CLT = """
kind = clt
grid.n = 31
time.horizon = 0.05
time.steps = 80
noise.modes = 4
seed = 424242
clt.epsilons = 0.5, 0.25, 0.125
clt.samples = 2
"""

TINY_WEAK = """
kind = weak-convergence
grid.n = 31
time.horizon = 0.05
time.steps = 80
noise.modes = 4
seed = 99
weak.epsilons = 0.1, 0.01
weak.samples = 2
"""


# --- parsing -----------------------------------------------------------------------

def test_parse_minimal_validate():
    cfg = parse_config("kind = validate\n")
    assert cfg.kind == "validate"
    assert cfg["validate.samples"] == 1000
    assert cfg["validate.grids"] == (31, 127, 255)
    assert cfg["grid.n"] == 127
    assert cfg["output.dir"] == "out"


def test_parse_comments_and_blanks():
    cfg = parse_config("# header\n\nkind = validate  # trailing\nseed = 7\n")
    assert cfg["seed"] == 7


def test_parse_reports_all_errors():
    with pytest.raises(ConfigError) as info:
        parse_config("kind = clt\ntime.steps = 0\nbogus.key = 1\nclt.samples = 1\n")
    messages = "\n".join(info.value.errors)
    assert "time.steps" in messages
    assert "bogus.key" in messages
    assert "clt.samples" in messages
    assert len(info.value.errors) == 3


def test_parse_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("kind = validate\nvalidate.smaples = 10\n")


def test_parse_wrong_kind_key_is_error():
    with pytest.raises(ConfigError, match="only valid for kind"):
        parse_config("kind = validate\nclt.samples = 4\n")


def test_parse_requires_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("grid.n = 31\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("kind = validate\nseed = 1\nseed = 2\n")


def test_parse_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("kind = validate\nnonsense\n")


def test_parse_missing_referenced_file():
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config("kind = weak-convergence\nweak.control = /no/such/file.csv\n")


def test_parse_rate_slab_divisibility():
    with pytest.raises(ConfigError, match="divide"):
        parse_config("kind = rate\ntime.steps = 100\nrate.slabs = 7\n")


values = st.one_of(
    st.text(max_size=12),
    st.integers(-10, 10**6).map(str),
    st.floats().map(repr),
    st.lists(st.floats(-2.0, 300.0).map(repr), min_size=1, max_size=4).map(", ".join),
    st.sampled_from(KINDS + ("true", "no", ".", "inf", "nan", "-0", "1e999")),
)
config_documents = st.builds(
    lambda kind, pairs: (f"kind = {kind}\n" if kind else "")
    + "".join(f"{key} = {value}\n" for key, value in pairs),
    st.one_of(st.none(), st.sampled_from(KINDS)),
    st.lists(st.tuples(st.sampled_from(sorted(KEY_TABLE) + ["bogus.key"]), values), max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), config_documents))
def test_parse_config_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.errors
        return
    assert cfg.kind in KINDS


# --- running ------------------------------------------------------------------------

def _manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def test_run_validate_small(tmp_path):
    cfg = parse_config("kind = validate\nvalidate.samples = 25\nvalidate.grids = 31\n")
    code = run(cfg, out_dir=str(tmp_path))
    assert code == EXIT_OK
    report = (tmp_path / "identity_report.csv").read_text().splitlines()
    assert report[0] == "name,residual,tolerance,passed"
    assert all(line.endswith("True") for line in report[1:])
    manifest = _manifest(tmp_path)
    assert manifest["kind"] == "validate"
    for name, digest in manifest["outputs"].items():
        payload = (tmp_path / name).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest


def test_run_deterministic_outputs(tmp_path, monkeypatch):
    import llblab.field as field_module

    # the report, the energy drift and the final norms share one norm pass
    stacks = []
    map_stack = field_module.map_stack

    def counted_map_stack(fn, stack):
        stacks.append(len(stack))
        return map_stack(fn, stack)

    monkeypatch.setattr(field_module, "map_stack", counted_map_stack)
    cfg = parse_config(
        "kind = deterministic\ngrid.n = 31\ntime.horizon = 0.02\ntime.steps = 40\n"
        "deterministic.dump_fields = true\n"
    )
    code = run(cfg, out_dir=str(tmp_path))
    assert stacks == [41]
    assert code == EXIT_OK
    lines = (tmp_path / "trajectory_report.csv").read_text().splitlines()
    assert lines[0] == "step,time,l2,h1_semi,h2_semi,linf"
    assert len(lines) == 1 + 41
    dump = (tmp_path / "fields.csv").read_text().splitlines()
    assert dump[0] == "step,node_index,ux,uy,uz"
    assert len(dump) == 1 + 41 * 31
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["energy_drift"] >= 0.0


B = STACK_CHUNK
DET_STEPS = [1, B - 1, B, B + 1, 2 * B + 3]
DET_ZEROS = ["model.nu2", "model.mu", "model.gamma"]


def _record_path_outputs(config, outdir):
    # the stored-record implementation the streamed run replaced: the oracle
    rec = integrate(
        SystemKind.DETERMINISTIC, config.initial(), config.model_params(), config.time_grid()
    )
    write_report_csv(rec, outdir / "trajectory_report.csv")
    write_fields_csv(rec, outdir / "fields.csv")
    final_l2, final_h1_semi = rec.norm_rows[-1, :2].tolist()
    write_json(
        outdir / "summary.json",
        {
            "final_l2": final_l2,
            "final_h1_semi": final_h1_semi,
            "energy_drift": energy_drift(rec),
            "explicit_cfl": rec.explicit_cfl,
        },
    )


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.integers(3, 15),
    steps=st.sampled_from(DET_STEPS),
    zero=st.sampled_from([None] + DET_ZEROS),
    init=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
@example(nodes=3, steps=1, zero=None, init=(1.0, 0.5))
@example(nodes=15, steps=B - 1, zero="model.nu2", init=(1.0, 0.5))
@example(nodes=7, steps=B, zero="model.mu", init=(-1.5, 2.0))
@example(nodes=11, steps=B + 1, zero="model.gamma", init=(0.3, -1.0))
@example(nodes=15, steps=2 * B + 3, zero=None, init=(2.0, 2.0))
def test_streamed_deterministic_run_matches_the_record_path_bytes(
    tmp_path_factory, nodes, steps, zero, init
):
    # the report, the fields and the summary, written block by block as the
    # run marches, byte for byte as the stored record wrote them: step counts
    # that end a block one short, exactly, one over and in a third block
    text = (
        f"kind = deterministic\ngrid.n = {nodes}\ntime.horizon = 0.05\ntime.steps = {steps}\n"
        f"init.a = {init[0]!r}\ninit.b = {init[1]!r}\nmodel.mu = 3\n"
        "deterministic.dump_fields = true\n"
    )
    if zero is not None:
        text = text.replace("model.mu = 3\n", "") + f"{zero} = 0\n"
    config = parse_config(text)
    streamed, oracle = tmp_path_factory.mktemp("streamed"), tmp_path_factory.mktemp("oracle")
    try:
        _record_path_outputs(config, oracle)
    except BlowUpError:
        # a step too coarse for the state: both blow up, and the run leaves no output
        assert run(config, out_dir=str(streamed)) == EXIT_BLOWUP
        assert list(streamed.iterdir()) == []
        return
    assert run(config, out_dir=str(streamed)) == EXIT_OK
    for name in ("trajectory_report.csv", "fields.csv", "summary.json"):
        assert (streamed / name).read_bytes() == (oracle / name).read_bytes(), name


def test_deterministic_run_memory_does_not_grow_with_steps(tmp_path):
    # the run keeps one block of STACK_CHUNK snapshots, never the trajectory:
    # ten times the steps leaves the tracemalloc peak within one block's buffers
    import tracemalloc

    def peak(steps):
        config = parse_config(
            f"kind = deterministic\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = {steps}\n"
            "deterministic.dump_fields = true\n"
        )
        tracemalloc.start()
        try:
            assert run(config, out_dir=str(tmp_path / str(steps))) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # caches and lazy set-up
    block = STACK_CHUNK * 31 * 3 * 8
    short, long = peak(600), peak(6000)
    assert long - short < block, (short, long)


def test_main_blow_up_after_the_first_block_leaves_no_partial_output(tmp_path, capfd):
    # the first block's rows are written before the blow-up at step 287; the
    # run exits 3 with one JSON object and removes what it wrote, so no
    # report or fields file is left, as when the blow-up comes before any write
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "kind = deterministic\ngrid.n = 31\ntime.horizon = 0.1\ntime.steps = 800\n"
        "model.gamma = 3.36\ndeterministic.dump_fields = true\n"
    )
    out_dir = tmp_path / "out"
    code = main(["--config", str(config_path), "--out", str(out_dir)])
    out, err = capfd.readouterr()
    assert code == EXIT_BLOWUP
    (line,) = out.strip().splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["kind"]) == (EXIT_BLOWUP, "blow-up")
    assert error["step"] > STACK_CHUNK
    assert "Traceback" not in err
    assert sorted(os.listdir(out_dir)) == []


@pytest.mark.parametrize("name", ["fields.csv", "summary.json"])
def test_main_output_path_that_is_a_directory_is_io_error(tmp_path, capfd, name):
    # the fields dump fails before the march, the summary after it; either
    # way the run exits 4 and leaves none of the files it had begun
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "kind = deterministic\ngrid.n = 7\ntime.horizon = 0.01\ntime.steps = 10\n"
        "deterministic.dump_fields = true\n"
    )
    code = main(["--config", str(config_path), "--out", str(out_dir)])
    out, err = capfd.readouterr()
    assert code == EXIT_IO
    (line,) = out.strip().splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["kind"]) == (EXIT_IO, "io")
    assert name in error["message"]
    assert "Traceback" not in err
    assert sorted(os.listdir(out_dir)) == [name]


def test_run_rerun_byte_identical(tmp_path):
    cfg = parse_config(TINY_CLT)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(cfg, out_dir=str(out_a)) == EXIT_OK
    assert run(cfg, out_dir=str(out_b)) == EXIT_OK
    assert (out_a / "clt_report.csv").read_bytes() == (out_b / "clt_report.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_run_clt_summary_has_slope(tmp_path):
    cfg = parse_config(TINY_CLT)
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "slope" in summary and summary["slope"] is not None


def test_run_weak_outputs(tmp_path):
    cfg = parse_config(TINY_WEAK)
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    lines = (tmp_path / "weak_report.csv").read_text().splitlines()
    assert lines[0] == "epsilon,mean_metric,std_error,n_ok,n_failed"
    assert len(lines) == 3
    assert json.loads((tmp_path / "summary.json").read_text())["failures"] == []


def test_run_weak_counts_failed_samples(tmp_path, monkeypatch):
    # a blown-up weak-convergence sample is listed with its stream key and
    # step; replaying the key raises at the same step
    import llblab.clt as clt_module
    from llblab.dynamics import SystemKind
    from llblab.noise import IncrementStreams, single_mode_control, stream_rng

    def loud_stream(base_seed, *key):
        rng = stream_rng(base_seed, *key)
        return ScaledRng(rng, 1.0e4) if key == (0, 1) else rng

    monkeypatch.setattr(clt_module, "stream_rng", loud_stream)
    cfg = parse_config(TINY_WEAK)
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(r["n_ok"], r["n_failed"]) for r in summary["rows"]] == [(1, 1), (2, 0)]
    (failure,) = summary["failures"]
    assert (failure["eps_index"], failure["sample"]) == (0, 1) and failure["step"] > 0
    tgrid = cfg.time_grid()
    ctrl = single_mode_control(tgrid.steps, cfg["noise.modes"], tgrid.dt, 1, 3, 0.5)
    _, (exc,) = record_batch(
        (SystemKind.CONTROLLED_STOCHASTIC,), (cfg.initial()[..., None],),
        cfg.model_params(), tgrid, spec=cfg.covariance(), ctrl=(ctrl,),
        noise=IncrementStreams([loud_stream(99, 0, 1)], tgrid.steps, cfg["noise.modes"], tgrid.dt),
        epsilons=(0.1,), keys=((99, 0, 1),),
    )
    assert (exc.step, exc.key) == (failure["step"], (99, 0, 1))


def test_run_weak_with_control_file(tmp_path):
    from llblab.noise import single_mode_control, write_control_csv

    ctrl_path = tmp_path / "ctrl.csv"
    # two modes in the file, padded up to noise.modes at load time
    write_control_csv(single_mode_control(80, 2, 0.05 / 80, 1, 3, 0.4), ctrl_path)
    cfg = parse_config(
        "kind = weak-convergence\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 80\n"
        f"noise.modes = 4\nweak.epsilons = 0.1\nweak.samples = 2\nweak.control = {ctrl_path}\n"
    )
    out = tmp_path / "out"
    assert run(cfg, out_dir=str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["control_cost"] == pytest.approx(0.5 * 0.05 * 0.4**2)


def test_run_weak_control_file_step_mismatch(tmp_path, capsys):
    from llblab.noise import single_mode_control, write_control_csv

    ctrl_path = tmp_path / "ctrl.csv"
    write_control_csv(single_mode_control(10, 2, 0.005, 1, 3, 0.4), ctrl_path)
    cfg = parse_config(
        "kind = weak-convergence\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 80\n"
        f"noise.modes = 4\nweak.epsilons = 0.1\nweak.samples = 2\nweak.control = {ctrl_path}\n"
    )
    assert run(cfg, out_dir=str(tmp_path / "out")) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().out.strip())
    assert "80" in payload["error"]["messages"][0]


def test_run_rate_trivial_target(tmp_path):
    cfg = parse_config(
        "kind = rate\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 20\n"
        "rate.slabs = 4\nrate.max_iters = 3\nrate.continuation = 0\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    estimate = json.loads((tmp_path / "rate_estimate.json").read_text())
    assert estimate["cost"] <= 1e-6
    assert estimate["converged"] is True
    assert 0.0 <= estimate["gradient_norm"] <= 1e-4
    control = (tmp_path / "control.csv").read_text().splitlines()
    assert control[0] == "step,k,j,coefficient"


def test_run_compactness_outputs(tmp_path):
    cfg = parse_config(
        "kind = compactness\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 40\n"
        "noise.modes = 8\ncompact.modes = 2,4\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    lines = (tmp_path / "compactness_report.csv").read_text().splitlines()
    assert lines[0] == "mode,metric"
    assert len(lines) == 3


def test_run_compactness_blow_up_reports_the_first_skeleton_to_cross(tmp_path, capsys, monkeypatch):
    # the base and the probes march as one batch, so the run stops at the first
    # step where any skeleton crosses the ceiling: mode 4's, though mode 1,
    # listed first, crosses later and the base never does
    import llblab.dynamics as dynamics
    from llblab.dynamics import BlowUpError, SystemKind, integrate
    from llblab.noise import single_mode_control

    monkeypatch.setattr(dynamics, "LINF_CEILING", 1.01)
    cfg = parse_config(
        "kind = compactness\ngrid.n = 15\ntime.horizon = 0.05\ntime.steps = 40\n"
        "noise.modes = 4\ncompact.modes = 1, 4\ncompact.component = 1\n"
        "model.nu1 = 0.01\nmodel.nu2 = 0\n"
    )
    tgrid, spec = cfg.time_grid(), cfg.covariance()
    steps = {}
    for mode in (1, 4):
        probe = single_mode_control(
            tgrid.steps, 4, tgrid.dt, mode, 1, math.sqrt(1.0 / tgrid.horizon)
        )
        with pytest.raises(BlowUpError) as info:
            integrate(
                SystemKind.SKELETON, cfg.initial(), cfg.model_params(), tgrid, spec=spec,
                ctrl=probe,
            )
        steps[mode] = info.value.step
    assert steps[4] < steps[1]
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_BLOWUP
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert (error["code"], error["step"], error["key"]) == (EXIT_BLOWUP, steps[4], None)


def test_run_ensemble_outputs(tmp_path):
    cfg = parse_config(
        "kind = stochastic-ensemble\ngrid.n = 31\ntime.horizon = 0.02\ntime.steps = 40\n"
        "noise.modes = 4\nensemble.epsilons = 0.1\nensemble.samples = 3\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rows"][0]["n_ok"] == 3
    assert 0.0 < summary["rows"][0]["ratio_vs_deterministic"] < 3.0


def test_run_blow_up_exit_code(tmp_path, capsys):
    # an unstable run is fatal with a structured error and exit 3
    cfg = parse_config(
        "kind = deterministic\ngrid.n = 63\ntime.horizon = 1.0\ntime.steps = 100\n"
        "model.gamma = 500\n"
    )
    code = run(cfg, out_dir=str(tmp_path))
    captured = capsys.readouterr()
    assert code == EXIT_BLOWUP
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"]["code"] == EXIT_BLOWUP
    assert payload["error"]["step"] is not None
    assert payload["error"]["key"] is None
    # the |u|_inf that failed the ceiling check and the explicit-term ratio before it
    assert math.isfinite(payload["error"]["linf"]) and payload["error"]["linf"] > 1000.0
    assert payload["error"]["ratio"] > 0.0


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


# weak diffusion and a long horizon: every sample at epsilon = 1 blows up
ALL_FAILED = (
    "grid.n = 15\ntime.steps = 50\ntime.horizon = 100\n"
    "model.nu1 = 1e-3\nmodel.nu2 = 0\nmodel.gamma = 0\n"
)


@pytest.mark.parametrize(
    "text",
    [
        "kind = stochastic-ensemble\nensemble.epsilons = 1.0, 0.0\nensemble.samples = 3\n",
        "kind = clt\nclt.epsilons = 1.0, 0.5, 0.25\nclt.samples = 3\n",
        "kind = weak-convergence\nweak.epsilons = 1.0, 0.0\nweak.samples = 3\n"
        "weak.coefficient = 0\n",
    ],
    ids=["stochastic-ensemble", "clt", "weak-convergence"],
)
def test_run_all_failed_epsilon_writes_strict_json(tmp_path, text):
    # the mean of no samples is written as null: JSON has no NaN token
    assert run(parse_config(ALL_FAILED + text), out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_reject_constant)
    row = summary["rows"][0]
    assert (row["n_ok"], row["n_failed"]) == (0, 3)
    assert None in row.values()


@pytest.mark.parametrize(
    "text, finite_linf",
    [
        (
            "kind = stochastic-ensemble\ngrid.n = 15\ntime.steps = 20\nensemble.samples = 2\n"
            "model.nu2 = 1e308\nmodel.mu = 1e308\n",
            False,
        ),
        ("kind = deterministic\nmodel.gamma = 1e300\n", True),
    ],
    ids=["ensemble-overflowing-damping", "deterministic-overflowing-precession"],
)
def test_main_blow_up_writes_no_numpy_warning(tmp_path, capfd, text, finite_linf):
    # the march finds the non-finite state itself; numpy's overflow warnings
    # on the way there would only add noise to stderr before the JSON error
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    out, err = capfd.readouterr()
    assert code == EXIT_BLOWUP
    # strict JSON: NaN and Infinity are not JSON tokens
    error = json.loads(out.strip(), parse_constant=_reject_constant)["error"]
    assert error["code"] == EXIT_BLOWUP
    # the damping overflows the state itself, which leaves no |u|_inf to report;
    # the precession leaves a finite state, only its squared norms overflow
    assert (error["linf"] is not None) == finite_linf
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err


def test_main_clt_reference_blow_up_after_every_sample_retired(tmp_path, capfd):
    # at gamma = 4 the noise drives every sample past the ceiling before the
    # deterministic reference blows up at step 105: the reference marches on
    # alone, and the run still ends with the error that integrate of the
    # reference raises, as the one exit-3 JSON object
    from llblab.dynamics import BlowUpError, SystemKind, integrate
    from llblab.noise import IncrementStreams, stream_rng

    text = (
        "kind = clt\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 400\nnoise.modes = 8\n"
        "model.gamma = 4\nclt.epsilons = 1.0, 0.5\nclt.samples = 2\nseed = 5\n"
    )
    config = parse_config(text)
    u0, params, tgrid = config.initial(), config.model_params(), config.time_grid()
    with pytest.raises(BlowUpError) as reference:
        integrate(SystemKind.DETERMINISTIC, u0, params, tgrid)
    exc = reference.value
    assert exc.step == 105
    # the samples on their streams, the reference beside them as a batch system
    keys = [(5, i, m) for i in range(2) for m in range(2)]
    start = np.repeat(u0[..., None], 4, axis=2)
    _, failed = record_batch(
        (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC),
        (start, np.zeros_like(start), start), params, tgrid, keys=keys,
        spec=config.covariance(), epsilons=(1.0, 1.0, 0.5, 0.5),
        noise=IncrementStreams([stream_rng(*key) for key in keys], 400, 8, tgrid.dt),
    )
    assert sorted(f.key for f in failed) == keys
    assert all(f.step < exc.step for f in failed)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    out, _ = capfd.readouterr()
    assert code == EXIT_BLOWUP
    assert json.loads(out) == {
        "error": {
            "code": EXIT_BLOWUP, "kind": "blow-up", "message": str(exc), "step": 105,
            "key": None, "linf": exc.linf, "ratio": exc.ratio,
        }
    }


def test_main_energy_drift_of_a_huge_coefficient_is_finite(tmp_path, capfd):
    # 2 nu1 ||Lap u||^2 alone overflows at nu1 = 1e300 for this state; weighted
    # by dt = 1e-9 first, the drift is a finite number, with no numpy warning
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "kind = deterministic\nmodel.nu1 = 1e300\ntime.horizon = 1e-9\ngrid.n = 3\n"
        "time.steps = 1\ninit.b = 500\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    out, err = capfd.readouterr()
    assert (code, out, err) == (EXIT_OK, "", "")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["energy_drift"] is not None
    assert 1.0e280 < summary["energy_drift"] < math.inf


def test_main_rate_gradient_norm_whose_square_overflows_is_finite(tmp_path, capfd):
    # at penalty 1e300 the gradient's entries are finite but their squares
    # overflow: its norm is taken relative to the largest entry, with no numpy
    # warning, and its square overflows, so no trial can meet the Armijo test
    data = tmp_path / "target.csv"
    data.write_text("node_index,ux,uy,uz\n" + "".join(f"{i},0.5,0.1,0.2\n" for i in range(7)))
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "kind = rate\ngrid.n = 7\ntime.steps = 10\ntime.horizon = 0.01\nnoise.modes = 2\n"
        f"rate.penalty = 1e300\nrate.continuation = 1\nrate.target = {data}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    out, _ = capfd.readouterr()
    assert (code, out) == (EXIT_OK, "")
    estimate = json.loads((tmp_path / "out" / "rate_estimate.json").read_text())
    assert estimate["converged"] is False
    assert estimate["gradient_norm"] is not None
    assert 1.0e154 < estimate["gradient_norm"] < math.inf


def test_run_blow_up_reports_a_finite_norm_whose_square_overflows(tmp_path, capsys):
    # the state is finite but its components exceed about 1.3e154, so their
    # squares overflow: the error still carries the finite |u|_inf
    cfg = parse_config(
        "kind = deterministic\ngrid.n = 31\ntime.steps = 50\nmodel.gamma = 1e300\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_BLOWUP
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert math.isfinite(error["linf"]) and error["linf"] > 1.0e154
    assert f"|u|_inf = {error['linf']:.3g} exceeded" in error["message"]


def test_main_rate_blow_up_exits_three(tmp_path, capsys):
    # the skeleton under the zero control blows up: no estimate is written
    target = tmp_path / "target.csv"
    target.write_text("node_index,ux,uy,uz\n" + "".join(f"{i},0.0,0.0,0.0\n" for i in range(63)))
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "kind = rate\ngrid.n = 63\ntime.horizon = 1.0\ntime.steps = 100\n"
        f"model.gamma = 500\nrate.target = {target}\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out)]) == EXIT_BLOWUP
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["error"]["code"] == EXIT_BLOWUP
    assert payload["error"]["kind"] == "blow-up"
    assert payload["error"]["step"] > 0
    # the skeleton draws no noise: no stream key replays it
    assert payload["error"]["key"] is None
    assert not (out / "rate_estimate.json").exists()
    assert not (out / "manifest.json").exists()


def test_run_noisy_blow_up_reports_its_stream_key(tmp_path, monkeypatch, capsys):
    # a blow-up that carries a stream key names the stream that replays it
    from llblab import cli
    from llblab.dynamics import BlowUpError

    def loud_sample(config, outdir):
        raise BlowUpError("non-finite state", step=3, time=3 * config.time_grid().dt, key=(8, 0, 1))

    monkeypatch.setitem(cli.DRIVERS, "deterministic", loud_sample)
    cfg = parse_config(
        "kind = deterministic\ngrid.n = 31\ntime.horizon = 0.02\ntime.steps = 40\n"
        "noise.modes = 4\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_BLOWUP
    error = json.loads(capsys.readouterr().out.strip())["error"]
    assert error["kind"] == "blow-up" and error["step"] > 0
    assert error["key"] == [8, 0, 1]
    assert not (tmp_path / "manifest.json").exists()


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(3, 12), st.just(3)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.randoms(use_true_random=False),
)
def test_target_csv_round_trip(tmp_path_factory, values, order):
    # a target written with repr reads back bitwise, in any row order
    from llblab.cli import _read_target_field

    rows = [f"{i},{x!r},{y!r},{z!r}\n" for i, (x, y, z) in enumerate(values.tolist())]
    order.shuffle(rows)
    path = tmp_path_factory.mktemp("target") / "target.csv"
    path.write_text("node_index,ux,uy,uz\n" + "".join(rows))
    field = _read_target_field(path, len(values))
    assert field.tobytes() == values.tobytes()


def test_run_ensemble_counts_failed_samples(tmp_path, monkeypatch):
    # a sample that blows up is excluded, counted and listed with its step,
    # never averaged; its stream key replays the failure on its own
    import llblab.clt as clt_module
    from llblab.dynamics import SystemKind
    from llblab.noise import IncrementStreams, stream_rng

    def loud_stream(base_seed, *key):
        rng = stream_rng(base_seed, *key)
        return ScaledRng(rng, 1.0e4) if key == (0, 1) else rng

    monkeypatch.setattr(clt_module, "stream_rng", loud_stream)
    cfg = parse_config(
        "kind = stochastic-ensemble\ngrid.n = 31\ntime.horizon = 0.02\ntime.steps = 40\n"
        "noise.modes = 4\nensemble.epsilons = 0.1, 0.01\nensemble.samples = 3\nseed = 8\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(r["n_ok"], r["n_failed"]) for r in summary["rows"]] == [(2, 1), (3, 0)]
    assert np.isfinite(summary["rows"][0]["mean_sup_grad_sq"])
    (failure,) = summary["failures"]
    assert (failure["eps_index"], failure["sample"]) == (0, 1) and failure["step"] > 0
    report = (tmp_path / "ensemble_report.csv").read_text().splitlines()
    assert report[2] == "0.1,1,nan,blow-up"
    tgrid = cfg.time_grid()
    _, (exc,) = record_batch(
        (SystemKind.STOCHASTIC,), (cfg.initial()[..., None],),
        cfg.model_params(), tgrid, spec=cfg.covariance(),
        noise=IncrementStreams([loud_stream(8, 0, 1)], tgrid.steps, cfg["noise.modes"], tgrid.dt),
        epsilons=(0.1,), keys=((8, 0, 1),),
    )
    assert (exc.step, exc.key) == (failure["step"], (8, 0, 1))


def test_run_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    cfg = parse_config("kind = validate\nvalidate.samples = 5\nvalidate.grids = 31\n")
    code = run(cfg, out_dir=str(blocker))
    assert code == EXIT_IO
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"]["code"] == EXIT_IO


# --- main entry point ------------------------------------------------------------------

def test_main_happy_path(tmp_path):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("kind = validate\nvalidate.samples = 10\nvalidate.grids = 31\n")
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out)]) == EXIT_OK
    assert (out / "identity_report.csv").exists()


def test_main_config_error_exit(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("kind = clt\nclt.samples = 0\n")
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["error"]["code"] == EXIT_CONFIG


def test_main_non_utf8_config_is_config_error(tmp_path, capfd):
    # the file is read as UTF-8 whatever the locale; other bytes are a config error
    config_path = tmp_path / "exp.cfg"
    config_path.write_bytes(b"kind = validate\n\xff\xfe\n")
    code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    out, err = capfd.readouterr()
    assert code == EXIT_CONFIG
    (line,) = out.strip().splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["kind"]) == (EXIT_CONFIG, "config")
    assert str(config_path) in error["messages"][0]
    assert "byte 16" in error["messages"][0]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sizes",
    ["grid.n = 7\ntime.steps = 1000000000000\n", "grid.n = 1000000000000\ntime.steps = 10\n"],
    ids=["steps", "nodes"],
)
def test_main_allocation_too_large_is_config_error(tmp_path, capfd, sizes):
    # no upper bound on the sizes: numpy refuses the first 7 TiB array, so
    # nothing is allocated, and the run reports it as one JSON error object
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(f"kind = deterministic\ntime.horizon = 0.05\n{sizes}")
    code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    out, err = capfd.readouterr()
    assert code == EXIT_CONFIG
    (line,) = out.strip().splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["kind"]) == (EXIT_CONFIG, "config")
    assert "Unable to allocate" in error["messages"][0]
    assert "Traceback" not in err


@pytest.mark.parametrize("penalty, rounds", [("1e308", 0), ("1e306", 3)])
def test_main_overflowing_penalty_schedule_is_config_error(tmp_path, capsys, penalty, rounds):
    messages = _main_config_error(
        tmp_path, capsys,
        "kind = rate\ngrid.n = 7\ntime.steps = 10\nrate.slabs = 5\n"
        f"rate.penalty = {penalty}\nrate.continuation = {rounds}\n",
    )
    assert "rate.penalty" in messages and "rate.continuation" in messages


def _main_config_error(tmp_path, capsys, text):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["error"]["code"] == EXIT_CONFIG
    assert payload["error"]["kind"] == "config"
    return "\n".join(payload["error"]["messages"])


@pytest.mark.parametrize(
    "key",
    [
        "time.horizon", "model.nu1", "model.nu2", "model.mu", "noise.alpha",
        "rate.penalty", "rate.tolerance",
    ],
)
def test_main_non_finite_value_is_config_error(tmp_path, capsys, key):
    messages = _main_config_error(tmp_path, capsys, f"kind = rate\n{key} = inf\n")
    assert key in messages and "finite" in messages


@pytest.mark.parametrize("key", ["rate.fd_bump", "rate.step_size"])
def test_main_fd_bump_is_unknown_key(tmp_path, capsys, key):
    # removed optimizer knobs are config errors, not silently ignored settings
    messages = _main_config_error(tmp_path, capsys, f"kind = rate\n{key} = 1e-3\n")
    assert f"unknown key '{key}'" in messages


@pytest.mark.parametrize(
    "key, content",
    [
        ("weak.control", "step,k,x,coefficient\n0,1,3,0.5\n"),
        ("rate.target", "node_index,ux,uy,uz\n0,0.1,0.2\n"),
        ("rate.target", "node_index,ux,uy,uz\n0,0.1,0.2,zero\n"),
        ("rate.target", "node_index,ux,uy,uz\n0,0.1,0.2,nan\n"),
        (
            "weak.control",
            "step,k,j,coefficient\n" + "".join(f"{n},1,3,0.5\n" for n in range(9)) + "9,1,3,inf\n",
        ),
        # indices far outside the run must not size an allocation
        ("weak.control", "step,k,j,coefficient\n9,1,1,0.5\n1000000000000,1,1,0.5\n"),
        ("weak.control", "step,k,j,coefficient\n9,1,1,0.5\n0,100000000000,1,0.5\n"),
    ],
    ids=[
        "control-bad-header", "target-short-row", "target-non-numeric", "target-non-finite",
        "control-non-finite", "control-step-out-of-range", "control-mode-out-of-range",
    ],
)
def test_main_malformed_input_csv_is_config_error(tmp_path, capsys, key, content):
    data = tmp_path / "input.csv"
    data.write_text(content)
    kind = "weak-convergence" if key == "weak.control" else "rate"
    messages = _main_config_error(
        tmp_path, capsys,
        f"kind = {kind}\ngrid.n = 7\ntime.horizon = 0.05\ntime.steps = 10\n"
        f"noise.modes = 2\n{key} = {data}\n",
    )
    assert str(data) in messages


def test_main_repeated_target_node_is_config_error(tmp_path, capsys):
    # node 3 listed twice: the second row would silently replace the first
    data = tmp_path / "target.csv"
    rows = [f"{i},0.5,0.1,0.2\n" for i in range(7)]
    rows.insert(4, "3,9.0,9.0,9.0\n")
    data.write_text("node_index,ux,uy,uz\n" + "".join(rows))
    messages = _main_config_error(
        tmp_path, capsys,
        "kind = rate\ngrid.n = 7\ntime.horizon = 0.01\ntime.steps = 10\nnoise.modes = 2\n"
        f"rate.target = {data}\n",
    )
    assert messages == f"rate.target: {data}: line 6: node index 3 repeated"


def test_main_target_node_outside_the_grid_names_its_line(tmp_path, capsys):
    # a row for node 9 of a 7-node grid is named by its line, as every other row error is
    data = tmp_path / "target.csv"
    rows = [f"{i},0.5,0.1,0.2\n" for i in range(7)]
    rows.insert(2, "9,0.5,0.1,0.2\n")
    data.write_text("node_index,ux,uy,uz\n" + "".join(rows))
    messages = _main_config_error(
        tmp_path, capsys,
        "kind = rate\ngrid.n = 7\ntime.horizon = 0.01\ntime.steps = 10\nnoise.modes = 2\n"
        f"rate.target = {data}\n",
    )
    assert messages == f"rate.target: {data}: line 4: node index 9 outside grid of 7"


def test_main_repeated_control_row_is_config_error(tmp_path, capsys):
    # step 4 listed twice for the same mode and component
    data = tmp_path / "control.csv"
    rows = [f"{n},1,3,0.5\n" for n in range(10)]
    rows.insert(5, "4,1,3,2.0\n")
    data.write_text("step,k,j,coefficient\n" + "".join(rows))
    messages = _main_config_error(
        tmp_path, capsys,
        "kind = weak-convergence\ngrid.n = 7\ntime.horizon = 0.05\ntime.steps = 10\n"
        f"noise.modes = 2\nweak.control = {data}\n",
    )
    assert messages == f"weak.control: {data}: line 7: index row ['4', '1', '3', '2.0'] repeated"


@pytest.mark.parametrize("key", ["weak.control", "compact.control", "rate.target"])
def test_main_non_utf8_input_table_is_config_error(tmp_path, capsys, key):
    # the table is read as UTF-8 whatever the locale; the message names the key and the file
    data = tmp_path / "input.csv"
    data.write_bytes(b"step,k,j,coefficient\n0,1,3,0.5\xff\n")
    kind = {"weak": "weak-convergence", "compact": "compactness", "rate": "rate"}[key.split(".")[0]]
    messages = _main_config_error(
        tmp_path, capsys,
        f"kind = {kind}\ngrid.n = 7\ntime.horizon = 0.05\ntime.steps = 10\n"
        f"noise.modes = 8\n{key} = {data}\n",
    )
    assert messages == f"{key}: {data}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("value", [1.0e200, 577.5], ids=["overflowing", "norm-above"])
def test_main_rate_target_above_the_blow_up_ceiling_is_config_error(tmp_path, capsys, value):
    # a skeleton state above the ceiling is a blow-up, so no control reaches the
    # target. Near 1e200 its squares overflow; 577.5 in every component stays
    # below the ceiling, but |u| = 577.5 sqrt(3) exceeds it
    data = tmp_path / "target.csv"
    data.write_text(
        "node_index,ux,uy,uz\n" + "".join(f"{i},{value!r},{value!r},{value!r}\n" for i in range(7))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        messages = _main_config_error(
            tmp_path, capsys,
            "kind = rate\ngrid.n = 7\ntime.horizon = 0.01\ntime.steps = 10\nnoise.modes = 2\n"
            f"rate.max_iters = 2\nrate.target = {data}\n",
        )
    assert messages == (
        f"rate.target: {data}: a node's |u| exceeds the blow-up ceiling 1000, "
        "which no skeleton state reaches"
    )


def test_main_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == EXIT_IO


def test_main_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv, needle",
    [([], "--config"), (["--config", "exp.cfg", "--threads", "2"], "--threads")],
    ids=["missing-config", "unknown-flag"],
)
def test_main_usage_error_prints_json_error(capsys, argv, needle):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip())
    assert payload["error"]["code"] == EXIT_CONFIG
    assert payload["error"]["kind"] == "usage"
    assert needle in payload["error"]["message"]
    assert "usage:" in captured.err


def test_run_ensemble_zero_initial_state_has_no_ratio(tmp_path):
    # the noise enters as u x dB, so every run stays at zero: nothing to divide by
    cfg = parse_config(
        "kind = stochastic-ensemble\ngrid.n = 15\ntime.horizon = 0.02\ntime.steps = 10\n"
        "noise.modes = 2\nensemble.epsilons = 0.1\nensemble.samples = 2\n"
        "init.a = 0\ninit.b = 0\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["deterministic_sup_grad_sq"] == 0.0
    row = summary["rows"][0]
    assert row["ratio_vs_deterministic"] is None
    assert row["n_ok"] == 2 and row["mean_sup_grad_sq"] == 0.0
