import contextlib
import csv
import hashlib
import io
import json
import math
import os
import tempfile
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
    EXIT_SUITE_FAILED,
    KEY_TABLE,
    KINDS,
    ConfigError,
    main,
    parse_config,
    run,
)
from llblab.clt import write_json
from llblab.dynamics import (
    BlowUpError,
    SystemKind,
    integrate,
    integrate_batch,
    write_fields_csv,
    write_report_csv,
)
from llblab.field import STACK_CHUNK, stack_norms
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
    import llblab.analysis as analysis_module
    import llblab.dynamics as dynamics_module
    import llblab.field as field_module

    # the report, the energy drift and the final norms share one norm pass
    stacks = []

    def counted_stack_norms(stack, h, work=None):
        stacks.append(len(stack))
        return stack_norms(stack, h, work)

    for module in (analysis_module, dynamics_module, field_module):
        monkeypatch.setattr(module, "stack_norms", counted_stack_norms)
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
    final = stack_norms(rec.final_values()[None], rec.grid.spacing)[0]
    final_l2, final_h1_semi = final[:2].tolist()
    _, cfl = integrate_batch(
        (SystemKind.DETERMINISTIC,), (config.initial(),), config.model_params(),
        config.time_grid(), lambda n, u: None,
    )
    write_json(
        outdir / "summary.json",
        {
            "final_l2": final_l2,
            "final_h1_semi": final_h1_semi,
            "energy_drift": energy_drift(rec),
            "explicit_cfl": cfl,
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


def test_main_manifest_path_that_is_a_directory_is_io_error(tmp_path, capfd):
    # the outputs are written and hashed, then the manifest cannot be: the run
    # exits 4 with one JSON error object, not with a traceback
    out_dir = tmp_path / "out"
    (out_dir / "manifest.json").mkdir(parents=True)
    config_path = tmp_path / "v.cfg"
    config_path.write_text("kind = validate\nvalidate.samples = 5\nvalidate.grids = 7\n")
    code = main(["--config", str(config_path), "--out", str(out_dir)])
    out, err = capfd.readouterr()
    assert code == EXIT_IO
    (line,) = out.strip().splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["kind"]) == (EXIT_IO, "io")
    assert "manifest.json" in error["message"]
    assert "Traceback" not in err


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
    from llblab.noise import single_mode_control, stream_rng

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
        rngs=[loud_stream(99, 0, 1)],
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


def test_run_weak_at_zero_noise_writes_positive_zeros(tmp_path):
    # at epsilon 0 the controlled flow is the skeleton, bitwise: each metric
    # is the positive zero of a zero deviation, and so are its mean and error
    cfg = parse_config(
        "kind = weak-convergence\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 80\n"
        "noise.modes = 4\nweak.epsilons = 0.1, 0\nweak.samples = 3\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    rows = (tmp_path / "weak_report.csv").read_text().splitlines()
    assert rows[0] == "epsilon,mean_metric,std_error,n_ok,n_failed"
    assert float(rows[1].split(",")[1]) > 0.0
    assert rows[2] == "0.0,0.0,0.0,3,0"


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


def _first_noiseless_blow_up(config):
    """The BlowUpError that ``integrate`` raises for the noiseless run of
    ``config`` that fails first: u_0 of a deterministic or clt run; of a
    compactness run, the skeleton, base or probe, that fails at the earliest
    step, the first of them in system order (base, then probes in order) on a
    tie. None when every such run ends."""
    from llblab.dynamics import BlowUpError, SystemKind, integrate
    from llblab.noise import single_mode_control, zero_control

    u0, params, tgrid, spec = (
        config.initial(), config.model_params(), config.time_grid(), config.covariance()
    )
    if config["kind"] == "compactness":
        amplitude = math.sqrt(1.0 / tgrid.horizon)
        runs = [(SystemKind.SKELETON, zero_control(tgrid.steps, spec.mode_count, tgrid.dt))] + [
            (SystemKind.SKELETON, single_mode_control(
                tgrid.steps, spec.mode_count, tgrid.dt, mode, config["compact.component"],
                amplitude,
            ))
            for mode in config["compact.modes"]
        ]
    else:
        runs = [(SystemKind.DETERMINISTIC, None)]
    failures = []
    for kind, ctrl in runs:
        try:
            integrate(kind, u0, params, tgrid, spec=spec, ctrl=ctrl)
        except BlowUpError as exc:
            failures.append(exc)
    return min(failures, key=lambda exc: exc.step, default=None)


ONE_ERROR_PATH = {
    "deterministic": (
        "kind = deterministic\ngrid.n = 63\ntime.horizon = 1.0\ntime.steps = 100\n"
        "model.gamma = 500\n"
    ),
    # every sample retires before the reference blows up at step 105
    "clt-reference": (
        "kind = clt\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 400\nnoise.modes = 8\n"
        "model.gamma = 4\nclt.epsilons = 1.0, 0.5\nclt.samples = 2\nseed = 5\n"
    ),
    # the base and both probes fail at step 5, probe 2 with the largest |u|_inf
    "compactness": (
        "kind = compactness\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 40\n"
        "noise.modes = 8\ncompact.modes = 2,4\nmodel.gamma = 60\n"
    ),
}


@pytest.mark.parametrize("text", ONE_ERROR_PATH.values(), ids=ONE_ERROR_PATH)
def test_exit_3_carries_the_blow_up_of_the_failing_noiseless_run(tmp_path, capfd, text):
    # a noiseless run is a shared column that raises its own BlowUpError: the
    # one exit-3 JSON object carries the step, key None, |u|_inf and ratio
    # that integrate of that run raises, not those of any other column
    exc = _first_noiseless_blow_up(parse_config(text))
    assert exc is not None
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    out, _ = capfd.readouterr()
    assert code == EXIT_BLOWUP
    assert json.loads(out) == {
        "error": {
            "code": EXIT_BLOWUP, "kind": "blow-up", "message": str(exc), "step": exc.step,
            "key": None, "linf": exc.linf, "ratio": exc.ratio,
        }
    }


def test_run_compactness_blow_up_reports_the_first_skeleton_to_cross(tmp_path, capsys, monkeypatch):
    # the base and the probes march as shared columns of one batch, so the run
    # stops at the first step where any skeleton crosses the ceiling, with that
    # skeleton's own error: mode 4's, though mode 1, listed first, crosses
    # later and the base never does
    import llblab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "LINF_CEILING", 1.01)
    text = (
        "kind = compactness\ngrid.n = 15\ntime.horizon = 0.05\ntime.steps = 40\n"
        "noise.modes = 4\ncompact.modes = 1, 4\ncompact.component = 1\n"
        "model.nu1 = 0.01\nmodel.nu2 = 0\n"
    )
    cfg = parse_config(text)
    exc = _first_noiseless_blow_up(cfg)
    alone = {
        mode: _first_noiseless_blow_up(parse_config(text.replace("1, 4", str(mode))))
        for mode in (1, 4)
    }
    assert alone[4].step < alone[1].step
    assert (str(exc), exc.linf, exc.ratio) == (str(alone[4]), alone[4].linf, alone[4].ratio)
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_BLOWUP
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert (error["code"], error["step"], error["key"]) == (EXIT_BLOWUP, exc.step, None)
    assert (error["message"], error["linf"], error["ratio"]) == (str(exc), exc.linf, exc.ratio)


def test_run_ensemble_outputs(tmp_path):
    cfg = parse_config(
        "kind = stochastic-ensemble\ngrid.n = 31\ntime.horizon = 0.02\ntime.steps = 40\n"
        "noise.modes = 4\nensemble.epsilons = 0.1\nensemble.samples = 3\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rows"][0]["n_ok"] == 3
    assert 0.0 < summary["rows"][0]["ratio_vs_deterministic"] < 3.0


def test_run_ensemble_samples_at_epsilon_zero_average_to_the_deterministic_metric(tmp_path):
    # each sample at epsilon 0 has the deterministic run's bits, so its row's
    # mean is exactly the deterministic metric and its ratio exactly 1
    cfg = parse_config(
        "kind = stochastic-ensemble\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 80\n"
        "noise.modes = 4\nensemble.epsilons = 0.1, 0.01, 0\nensemble.samples = 5\nseed = 3\n"
    )
    assert run(cfg, out_dir=str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    row = summary["rows"][2]
    assert (row["epsilon"], row["n_ok"]) == (0.0, 5)
    assert row["mean_metric"] == summary["deterministic_metric"] > 0.0
    assert row["ratio_vs_deterministic"] == 1.0


def test_error_object_spells_non_finite_details_as_null(capsys):
    # JSON has no inf or nan: the error object takes write_json's rule, so a
    # non-finite detail prints as null in one line of strict JSON
    from llblab.cli import _error

    assert _error(EXIT_BLOWUP, "blow-up", linf=math.nan, ratio=-math.inf, key=(1, 0, 2)) == 3
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line, parse_constant=_no_constant) == {
        "error": {"code": 3, "kind": "blow-up", "linf": None, "ratio": None, "key": [1, 0, 2]},
    }


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


def test_clt_reference_blows_up_after_every_sample_retired():
    # at gamma = 4 the noise drives every sample past the ceiling before the
    # deterministic reference blows up at step 105: the reference marches on
    # alone, and its own error ends the run (ONE_ERROR_PATH["clt-reference"])
    from llblab.dynamics import BlowUpError, SystemKind, integrate
    from llblab.noise import stream_rng

    config = parse_config(ONE_ERROR_PATH["clt-reference"])
    u0, params, tgrid = config.initial(), config.model_params(), config.time_grid()
    with pytest.raises(BlowUpError) as reference:
        integrate(SystemKind.DETERMINISTIC, u0, params, tgrid)
    assert reference.value.step == 105
    # u_eps of each sample on its stream; with its V0 beside it, it retires no later
    keys = [(5, i, m) for i in range(2) for m in range(2)]
    _, failed = record_batch(
        (SystemKind.STOCHASTIC,), (np.repeat(u0[..., None], 4, axis=2),), params, tgrid,
        keys=keys, spec=config.covariance(), epsilons=(1.0, 1.0, 0.5, 0.5),
        rngs=[stream_rng(*key) for key in keys],
    )
    assert sorted(f.key for f in failed) == keys
    assert all(f.step < reference.value.step for f in failed)


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
    from llblab.noise import stream_rng

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
    assert np.isfinite(summary["rows"][0]["mean_metric"])
    (failure,) = summary["failures"]
    assert (failure["eps_index"], failure["sample"]) == (0, 1) and failure["step"] > 0
    report = (tmp_path / "ensemble_report.csv").read_text().splitlines()
    assert report[2] == "0.1,1,nan,blow-up"
    tgrid = cfg.time_grid()
    _, (exc,) = record_batch(
        (SystemKind.STOCHASTIC,), (cfg.initial()[..., None],),
        cfg.model_params(), tgrid, spec=cfg.covariance(),
        rngs=[loud_stream(8, 0, 1)],
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


def test_main_reports_an_unknown_kind_once(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("kind = bogus\n")
    assert main(["--config", str(config_path)]) == EXIT_CONFIG
    messages = json.loads(capsys.readouterr().out.strip())["error"]["messages"]
    assert messages == [f"kind: must be one of {', '.join(KINDS)}, got 'bogus'"]


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


# from zero, each of these runs met inf * 0 = nan: a blow-up, a null ratio, or
# every sample retired. (kind, keys set over ZERO_RUN, keys the error names)
OVERFLOWING_STEPS = {
    "dt-nu1": ("deterministic", {"model.nu1": 1.7e308}, ["model.nu1", "grid.n"]),
    "helmholtz-diagonal": (
        "deterministic",
        {"model.nu1": 1e305, "grid.n": 999, "time.horizon": 1, "time.steps": 1},
        ["model.nu1", "grid.n"],
    ),
    "dt-gamma": ("compactness", {"model.gamma": 1.7e308}, ["model.gamma", "grid.n"]),
    "dt-nu2": ("weak-convergence", {"model.nu2": 1e308}, ["model.nu2"]),
    "2-dt-nu2": ("clt", {"model.nu2": 1.7e308, "time.horizon": 2}, ["model.nu2"]),
    "explicit-term-scale": (
        "deterministic",
        {"model.gamma": 1e306, "grid.n": 999, "time.horizon": 1, "time.steps": 1},
        ["model.gamma", "grid.n"],
    ),
}
ZERO_RUN = {
    "grid.n": 7, "noise.modes": 2, "time.horizon": 4, "time.steps": 2, "init.a": 0, "init.b": 0
}


@pytest.mark.parametrize("kind, values, keys", OVERFLOWING_STEPS.values(), ids=OVERFLOWING_STEPS)
def test_main_step_scalar_beyond_the_double_range_is_config_error(
    tmp_path, capsys, kind, values, keys
):
    text = "".join(f"{key} = {value}\n" for key, value in {**ZERO_RUN, **values}.items())
    messages = _main_config_error(tmp_path, capsys, f"kind = {kind}\n{text}")
    for key in keys + ["time.horizon", "time.steps"]:
        assert key in messages
    assert "double range" in messages


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


INPUT_TABLES = {
    "weak.control": ("weak-convergence", "step,k,j,coefficient", "9,1,3,0.5"),
    "compact.control": ("compactness", "step,k,j,coefficient", "9,1,3,0.5"),
    "rate.target": ("rate", "node_index,ux,uy,uz", "3,0.5,0.1,0.2"),
}
# case -> the bad line 3 of a control file and of a rate target, after the header and
# one good row, and the message of each after the file's name (None: the header is bad)
MALFORMED_TABLES = {
    "wrong-header": (
        None, None,
        "expected header 'step,k,j,coefficient'", "expected header 'node_index,ux,uy,uz'",
    ),
    "short-row": (
        "9,1,3", "3,0.5,0.1",
        "line 3: expected integer step, k, j and finite coefficient, got ['9', '1', '3']",
        "line 3: expected integer node_index and finite ux, uy, uz, got ['3', '0.5', '0.1']",
    ),
    # a field past the header's names is refused, not dropped
    "long-row": (
        "9,1,3,0.5,99", "3,0.5,0.1,0.2,99",
        "line 3: expected integer step, k, j and finite coefficient, "
        "got ['9', '1', '3', '0.5', '99']",
        "line 3: expected integer node_index and finite ux, uy, uz, "
        "got ['3', '0.5', '0.1', '0.2', '99']",
    ),
    "non-integer-index": (
        "9,1.0,3,0.5", "three,0.5,0.1,0.2",
        "line 3: expected integer step, k, j and finite coefficient, got ['9', '1.0', '3', '0.5']",
        "line 3: expected integer node_index and finite ux, uy, uz, "
        "got ['three', '0.5', '0.1', '0.2']",
    ),
    "non-finite-value": (
        "9,1,3,nan", "3,0.5,-inf,0.2",
        "line 3: expected integer step, k, j and finite coefficient, got ['9', '1', '3', 'nan']",
        "line 3: expected integer node_index and finite ux, uy, uz, "
        "got ['3', '0.5', '-inf', '0.2']",
    ),
    "index-out-of-range": (
        "9,3,3,0.5", "7,0.5,0.1,0.2",
        "line 3: k = 3 outside 1..2", "line 3: node_index = 7 outside 0..6",
    ),
    # negative: an unchecked index would count from the end of the array
    "negative-index": (
        "-1,1,3,0.5", "-1,0.5,0.1,0.2",
        "line 3: step = -1 outside 0..9", "line 3: node_index = -1 outside 0..6",
    ),
    # far outside the run: must not size an allocation
    "huge-index": (
        "1000000000000,1,3,0.5", "1000000000000,0.5,0.1,0.2",
        "line 3: step = 1000000000000 outside 0..9",
        "line 3: node_index = 1000000000000 outside 0..6",
    ),
    # the second row would silently replace the first
    "repeated-index-row": (
        "9,1,3,2.0", "3,9.0,9.0,9.0",
        "line 3: index row 9,1,3 repeated", "line 3: index row 3 repeated",
    ),
    # read as UTF-8 whatever the locale
    "not-utf-8": (
        "9,1,3,0.5\udcff", "3,0.5,0.1,0.2\udcff",
        "not UTF-8 text (invalid start byte)", "not UTF-8 text (invalid start byte)",
    ),
    # the csv module's limit on one field
    "oversized-field": (
        "9,1,3," + "1" * 200_000, "3,0.5,0.1," + "1" * 200_000,
        "line 3: field larger than field limit (131072)",
        "line 3: field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_TABLES)
@pytest.mark.parametrize("key", INPUT_TABLES)
def test_main_malformed_input_table_names_key_file_and_line(tmp_path, capsys, key, case):
    # both tables go through one reader: every malformed case is exit 2 with one
    # message that names the key, the file and, for a row, its line
    kind, header, good = INPUT_TABLES[key]
    control = key != "rate.target"
    control_row, target_row, control_message, target_message = MALFORMED_TABLES[case]
    bad, message = (control_row, control_message) if control else (target_row, target_message)
    if bad is None:
        header, bad = header.replace(header.split(",")[-1], "value"), good
    data = tmp_path / ("control.csv" if control else "target.csv")
    # the surrogate escape writes the one byte 0xff, which is not UTF-8
    data.write_bytes(f"{header}\n{good}\n{bad}\n".encode("utf-8", "surrogateescape"))
    compact = "compact.modes = 1, 2\n" if kind == "compactness" else ""
    messages = _main_config_error(
        tmp_path, capsys,
        f"kind = {kind}\ngrid.n = 7\ntime.horizon = 0.05\ntime.steps = 10\nnoise.modes = 2\n"
        f"{compact}{key} = {data}\n",
    )
    assert messages == f"{key}: {data}: {message}"


@pytest.mark.parametrize("key", INPUT_TABLES)
def test_main_input_table_header_with_an_extra_column_is_config_error(tmp_path, capsys, key):
    # a column the reader does not know is refused, not dropped with its values
    kind, header, good = INPUT_TABLES[key]
    data = tmp_path / "table.csv"
    data.write_text(f"{header},extra\n{good},99\n")
    compact = "compact.modes = 1, 2\n" if kind == "compactness" else ""
    messages = _main_config_error(
        tmp_path, capsys,
        f"kind = {kind}\ngrid.n = 7\ntime.horizon = 0.05\ntime.steps = 10\nnoise.modes = 2\n"
        f"{compact}{key} = {data}\n",
    )
    assert messages == f"{key}: {data}: expected header '{header}'"


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
    assert messages == f"rate.target: {data}: line 6: index row 3 repeated"


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
    assert messages == f"rate.target: {data}: line 4: node_index = 9 outside 0..6"


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
    assert messages == f"weak.control: {data}: line 7: index row 4,1,3 repeated"


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
    assert summary["deterministic_metric"] == 0.0
    row = summary["rows"][0]
    assert row["ratio_vs_deterministic"] is None
    assert row["n_ok"] == 2 and row["mean_metric"] == 0.0


# --- a run-level property over the config space -----------------------------------------

EXTREME = {
    "time.horizon": [1e-9, 1e-3, 0.05, 1.0, 1e3],
    "model.nu1": [1e-300, 1e-6, 1.0, 1e6, 1e300],
    "model.nu2": [0.0, 1.0, 1e3, 1e300],
    "model.gamma": [-1e300, -5.0, 0.0, 1.0, 1e3, 1e300],
    "model.mu": [0.0, 1.0, 1e300],
    "init.a": [0.0, 1e-300, 0.5, 1.0, 999.0, 1e300],
    "init.b": [0.0, -0.5, 2.0, -1e3],
    "noise.alpha": [3.000001, 4.0, 1e300],
}
TABLE_VALUES = [0.0, -1.0, 0.5, 999.0, 1e200]


@st.composite
def tiny_configs(draw, kinds=KINDS):
    """A config of one of ``kinds`` at 3-9 nodes and 1-12 steps, with extreme but
    accepted values, and the input tables it names as (key, kind of table, value)."""
    kind = draw(st.sampled_from(kinds))
    nodes, steps, modes = draw(st.integers(3, 9)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    keys = {"kind": kind, "grid.n": nodes, "time.steps": steps, "noise.modes": modes}
    keys["seed"] = draw(st.integers(0, 2**64))
    for key, choices in EXTREME.items():
        keys[key] = draw(st.sampled_from(choices))
    epsilons = st.lists(st.sampled_from([0.0, 1e-300, 0.01, 0.5, 1.0]), min_size=1, max_size=3)
    samples = st.integers(1, 3)
    mode = st.integers(1, modes)
    component = st.integers(1, 3)
    tables = []
    if kind == "validate":
        keys["validate.samples"] = draw(samples)
        grids = draw(st.lists(st.integers(3, 9), min_size=1, max_size=2))
        keys["validate.grids"] = ", ".join(map(str, grids))
    elif kind == "deterministic":
        keys["deterministic.dump_fields"] = draw(st.booleans())
    elif kind == "stochastic-ensemble":
        keys["ensemble.epsilons"] = ", ".join(map(repr, draw(epsilons)))
        keys["ensemble.samples"] = draw(samples)
    elif kind == "clt":
        chosen = draw(st.lists(st.sampled_from([1.0, 0.5, 1e-3, 1e-300]), min_size=1, max_size=3))
        keys["clt.epsilons"] = ", ".join(map(repr, sorted(set(chosen), reverse=True)))
        keys["clt.samples"] = draw(st.integers(2, 3))
    elif kind == "weak-convergence":
        keys["weak.epsilons"] = ", ".join(map(repr, draw(epsilons)))
        keys["weak.samples"] = draw(samples)
        keys["weak.mode"], keys["weak.component"] = draw(mode), draw(component)
        keys["weak.coefficient"] = draw(st.sampled_from([-1e300, 0.0, 0.5, 1e300]))
        if draw(st.booleans()):
            tables.append(("weak.control", "control", draw(st.sampled_from(TABLE_VALUES))))
    elif kind == "rate":
        keys["rate.penalty"] = draw(st.sampled_from([1e-300, 1.0, 1e3, 1e300]))
        keys["rate.modes"] = draw(mode)
        divisors = [s for s in range(1, steps + 1) if steps % s == 0]
        keys["rate.slabs"] = draw(st.sampled_from(divisors))
        keys["rate.max_iters"] = draw(st.integers(1, 3))
        keys["rate.tolerance"] = draw(st.sampled_from([1e-300, 1e-4, 1e300]))
        keys["rate.continuation"] = draw(st.integers(0, 2))
        if draw(st.booleans()):
            tables.append(("rate.target", "target", draw(st.sampled_from(TABLE_VALUES))))
    else:
        keys["compact.modes"] = ", ".join(map(str, draw(st.lists(mode, min_size=1, max_size=3))))
        keys["compact.component"] = draw(component)
        if draw(st.booleans()):
            tables.append(("compact.control", "control", draw(st.sampled_from(TABLE_VALUES))))
    return keys, tables


def _write_table(path, table, value, keys):
    """A control file that sets every (step, mode, component) to ``value``, or a
    rate target whose every node is (value, -value, value)."""
    if table == "control":
        header = "step,k,j,coefficient"
        index = np.indices((keys["time.steps"], keys["noise.modes"], 3)).reshape(3, -1).T
        rows = [[n, k + 1, j + 1, value] for n, k, j in index.tolist()]
    else:
        header = "node_index,ux,uy,uz"
        rows = [[i, value, -value, value] for i in range(keys["grid.n"])]
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))


def _leaves(value, path=()):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _documented_nulls(payload, keys):
    """The nulls the README documents in a summary: the statistics of an epsilon
    whose samples all blew up, the ratio of a deterministic sup of zero, the fit
    of fewer than three positive means, and an energy balance beyond the double
    range, which a state within the blow-up ceiling on 3-9 nodes reaches only
    under a dissipation weight 2 dt nu of about 1e290 or more."""
    rows = payload.get("rows", [])
    allowed = set()
    dt = keys["time.horizon"] / keys["time.steps"]
    if 2.0 * dt * max(keys["model.nu1"], keys["model.nu2"]) >= 1e290:
        allowed.add(("energy_drift",))
    for i, row in enumerate(rows):
        if row.get("n_ok") == 0:
            allowed |= {("rows", i, key) for key in row}
        if payload.get("deterministic_metric") == 0.0:
            allowed.add(("rows", i, "ratio_vs_deterministic"))
    positive = [row for row in rows if row.get("n_ok") and (row.get("mean_error") or 0.0) > 0.0]
    if len(positive) < 3:
        allowed |= {("slope",), ("intercept",), ("fit_residual",)}
    return allowed


def _no_constant(name):
    raise AssertionError(f"JSON holds {name}")


def _run_main(tmp, keys, tables):
    """``main`` on the config ``keys``, with the input ``tables`` written into the
    directory ``tmp`` and the outputs into tmp/out; returns the exit code, stdout
    and the messages of every warning raised."""
    for key, table, value in tables:
        keys[key] = os.path.join(tmp, f"{table}.csv")
        _write_table(keys[key], table, value, keys)
    config = os.path.join(tmp, "exp.cfg")
    with open(config, "w") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in keys.items()))
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        code = main(["--config", config, "--out", os.path.join(tmp, "out")])
    return code, out.getvalue(), [str(w.message) for w in caught]


TINY_BASE = {
    "grid.n": 3, "time.steps": 1, "noise.modes": 1, "seed": 0, "time.horizon": 1e-9,
    "model.nu1": 1e-300, "model.nu2": 0.0, "model.gamma": -1e300, "model.mu": 0.0,
    "init.a": 0.0, "init.b": 0.0, "noise.alpha": 3.000001,
}


@settings(max_examples=40, deadline=None)
@given(tiny_configs())
# a weak-convergence control whose H0 cost overflows: a config error naming the key,
# where the run wrote "control_cost": null
@example((
    dict(TINY_BASE, kind="weak-convergence", **{
        "weak.epsilons": "0.0", "weak.samples": 1, "weak.mode": 1, "weak.component": 1,
        "weak.coefficient": -1e300,
    }), [],
))
# no damping (nu2 = 0) under a huge mu: 0 * inf made the energy drift nan, written as null
@example((
    dict(TINY_BASE, kind="deterministic", **{
        "model.mu": 1e300, "init.b": -1000.0, "deterministic.dump_fields": False,
    }), [],
))
# a rate problem whose tangent damping weight 2 dt nu2 mu overflows, over a skeleton at
# zero: inf * 0 in the adjoint sweep raised a numpy warning
@example((
    dict(TINY_BASE, kind="rate", **{
        "model.nu2": 1e300, "model.mu": 1e300, "rate.penalty": 1e-300, "rate.modes": 1,
        "rate.slabs": 1, "rate.max_iters": 1, "rate.tolerance": 1e-300, "rate.continuation": 0,
    }), [],
))
def test_main_exits_with_a_documented_code_and_finite_results(drawn):
    # every run of every kind ends with its documented exit code, one JSON error
    # object on stdout for exits 2-4 and nothing there otherwise, no warning of
    # numpy or Python, and on exit 0 JSON outputs whose only nulls are the documented ones
    keys, tables = dict(drawn[0]), drawn[1]
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, caught = _run_main(tmp, keys, tables)
        assert not caught, caught
        if code in (EXIT_CONFIG, EXIT_BLOWUP, EXIT_IO):
            (line,) = stdout.splitlines()
            assert json.loads(line, parse_constant=_no_constant)["error"]["code"] == code
            return
        assert code == EXIT_OK or (code == EXIT_SUITE_FAILED and keys["kind"] == "validate")
        assert stdout == ""
        outdir = os.path.join(tmp, "out")
        # the manifest lists every file of the run's directory but itself, and nothing else
        with open(os.path.join(outdir, "manifest.json")) as fh:
            listed = set(json.load(fh)["outputs"])
        assert listed == set(os.listdir(outdir)) - {"manifest.json"}
        for name in sorted(os.listdir(outdir)):
            if name.endswith(".json"):
                with open(os.path.join(outdir, name)) as fh:
                    payload = json.loads(fh.read(), parse_constant=_no_constant)
                nulls = {where for where, value in _leaves(payload) if value is None}
                assert nulls <= _documented_nulls(payload, keys), (name, nulls)


# --- zero is a fixed point ------------------------------------------------------------

# the CSV columns of a run from zero that hold a norm, a metric, an error or a failure count
ZERO_COLUMNS = {
    "trajectory_report.csv": ("l2", "h1_semi", "h2_semi", "linf"),
    "fields.csv": ("ux", "uy", "uz"),
    "ensemble_report.csv": ("metric",),
    "clt_report.csv": ("mean_error", "std_error", "n_failed"),
    "weak_report.csv": ("mean_metric", "std_error", "n_failed"),
    "compactness_report.csv": ("metric",),
    "control.csv": ("coefficient",),
}
# the same in the JSON summaries
ZERO_KEYS = {
    "final_l2", "final_h1_semi", "energy_drift", "explicit_cfl", "deterministic_metric",
    "mean_error", "std_error", "mean_metric", "metric", "n_failed",
    "n_failures", "cost", "misfit", "gradient_norm", "target_h1",
}


def _stays_at_zero(drawn):
    # a weak-convergence control of |c| >= 1e200 has an H0 cost sum_n dt |c_n|^2
    # beyond the double range: a config error whatever the initial state; a rate
    # target is one that a skeleton at zero cannot reach
    keys, tables = drawn
    values = [value for _, _, value in tables] or [keys.get("weak.coefficient", 0.0)]
    if keys["kind"] == "weak-convergence":
        return max(map(abs, values)) < 1e200
    return keys["kind"] != "rate" or not tables


@settings(max_examples=40, deadline=None)
@given(tiny_configs().filter(_stays_at_zero))
# the linearized damping weight 2 dt nu2 mu overflows: inf * (b.v = 0) retired every sample
@example((
    dict(TINY_BASE, kind="clt", **{
        "grid.n": 7, "time.steps": 3, "noise.modes": 2, "model.nu2": 1e300, "model.mu": 1e300,
        "clt.epsilons": "0.5, 0.25, 0.125", "clt.samples": 2,
    }), [],
))
# the adjoint sweep's tangent weight 2 dt nu2 mu overflows over a skeleton at zero:
# inf * (u.w = 0) made a nan sensitivity, an exit 3
@example((
    dict(TINY_BASE, kind="rate", **{
        "grid.n": 7, "time.steps": 10, "noise.modes": 2, "model.nu2": 1e300, "model.mu": 1e300,
        "rate.penalty": 1e3, "rate.modes": 1, "rate.slabs": 1, "rate.max_iters": 3,
        "rate.tolerance": 1e-4, "rate.continuation": 1,
    }), [],
))
def test_main_from_zero_reports_exact_zeros(drawn):
    # the noise and the control enter through u x (.), and the damping is
    # proportional to u: from u_0 = 0 every run of every kind stays at zero, at
    # any accepted parameters, and a rate problem without a target, whose
    # target is then zero, has zero cost, misfit and gradient. Exit 0, no
    # warning, no failure and exact zeros; the only nulls are the ratio to a
    # deterministic sup of zero and the slope fit, which needs three positive means
    keys, tables = dict(drawn[0], **{"init.a": 0.0, "init.b": 0.0}), drawn[1]
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, caught = _run_main(tmp, keys, tables)
        assert (code, stdout, caught) == (EXIT_OK, "", [])
        outdir = os.path.join(tmp, "out")
        for name in sorted(os.listdir(outdir)):
            path = os.path.join(outdir, name)
            if name.endswith(".csv") and name != "identity_report.csv":
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                for column in ZERO_COLUMNS[name]:
                    assert all(float(row[column]) == 0.0 for row in rows), (name, column)
                assert all(row.get("status", "ok") == "ok" for row in rows)
            elif name.endswith(".json") and name != "manifest.json":
                with open(path) as fh:
                    payload = json.loads(fh.read(), parse_constant=_no_constant)
                for where, value in _leaves(payload):
                    if value is None:
                        assert where[-1] in ("ratio_vs_deterministic", "slope", "intercept",
                                             "fit_residual"), (name, where)
                    elif where[-1] in ZERO_KEYS:
                        assert value == 0.0, (name, where, value)
                assert payload.get("failures", []) == []
