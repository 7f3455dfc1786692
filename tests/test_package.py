import importlib.util
from pathlib import Path

import pytest

MODULES = ("field", "noise", "dynamics", "analysis", "clt", "ldp", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"llblab.{name}")
    assert module.__all__, name
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"llblab.{name}.__all__ names undefined {missing}"


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_perfbench_tracer_targets_exist():
    # perfbench/tracer.py wraps these names from outside the package; a
    # rename would break `perfbench/run.py --trace 1`
    tracer = _load_tracer()
    targets = {
        "cli": ("integrate", "stream_rng", "energy_drift", "run_clt", "estimate_rate")
        + tracer.CLI_WRITERS,
        "clt": ("integrate", "stream_rng", "path_gap"),
        "ldp": ("integrate", "stream_rng", "path_gap"),
    }
    for name, attrs in targets.items():
        module = importlib.import_module(f"llblab.{name}")
        missing = [attr for attr in attrs if not callable(getattr(module, attr, None))]
        assert not missing, f"llblab.{name} lacks {missing}"


def test_perfbench_tracer_records_a_traced_run(tmp_path):
    from llblab import cli

    tracer_module = _load_tracer()
    originals = {attr: getattr(cli, attr) for attr in ("integrate", "run_clt", "stream_rng")}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        config = cli.parse_config(
            "kind = clt\ngrid.n = 15\ntime.horizon = 0.02\ntime.steps = 20\nnoise.modes = 2\n"
            "clt.epsilons = 0.5, 0.25, 0.125\nclt.samples = 2\nseed = 3\n"
        )
        assert cli.run(config, out_dir=str(tmp_path)) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert {attr: getattr(cli, attr) for attr in originals} == originals
    layers = tracer.layer_metrics()
    assert layers["clt.samples"] == 6
    assert layers["dynamics.integrate.deterministic.calls"] == 1
    assert layers["noise.paths"] > 0
