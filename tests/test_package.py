import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llblab.dynamics import ModelParams, SystemKind, TimeGrid, integrate, integrate_batch
from llblab.ldp import RateObjective, RateProblem
from llblab.noise import make_covariance

MODULES = ("field", "noise", "dynamics", "analysis", "clt", "ldp", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"llblab.{name}")
    assert module.__all__, name
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"llblab.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("package", ["scipy.optimize", "scipy.linalg"])
def test_cli_import_leaves_scipy_optimize_unloaded(package):
    # scipy.optimize costs about 0.3 s and 19 MB to import and scipy.linalg about
    # 0.4 s and 20 MB, which every run would pay in its setup time and peak
    # memory; the package still imports afterwards, beside field's LAPACK routines
    import llblab

    src = str(Path(llblab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = (
        f"import sys, llblab.cli; print({package!r} in sys.modules); "
        f"import {package}; print({package}.__name__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False", package]


# public names that only the tests and perfbench/tracer.py use, as the oracles of
# the streamed runs; ROADMAP item 2 moves them out of the package
TEST_ORACLES = {"energy_drift", "path_gap", "write_report_csv", "write_fields_csv"}


def test_every_export_is_used_in_the_package():
    # a public name that no module of llblab uses is a second path kept for the
    # tests: an import does not count as a use, a name or an attribute does
    root = Path(__file__).resolve().parents[1] / "src" / "llblab"
    used = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {
        f"{name}.{export}"
        for name in MODULES
        for export in importlib.import_module(f"llblab.{name}").__all__
        if export not in used and export not in TEST_ORACLES
    }
    assert not unused, f"exported but used nowhere in llblab: {sorted(unused)}"


def _is_find_spec_of_a_literal(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "find_spec"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    )


def _top_level_imports(paths):
    """The top-level names of every module imported, or located by name, in ``paths``."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
            elif _is_find_spec_of_a_literal(node):
                # a package located by name, as field.py locates scipy
                imported.add(node.args[0].value.split(".")[0])
    return imported


def test_every_third_party_import_is_a_declared_dependency():
    # an import missing from pyproject.toml works here and fails on a clean
    # install: the package imports only its dependencies, the tests also what
    # the ``test`` extra declares
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}

    declared = names(project["dependencies"])
    for_tests = declared | names(project["optional-dependencies"]["test"])
    tests = sorted((root / "tests").glob("*.py"))
    local = set(sys.stdlib_module_names) | {"llblab"} | {path.stem for path in tests}
    for paths, allowed, expected in [
        ((root / "src" / "llblab").rglob("*.py"), declared, {"numpy", "scipy"}),
        (tests, for_tests, {"numpy", "scipy", "pytest", "hypothesis"}),
    ]:
        third_party = _top_level_imports(paths) - local
        assert expected <= third_party
        assert third_party <= allowed, f"imported but not declared: {third_party - allowed}"


def test_no_module_reads_the_environment():
    # a run depends on its config alone: no module of llblab takes a setting
    # from an environment variable
    root = Path(__file__).resolve().parents[1] / "src" / "llblab"
    reads = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb"):
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                if names & {"environ", "getenv", "environb"}:
                    reads.append(f"{path.name}:{node.lineno} from os import")
    assert not reads, f"environment reads: {reads}"


def test_only_field_and_analysis_import_the_metric_kernels():
    # the proof metric is taken by analysis.StreamedPathGap alone, from one
    # Laplacian and column_sq_sums; lap_values is the step's kernel too, so the
    # check watches the reduction and the gradient, from which a module could
    # grow a second way to take the metric
    kernels = {"grad_values", "column_sq_sums"}
    root = Path(__file__).resolve().parents[1] / "src" / "llblab"
    uses = []
    for path in sorted(root.rglob("*.py")):
        if path.stem in ("field", "analysis"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = kernels & {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = kernels & {node.attr}
            else:
                continue
            uses.extend(f"{path.name}:{node.lineno} {name}" for name in sorted(names))
    assert not uses, f"metric kernels used outside field and analysis: {uses}"


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
    # the deterministic reference marches inside the batch: no integrate call
    # and no stored snapshot
    assert layers["dynamics.integrate.deterministic.calls"] == 0
    assert layers["dynamics.snapshots_mb"] == 0.0
    assert layers["noise.paths"] > 0


def test_perfbench_tracer_records_a_traced_rate_run(tmp_path):
    # the tracer counts every record integrate returns by its steps and
    # snapshots, the skeleton solves by their kind, and the optimizer's iterations
    from llblab import cli

    target = tmp_path / "target.csv"
    target.write_text("node_index,ux,uy,uz\n" + "".join(f"{i},0.0,0.0,0.0\n" for i in range(7)))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        config = cli.parse_config(
            "kind = rate\ngrid.n = 7\ntime.horizon = 0.05\ntime.steps = 10\nnoise.modes = 2\n"
            f"rate.target = {target}\nrate.slabs = 2\nrate.max_iters = 2\nrate.continuation = 0\n"
        )
        assert cli.run(config, out_dir=str(tmp_path / "out")) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["dynamics.integrate.skeleton.calls"] >= 1
    assert layers["ldp.iterations"] >= 1
    assert layers["dynamics.snapshots_mb"] > 0.0


def test_perfbench_worker_rate_config_runs(tmp_path):
    # perfbench/worker.py writes its rate target with integrate(..., stride=),
    # single_mode_control(..., dt, ...) and final_values(), then runs the config
    from llblab import cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    texts, _, check = worker.rate_configs(1, str(tmp_path))
    assert os.path.exists(check["target_csv"])
    assert cli.run(cli.parse_config(texts[0]), out_dir=str(tmp_path / "out")) == cli.EXIT_OK


def test_perfbench_tracer_install_restores_every_patched_name():
    # `perfbench/run.py --trace 1` patches llblab's module attributes by name:
    # install fails with AttributeError once a refactor drops one, and
    # uninstall must put back the very objects it replaced
    tracer_module = _load_tracer()
    modules = [importlib.import_module(f"llblab.{name}") for name in MODULES]
    originals = [dict(vars(module)) for module in modules]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = {
            (module.__name__, name)
            for module, before in zip(modules, originals)
            for name, value in vars(module).items()
            if before.get(name) is not value
        }
    finally:
        tracer.uninstall()
    expected = {(f"llblab.{name}", "stream_rng") for name in ("cli", "clt", "ldp")}
    expected |= {("llblab.clt", "path_gap"), ("llblab.ldp", "path_gap")}
    assert expected <= patched
    for module, before in zip(modules, originals):
        changed = [name for name, value in before.items() if vars(module).get(name) is not value]
        assert not changed, f"{module.__name__} keeps patched {changed}"


GOOD_FIELD = np.ones((7, 3))
FIELD_CONSUMERS = {
    "integrate": lambda u: integrate(
        SystemKind.DETERMINISTIC, u, ModelParams(), TimeGrid(0.01, 5)
    ),
    # the shared column of a second noiseless system, beside that of the good field
    "integrate_batch": lambda u: integrate_batch(
        (SystemKind.DETERMINISTIC, SystemKind.DETERMINISTIC),
        (GOOD_FIELD, u), ModelParams(), TimeGrid(0.01, 5), lambda *a: None,
    ),
    "RateObjective": lambda u: RateObjective(
        RateProblem(target=u), ModelParams(), TimeGrid(0.01, 5), make_covariance(2), GOOD_FIELD
    ),
}
BAD_FIELDS = {
    "n-by-2": np.zeros((7, 2)),
    "n-vector": np.zeros(7),
    "batch-of-1": np.zeros((7, 3, 1)),
    "another-grid": np.zeros((8, 3)),
}


@pytest.mark.parametrize(
    "consumer, case",
    # integrate takes one field, so no other grid is there to differ from
    [
        (consumer, case) for consumer in FIELD_CONSUMERS for case in BAD_FIELDS
        if (consumer, case) != ("integrate", "another-grid")
    ],
)
def test_every_consumer_refuses_a_field_that_is_not_n_by_3_on_its_grid(consumer, case):
    # a field is an (n, 3) array, and two fields of one computation share n
    with pytest.raises(ValueError):
        FIELD_CONSUMERS[consumer](BAD_FIELDS[case])


def test_pytest_settings_report_a_failing_property_and_run_on(tmp_path):
    # with every warning an error, hypothesis's report of a failing property
    # must still be reported as a failure, and the session must go on to the
    # next test rather than stop with an INTERNALERROR
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        options = tomllib.load(fh)["tool"]["pytest"]["ini_options"]
    # JSON strings and lists of them are TOML values as they are
    lines = ["[tool.pytest.ini_options]"]
    lines += [f"{key} = {json.dumps(value)}" for key, value in options.items()]
    (tmp_path / "pyproject.toml").write_text("\n".join(lines) + "\n")
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n\n\n"
        "def test_passes():\n"
        "    assert True\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_code_lines_counts_the_lines_that_hold_a_code_token():
    # tools/code_lines.py, the count every simplicity change reports: docstrings,
    # comments and blank lines are left out; a string that is not a docstring
    # and a statement over several lines count every line they span
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (
        '"""Module docstring."""\n\n# a comment\nimport math\n\n\n'
        "class A:\n"
        '    """Class docstring."""\n\n'
        "    def f(self, x):\n"
        '        """Method docstring,\n        over two lines."""\n'
        '        y = """not a\n        docstring"""\n'
        "        return (x +\n                1)  # trailing comment\n"
    )
    assert tool.code_lines(source) == 7
