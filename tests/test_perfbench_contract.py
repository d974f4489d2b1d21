"""Every name the benchmark harness reaches into by name exists in the package.

perfbench wraps the layer functions listed in its tracer, the serial map in
``nilflow._parallel`` and the toral constructor by attribute name, its child
process reads the package and imports a few more names for the Laplacian
probe, and every workload op is a CLI config text.  A
rename in the package or a schema change would otherwise show up only as a
crashed benchmark run.  The newton workload's ops also run here under their
own gates, so a change to the grid path that breaks the benchmark's
verification or rigidity bound fails the tests as well.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from nilflow import _parallel, cli, torus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
WORKLOADS = _load("workloads")


@pytest.mark.parametrize("module", sorted(TRACER.LAYERS))
def test_traced_layer_functions_exist(module):
    mod = importlib.import_module("nilflow." + module)
    for func in TRACER.LAYERS[module]:
        assert callable(getattr(mod, func, None)), "nilflow.%s.%s" % (module, func)


def test_pool_and_constructor_exist():
    assert callable(_parallel.worker_count)
    assert callable(_parallel.ordered_map)
    # the tracer replaces the constructor on the class itself
    assert "__init__" in vars(torus.TorusFunction)


def test_traced_subcommands_exist():
    assert set(TRACER.SUBCOMMANDS) <= set(cli.SCHEMAS)


def test_probe_imports_exist():
    names = {
        "algebra": ["ActionParams"],
        "cli": ["parse_config", "run"],
        "cohomology": ["delta1", "laplacian_solve"],
        "corpus": ["cochain_corpus"],
        "diophantine": ["fit_witness"],
    }
    for module, attrs in names.items():
        mod = importlib.import_module("nilflow." + module)
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), "nilflow.%s.%s" % (module, attr)


@pytest.mark.parametrize("trace", [0, 1], ids=["plain", "traced"])
def test_child_sees_a_one_worker_package(tmp_path, trace):
    # the child imports only ``nilflow`` and ``nilflow.cli`` before it reads
    # nilflow._parallel, so this runs in a fresh interpreter, not in this one
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"root": ROOT, "trace": trace, "setup_only": False, "ops": []}
    ))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("NILFLOW_THREADS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), str(spec)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["env"]["workers"] == 1
    assert result["statuses"] == []


class _StubTracer:
    """Stands in for the installed tracer: no wrapped layers, no counts."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}

    def reset(self):
        pass


def test_laplacian_probe_runs_against_the_package():
    # the probe runs only in traced passes; a change to laplacian_solve's call
    # shape would otherwise surface only there
    child = _load("child")
    spec = WORKLOADS.laplacian_probe("rep-split", 1, True)
    probe = child._probe(_StubTracer(), spec)
    assert probe["cohomology.laplacian_solve.block_size"] > 0


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_workload_configs_parse_against_the_schemas(tmp_path, workload, smoke):
    workdir = str(tmp_path)
    for op in WORKLOADS.WORKLOADS[workload](1, smoke):
        config = cli.parse_config(op.config_text(workdir))
        schema = cli.SCHEMAS[op.subcommand]
        assert config.subcommand == op.subcommand
        for key, value in op.params.items():
            assert key in schema, "%s: %s" % (op.tag, key)
            if value in op.files:
                value = os.path.join(workdir, value)
            assert config.params[key] == value, "%s: %s" % (op.tag, key)


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
def test_newton_ops_pass_their_gates(tmp_path, smoke):
    ops = WORKLOADS.newton(1, smoke)
    assert [op.subcommand for op in ops[:2]] == ["kam", "rigidity-step"]
    for op in ops:
        outdir = tmp_path / op.tag
        outdir.mkdir()
        for name, text in op.files.items():
            (outdir / name).write_text(text)
        config = cli.parse_config(op.config_text(str(outdir)))
        config.out = str(outdir)
        attempted, failed = op.gate(cli.run(config), str(outdir))
        assert (attempted, failed) == (1, 0), op.tag
