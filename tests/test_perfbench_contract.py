"""Every name the benchmark harness reaches into by name exists in the package.

perfbench wraps the layer functions listed in its tracer, the thread pool and
the toral constructor by attribute name, and its child process imports a few
more for the Laplacian probe.  A rename in the package would otherwise show up
only as a crashed benchmark run.
"""

import importlib
import importlib.util
import os

import pytest

from nilflow import _parallel, cli, torus

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


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
