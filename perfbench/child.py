"""One benchmark pass in a fresh process.

Usage: python3 child.py SPEC.json

The spec names the source root, the CLI configs to run in order, and whether
to trace.  Set-up (interpreter start, imports, one tiny eigvalsh and FFT)
ends at the first timed call, whose monotonic time is reported so the parent
can measure set-up from the moment it started this process.  The result is
one JSON line on stdout.

The child also times a fixed reference kernel right after set-up, and a
pass times it again after its operations, so the parent can express every
time at one fixed host speed.
"""

import json
import os
import resource
import sys
import time

# sizes of the reference kernel: about 100 ms in all, a third each, on the
# 2-vCPU host the benchmark was built on, in a fast stretch
REF_LOOP = 500_000
REF_FFT_N = 1 << 14
REF_FFTS = 280
REF_EIG_N = 96
REF_EIGS = 100


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas["name"], blas.get("version", ""))
    except (TypeError, KeyError):
        return "unknown"


def _reference(np):
    """Fixed work that does not touch nilflow, in the mix a pass does:
    interpreter loops, FFTs and a small symmetric eigensolve.  Returns its
    wall time."""
    x = np.cos(np.arange(REF_FFT_N, dtype=float))
    a = np.cos(np.add.outer(np.arange(REF_EIG_N), np.arange(REF_EIG_N)) * 0.37)
    t0 = time.monotonic()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    for _ in range(REF_FFTS):
        np.fft.rfft(x)
    for _ in range(REF_EIGS):
        np.linalg.eigvalsh(a)
    return time.monotonic() - t0


def _probe(tracer, spec):
    """Standalone laplacian_solve on the rep-split cochains; returns its
    calls, self time and the largest returned Hermite block."""
    from nilflow import cohomology
    from nilflow.algebra import ActionParams
    from nilflow.corpus import cochain_corpus
    from nilflow.diophantine import fit_witness

    params = ActionParams(tuple(spec["alpha"]), (1.0,))
    wit = {"alpha": fit_witness(params.x1_y, 1.0, 50)}
    sources = [
        cohomology.delta1(params, om)
        for om in cochain_corpus(spec["seed"], spec["count"], spec["degree"],
                                 spec["n_max"], spec["length"], spec["decay"])
    ]
    tracer.reset()
    block = 0
    for phi in sources:
        h = cohomology.laplacian_solve(params, phi, wit, tol=spec["tol"])
        block = max([block] + [len(v) for v in h.reps.values()])
    name = "cohomology.laplacian_solve"
    return {
        name + ".calls": tracer.calls.get(name, 0),
        name + ".self_s": tracer.self_s.get(name, 0.0),
        name + ".block_size": block,
    }


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy as np

    import nilflow
    from nilflow.cli import parse_config, run

    if not os.path.abspath(nilflow.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("nilflow imported from %s, not from %s" % (nilflow.__file__, src))
    np.linalg.eigvalsh(np.eye(2))
    np.fft.fft(np.ones(8))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t_first = time.monotonic()
    ref_s = [_reference(np)]
    if spec["setup_only"]:
        print(json.dumps({"t_first": t_first, "ref_s": ref_s}))
        return
    t_ops = time.monotonic()
    cpu0 = _cpu()
    statuses = []
    for op in spec["ops"]:
        def one(op=op):
            config = parse_config(op["config"])
            config.out = op["out"]
            return run(config)

        statuses.append(tracer.run_op(op["subcommand"], one) if tracer else one())
    wall = time.monotonic() - t_ops
    cpu = _cpu() - cpu0
    ref_s.append(_reference(np))
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "statuses": statuses,
        "env": {
            "numpy": np.__version__,
            "blas": _blas(np),
            "NILFLOW_THREADS": os.environ.get("NILFLOW_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "workers": nilflow._parallel.worker_count(),
        },
    }
    if tracer:
        result["layers"] = tracer.metrics()
        if spec.get("probe"):
            result["probe"] = _probe(tracer, spec["probe"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
