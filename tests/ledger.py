"""The output ledger: a SHA-256 digest of every file each benchmark op and a
few extra CLI runs write, and each run's exit status.

Usage: python3 tests/ledger.py [--write] [RUN ...]

Runs every perfbench op (each workload, full and smoke, at seeds 1-3) and the
extra runs below through ``nilflow.cli.run``, in this process, one output
directory each, and prints the ledger as JSON.  ``--write`` stores it in
``tests/outputs.json`` instead; RUN names (as the ledger keys them, e.g.
``extra/kam-degree-6``) restrict the runs.  The ops are read
from ``perfbench/workloads.py``.  ``OPENBLAS_NUM_THREADS`` defaults to 1, as in
perfbench's child, and is recorded with the numpy version: the last bits of
the FFTs and matrix products can differ under another numpy.

A change that moves output bytes on purpose regenerates the ledger, so its
diff names every file that moved.
"""

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(HERE, "outputs.json")
SEEDS = (1, 2, 3)

GOLDEN = (1.0, 1.618033988749895)

# CLI runs beyond the benchmark's ops: the kam variants, including the
# multi-mode one at degrees 6 and 16, the tilted rigidity step and the ones
# at perturbation degrees 8 and 24, whose brackets form larger grid
# products than the benchmark's, a tilted split, and gh-report tilted and
# at a near-resonant alpha, whose continued fraction is [1; 1,1,1,1,1,40,...]
EXTRA = {
    "kam-degree-6": ("kam", {"omega": GOLDEN, "degree": 6, "amplitude": 3e-3}),
    "kam-degree-16": ("kam", {"omega": GOLDEN, "degree": 16, "amplitude": 3e-3}),
    "kam-mode-2-3": ("kam", {"omega": GOLDEN, "K": 32, "mode": (2, -3), "amplitude": 0.01}),
    "kam-1d": ("kam", {"omega": (1.618033988749895,), "mode": (1,)}),
    "kam-3d": ("kam", {"omega": (1.0, 1.4142135623730951, 1.7320508075688772), "K": 8,
                       "mode": (1, 1, 0)}),
    "rigidity-mu": ("rigidity-step", {"alpha": GOLDEN, "mu": 0.7}),
    "rigidity-degree-8": ("rigidity-step", {"alpha": GOLDEN, "degree": 8, "cutoff": 6.0}),
    "rigidity-degree-24": ("rigidity-step", {"alpha": GOLDEN, "degree": 24}),
    "split-mu": ("split", {"alpha": GOLDEN, "mu": -2.0, "count": 5}),
    "gh-report-mu": ("gh-report", {"alpha": GOLDEN, "mu": 0.7}),
    "gh-report-near-resonant": ("gh-report", {"alpha": (1.0, 1.6246211481433281), "N": 6,
                                              "M": 48}),
}


def runs():
    """(name, Op) for every ledger run, in order."""
    from test_perfbench_contract import WORKLOADS

    out = []
    for workload, make in WORKLOADS.WORKLOADS.items():
        for seed in SEEDS:
            for smoke in (False, True):
                for op in make(seed, smoke):
                    name = "%s/seed-%d/%s/%s" % (
                        workload, seed, "smoke" if smoke else "full", op.tag
                    )
                    out.append((name, op))
    for tag, (subcommand, params) in EXTRA.items():
        out.append(("extra/" + tag, WORKLOADS.Op(tag, subcommand, params, gate=None)))
    return out


def _digests(outdir):
    digests = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def ledger(only=()):
    import numpy as np

    from nilflow.cli import parse_config, run

    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, op) in enumerate(runs()):
            if only and name not in only:
                continue
            workdir = os.path.join(tmp, "op%d" % i)
            outdir = os.path.join(workdir, "out")
            os.makedirs(outdir)
            for fname, text in op.files.items():
                with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)
            config = parse_config(op.config_text(workdir))
            config.out = outdir
            status = run(config)
            entries[name] = {"status": status, "files": _digests(outdir)}
    return {
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "runs": entries,
    }


def main(argv):
    write = "--write" in argv
    only = [a for a in argv if a != "--write"]
    text = json.dumps(ledger(only), indent=1, sort_keys=True) + "\n"
    if write:
        with open(LEDGER, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    # before numpy loads, which the runs import
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    main(sys.argv[1:])
