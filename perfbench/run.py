"""nilflow benchmark: end-to-end passes through ``nilflow.cli.run`` and a
traced pass for per-layer numbers.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Each pass runs every operation of the workload, one after the other (a
closed loop with one caller), in a fresh child process.  After one untimed
warm-up pass, passes repeat until ``--seconds`` is spent (at least one).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds three traced
passes, each followed by a plain one, and prints the per-layer metrics.
Every output of every pass is checked by its gate.  The last line of stdout is
the JSON result; the lines before it are a readable report and the
environment manifest.  ``--smoke`` runs every workload at minimum size, one
plain and one traced pass each, with every gate on.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from tracer import COMPUTED, metric_names  # noqa: E402
from workloads import WORKLOADS, laplacian_probe  # noqa: E402

MIN_SETUP_SAMPLES = 7
TRACE_PAIRS = 3
MAX_PASSES = 60
DEADLINE_S = 170.0  # every run ends well inside 180 s
PROBE_METRICS = ["cohomology.laplacian_solve.block_size"]
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW_METRICS = ["raw.wall_s", "raw.cpu_s", "raw.setup_s", "reference.kernel_s"]
# Every reported time is quoted at the host speed at which the reference
# kernel (child.py) takes this long: about its time on the 2-vCPU host the
# benchmark was built on, in a fast stretch.
REFERENCE_S = 0.1


class BenchError(Exception):
    pass


def per_layer_names():
    return (metric_names() + PROBE_METRICS + RAW_METRICS
            + ["trace.overhead_ratio", "failed_ratio"])


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("efficiency", "_ratio")):
        return "ratio"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


def _child_env():
    env = dict(os.environ)
    env.pop("NILFLOW_THREADS", None)  # nilflow's default worker count
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _cache_size(level):
    try:
        out = subprocess.run(["getconf", "LEVEL%d_CACHE_SIZE" % level],
                             capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_revision():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Bench:
    def __init__(self, workload, seed, smoke, deadline):
        self.workload = workload
        self.seed = seed
        self.ops = WORKLOADS[workload](seed, smoke)
        self.probe = laplacian_probe(workload, seed, smoke)
        self.deadline = deadline
        self.workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.env = None
        for op in self.ops:
            for name, text in op.files.items():
                with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def child(self, ops=(), trace=False, setup_only=False, probe=None):
        spec = {"root": ROOT, "ops": list(ops), "trace": trace,
                "setup_only": setup_only, "probe": probe}
        spec_path = os.path.join(self.workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        t_spawn = time.monotonic()
        remaining = self.deadline - t_spawn
        if remaining <= 0:
            raise BenchError("time budget of %.0f s spent" % DEADLINE_S)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_child_env(), cwd=ROOT,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("child exceeded the time budget") from None
        if proc.returncode != 0 or not out.strip():
            raise BenchError("child exited with %d:\n%s" % (proc.returncode, err[-2000:]))
        res = json.loads(out.strip().splitlines()[-1])
        res["setup_s"] = res["t_first"] - t_spawn
        return res

    def run_pass(self, trace=False):
        """One pass over every operation; gates every output and returns the
        child's measurements plus the bytes of each summary.jsonl."""
        self.passes += 1
        pass_dir = os.path.join(self.workdir, "pass%d" % self.passes)
        specs = [{"subcommand": op.subcommand, "config": op.config_text(self.workdir),
                  "out": os.path.join(pass_dir, op.tag)} for op in self.ops]
        res = self.child(specs, trace=trace, probe=self.probe if trace else None)
        res["summaries"] = {}
        for op, spec, status in zip(self.ops, specs, res["statuses"]):
            attempted, failed = op.gate(status, spec["out"])
            self.attempted += attempted
            self.failed += failed
            path = os.path.join(spec["out"], "summary.jsonl")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    res["summaries"][op.tag] = fh.read()
        self.env = res["env"]
        shutil.rmtree(pass_dir, ignore_errors=True)
        return res


def _at_reference(seconds, ref_s):
    """`seconds` measured while the reference kernel took `ref_s`, quoted at
    the speed where it takes REFERENCE_S."""
    return seconds * REFERENCE_S / ref_s


def _pass_wall(p):
    return _at_reference(p["wall_s"], statistics.mean(p["ref_s"]))


def measure(bench, seconds, trace):
    """A warm-up pass, plain passes until `seconds` are spent, set-up samples,
    then the traced passes.

    On a shared host the CPU speed moves between levels that last from
    seconds to minutes, and a time in seconds moves with it.  So every child
    times a fixed reference kernel (child.py) next to what it measures, and
    each time is quoted at the speed where that kernel takes REFERENCE_S:
    wall_s and cpu_s are the mean pass wall and CPU time over the mean
    reference time of the same passes, times REFERENCE_S.  Means, not
    medians: a median snaps to whichever speed level held most of the run.
    setup_s is the median of per-child set-up times, each quoted at the
    reference speed of its own child.  The raw seconds are kept as
    per-layer metrics."""
    t_start = time.monotonic()
    bench.run_pass()  # gated, not timed: fills the file cache and .pyc files
    passes = []
    while True:
        t_pass = time.monotonic()
        passes.append(bench.run_pass())
        now = time.monotonic()
        if len(passes) >= MAX_PASSES or (now - t_start) + (now - t_pass) > seconds:
            break
    children = list(passes)
    while len(children) < MIN_SETUP_SAMPLES:
        children.append(bench.child(setup_only=True))
    walls = [p["wall_s"] for p in passes]
    ref = statistics.mean(r for p in passes for r in p["ref_s"])
    raw = {
        "raw.wall_s": statistics.mean(walls),
        "raw.cpu_s": statistics.mean(p["cpu_s"] for p in passes),
        "raw.setup_s": statistics.median(c["setup_s"] for c in children),
        "reference.kernel_s": ref,
    }
    e2e = {
        "wall_s": _at_reference(raw["raw.wall_s"], ref),
        "cpu_s": _at_reference(raw["raw.cpu_s"], ref),
        "setup_s": statistics.median(_at_reference(c["setup_s"], c["ref_s"][0])
                                     for c in children),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024.0 for p in passes),
    }
    report = {"passes": len(passes), "setup_samples": len(children), "walls": walls,
              "raw": raw, "pass_walls": [_pass_wall(p) for p in passes]}
    if not trace:
        return e2e, None, True, report
    # traced passes alternate with plain ones, so the overhead compares
    # passes run close together in time
    pairs = [(bench.run_pass(trace=True), bench.run_pass()) for _ in range(TRACE_PAIRS)]
    identical = all(t["summaries"] == passes[0]["summaries"] for t, _p in pairs)
    traced_walls = [t["wall_s"] for t, _p in pairs]
    traced = sorted((t for t, _p in pairs), key=lambda t: t["wall_s"])[len(pairs) // 2]
    layers = dict(traced["layers"])
    layers["cohomology.laplacian_solve.block_size"] = 0
    layers.update(traced.get("probe") or {})  # the probe's own spans
    layers.update(raw)
    layers["trace.overhead_ratio"] = (
        statistics.median(_pass_wall(t) for t, _p in pairs)
        / statistics.median(_pass_wall(p) for _t, p in pairs) - 1.0
    )
    layers["failed_ratio"] = bench.failed / max(bench.attempted, 1)
    report["traced_walls"] = traced_walls
    return e2e, layers, identical, report


def manifest(bench):
    return {
        "git_revision": _git_revision(),
        "workload": bench.workload,
        "seed": bench.seed,
        "python": platform.python_version(),
        "numpy": bench.env["numpy"],
        "blas": bench.env["blas"],
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "NILFLOW_THREADS": bench.env["NILFLOW_THREADS"],
        "OPENBLAS_NUM_THREADS": bench.env["OPENBLAS_NUM_THREADS"],
        "workers": bench.env["workers"],
        "l2_cache_bytes": _cache_size(2),
        "l3_cache_bytes": _cache_size(3),
        "computed_not_measured": COMPUTED,
        "load": "closed loop, one caller, one child process per pass",
    }


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, above the
    median; none exists below twenty samples."""
    k = len(samples) - 10  # 1-based rank of the order statistic
    if 2 * k <= len(samples):
        return "too few for a tail percentile"
    return "p%d %.4f s" % (100 * k // len(samples), sorted(samples)[k - 1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    deadline = time.monotonic() + DEADLINE_S
    bench = Bench(args.workload, args.seed, False, deadline)
    try:
        e2e, layers, identical, report = measure(bench, args.seconds, args.trace)
    finally:
        bench.close()
    print("workload %s seed %d: %d timed passes; %d operations attempted over all "
          "passes, %d failed" % (args.workload, args.seed, report["passes"],
                                bench.attempted, bench.failed))
    walls, raw = report["walls"], report["raw"]
    print("times at the reference speed (reference kernel %.3f s; measured mean %.4f s):"
          % (REFERENCE_S, raw["reference.kernel_s"]))
    print("wall_s mean %.4f s over %d passes; per pass: %s"
          % (e2e["wall_s"], len(walls), " ".join("%.3f" % x for x in report["pass_walls"])))
    print("cpu_s mean %.4f s" % e2e["cpu_s"])
    print("setup_s median %.4f s over %d samples" % (e2e["setup_s"], report["setup_samples"]))
    print("raw seconds: wall mean %.4f s, median %.4f s, %s; cpu mean %.4f s; "
          "setup median %.4f s; per pass wall: %s"
          % (raw["raw.wall_s"], statistics.median(walls), tail_percentile(walls),
             raw["raw.cpu_s"], raw["raw.setup_s"], " ".join("%.3f" % w for w in walls)))
    print("peak_rss_mb median %.4f MB" % e2e["peak_rss_mb"])
    if layers is not None:
        print("traced passes: wall %s s; summary.jsonl identical to the plain pass: %s"
              % (" ".join("%.3f" % w for w in report["traced_walls"]), identical))
        if bench.probe:
            print("cohomology.laplacian_solve is a standalone probe and moves no "
                  "end-to-end metric")
    print("manifest " + json.dumps(manifest(bench), sort_keys=True))
    if layers is None:
        metrics = {k: _metric(v, END_TO_END[k]) for k, v in e2e.items()}
    else:
        metrics = {k: _metric(layers[k], unit_of(k)) for k in per_layer_names()}
    result = {
        "correct": bench.failed == 0 and identical,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_smoke(args):
    """Every workload at minimum size, one plain and one traced pass, all
    gates on; also checks the traced names against BENCHMARK.json."""
    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    ok = declared == per_layer_names()
    if not ok:
        print("per-layer names differ from BENCHMARK.json", file=sys.stderr)
    attempted = failed = 0
    for name in WORKLOADS:
        bench = Bench(name, args.seed, True, deadline)
        try:
            _e2e, layers, identical, _report = measure(bench, 0, True)
        finally:
            bench.close()
        attempted += bench.attempted
        failed += bench.failed
        ok = ok and identical and set(layers) == set(per_layer_names())
        print("smoke %s: %d attempted, %d failed, summary identical: %s"
              % (name, bench.attempted, bench.failed, identical))
    ok = ok and failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "nilflow", "__init__.py")):
        print("no nilflow source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        return run_smoke(args) if args.smoke else run_one(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
