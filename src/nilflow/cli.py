"""Batch experiment harness.

Configs are line-oriented ``key = value`` text with ``#`` comments.  Every
run writes CSV tables plus one JSON-lines summary into the output directory.
Exit status: 0 on success, 2 on a negative mathematical verdict (resonance,
refused certificate, failed convergence), 1 on errors.

Numeric cells are written with repr so identical config and seed produce
byte-identical output.  A run uses one thread.
"""

import argparse
import csv
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace

from .algebra import (
    ActionParams,
    const_cohomology_basis,
    heisenberg,
    load_algebra,
)
from .cohomology import (
    VfCochain,
    delta1_star_split,
    gh_certificate,
    joint_kernel_dim,
    rep_spectrum,
    trusted_count,
)
from .corpus import (
    cochain_corpus,
    member_rng,
    nil_corpus,
    torus_corpus,
    vf_cocycle_member,
)
from .diophantine import fit_witness, simultaneous_witness
from .errors import (
    ConfigError,
    ConfigTypeError,
    EmptyCorpus,
    FormatError,
    MissingKey,
    NilflowError,
    NoConvergence,
    NonzeroAverage,
    Resonance,
    ThresholdExceeded,
    UnknownKey,
)
from .nilrep import (
    NilFunction,
    apply_X1,
    apply_X2,
    cg_decay_report,
    load_nil_function,
    nil_sobolev_norm,
    serialize_nil_function,
)
from .rigidity import load_vf_cochain, newton_step, smoothing_truncate
from .torus import (
    TorusFunction,
    TorusVectorField,
    directional_derivative,
    kam_iterate,
    sobolev_norm,
    solve_small_divisor,
)

_REQUIRED = object()

# key -> (type tag, default); _REQUIRED marks keys without a default
SCHEMAS = {
    "witness": {
        "alpha": ("floats", _REQUIRED),
        "gamma": ("float", 1.0),
        "K": ("int", 50),
        "kind": ("str", "linear-form"),
    },
    "solve-coboundary": {
        "alpha": ("floats", _REQUIRED),
        "input": ("str", ""),
        "seed": ("int", 0),
        "count": ("int", 1),
        "degree": ("int", 8),
        "decay": ("float", 3.0),
        "r": ("float", 1.0),
        "sigma": ("float", 2.0),
    },
    "split": {
        "alpha": ("floats", _REQUIRED),
        "beta": ("float", 1.0),
        "mu": ("float", 0.0),
        "seed": ("int", 0),
        "count": ("int", 50),
        "degree": ("int", 6),
        "n_max": ("int", 3),
        "length": ("int", 8),
        "decay": ("float", 7.0),
        "r": ("float", 1.0),
        "sigma": ("float", 2.0),
        "recon_tol": ("float", 1e-9),
        "K": ("int", 50),
    },
    "spectrum": {
        "alpha": ("floats", _REQUIRED),
        "beta": ("float", 1.0),
        "mu": ("float", 0.0),
        "n_max": ("int", 10),
        "M": ("int", 64),
    },
    "gh-report": {
        "alpha": ("floats", _REQUIRED),
        "beta": ("float", 1.0),
        "mu": ("float", 0.0),
        "N": ("int", 10),
        "M": ("int", 64),
        "K": ("int", 50),
    },
    "kernel-dim": {
        "alpha": ("floats", _REQUIRED),
        "beta": ("float", 1.0),
        "mu": ("float", 0.0),
        "N": ("int", 10),
        "M": ("int", 64),
        "K": ("int", 50),
        "tol": ("float", 1e-8),
    },
    "constant-cohomology": {
        "algebra": ("str", ""),
        "alpha": ("floats", (1.0, 1.0)),
        "beta": ("floats", (1.0,)),
        "mu": ("float", 0.0),
    },
    "kam": {
        "omega": ("floats", _REQUIRED),
        "amplitude": ("float", 1e-3),
        "mode": ("ints", (1, 1)),
        "component": ("int", 0),
        "K": ("int", 64),
        "max_iter": ("int", 10),
        "floor": ("float", 1e-12),
    },
    "rigidity-step": {
        "alpha": ("floats", _REQUIRED),
        "beta": ("float", 1.0),
        "mu": ("float", 0.0),
        "perturbation_file": ("str", ""),
        "cutoff": ("float", -1.0),
        "threshold": ("float", 0.5),
        "seed": ("int", 0),
        "scale": ("float", 1e-3),
        "degree": ("int", 3),
        "decay": ("float", 3.0),
        "K": ("int", 50),
    },
    "cg-decay": {
        "seed": ("int", 0),
        "count": ("int", 30),
        "s": ("float", 0.0),
        "k": ("float", 2.0),
        "degree": ("int", 8),
        "n_max": ("int", 40),
        "length": ("int", 8),
        "decay": ("float", 3.0),
    },
}


def _to_float(s):
    x = float(s)
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


def _to_floats(s):
    parts = s.split()
    if not parts:
        raise ValueError("empty list")
    return tuple(_to_float(x) for x in parts)


def _to_ints(s):
    parts = s.split()
    if not parts:
        raise ValueError("empty list")
    return tuple(int(x, 10) for x in parts)


_CONVERTERS = {
    "int": lambda s: int(s, 10),
    "float": _to_float,
    "floats": _to_floats,
    "ints": _to_ints,
    "str": lambda s: s,
}


@dataclass
class ExperimentConfig:
    subcommand: str
    params: dict = field(default_factory=dict)
    out: str = "."


def parse_config(text, default_subcommand=None):
    """Parse ``key = value`` lines into a typed config.

    The subcommand comes from the ``subcommand`` key, falling back to
    default_subcommand.  Unknown keys and duplicates are rejected; missing
    keys take their schema default or raise MissingKey when required.
    """
    entries = []
    seen = set()
    sub = default_subcommand
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigTypeError("line %d: expected 'key = value'" % lineno)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigTypeError("line %d: empty key" % lineno)
        if key in seen:
            raise ConfigTypeError("line %d: duplicate key %r" % (lineno, key))
        seen.add(key)
        if key == "subcommand":
            sub = value
        else:
            entries.append((lineno, key, value))
    if sub is None:
        raise MissingKey("config does not name a subcommand")
    schema = SCHEMAS.get(sub)
    if schema is None:
        raise UnknownKey("unknown subcommand %r" % sub)

    params = {}
    out = "."
    for lineno, key, value in entries:
        if key == "out":
            out = value
            continue
        if key not in schema:
            raise UnknownKey(
                "line %d: unknown key %r for subcommand %s" % (lineno, key, sub)
            )
        typ = schema[key][0]
        try:
            params[key] = _CONVERTERS[typ](value)
        except ValueError:
            raise ConfigTypeError(
                "line %d: key %r expects %s, got %r" % (lineno, key, typ, value)
            ) from None
    for key, (_typ, default) in schema.items():
        if key not in params:
            if default is _REQUIRED:
                raise MissingKey(
                    "required key %r missing for subcommand %s" % (key, sub)
                )
            params[key] = default
    return ExperimentConfig(sub, params, out)


def _format_value(v):
    if isinstance(v, tuple):
        return " ".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(config):
    """Text form accepted back by parse_config."""
    lines = ["subcommand = %s" % config.subcommand, "out = %s" % config.out]
    for key in sorted(config.params):
        lines.append("%s = %s" % (key, _format_value(config.params[key])))
    return "\n".join(lines) + "\n"


# --- output helpers ---------------------------------------------------------


def _cell(x):
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        return repr(x)
    return x


def _write_csv(outdir, name, header, rows):
    with open(os.path.join(outdir, name), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(x) for x in row])


def _write_summary(outdir, record):
    """Write the one-line summary and return the record written: a record
    with a non-finite number becomes a NonFiniteResult error, so no bare NaN
    or Infinity reaches the JSON."""
    try:
        line = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        record = {
            "verdict": "error",
            "reason": "NonFiniteResult",
            "detail": str(exc),
            "subcommand": record["subcommand"],
        }
        line = json.dumps(record, sort_keys=True)
    with open(os.path.join(outdir, "summary.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return record


def _heis_params(p):
    if len(p["alpha"]) != 2:
        raise ConfigTypeError(
            "alpha needs exactly two components, got %d" % len(p["alpha"])
        )
    return ActionParams(tuple(p["alpha"]), (p["beta"],), mu=p["mu"])


def _require_at_least(p, least, *keys):
    for key in keys:
        if p[key] < least:
            raise ConfigTypeError("%s must be >= %d, got %r" % (key, least, p[key]))


def _refuse_resonance(alpha, K):
    """The solvers' one Diophantine gate: refuse alpha when its gamma = 1
    witness up to K finds an exact resonance."""
    w = fit_witness(tuple(alpha), 1.0, K)
    if not w.valid:
        raise Resonance(
            "frequency vector admits an exact resonance", mode=tuple(w.argmin_k)
        )


# --- runners ----------------------------------------------------------------


def _run_witness(p, outdir):
    if p["kind"] == "simultaneous":
        w = simultaneous_witness(p["alpha"], p["gamma"], p["K"])
    elif p["kind"] == "linear-form":
        w = fit_witness(p["alpha"], p["gamma"], p["K"])
    else:
        raise ConfigTypeError("kind must be linear-form or simultaneous")
    argmin = " ".join(str(int(x)) for x in w.argmin_k)
    _write_csv(
        outdir,
        "witness.csv",
        ["kind", "gamma", "K", "C", "value", "argmin", "valid"],
        [(w.kind, w.gamma, w.K, w.C, w.value, argmin, int(w.valid))],
    )
    return {
        "verdict": "ok" if w.valid else "negative",
        "kind": w.kind,
        "C": w.C,
        "gamma": w.gamma,
        "K": w.K,
        "argmin": [int(x) for x in w.argmin_k],
        "value": w.value,
    }


def _run_solve_coboundary(p, outdir):
    alpha = tuple(p["alpha"])
    if not alpha:
        raise ConfigTypeError("alpha needs at least one component")
    if p["count"] < 1:
        raise EmptyCorpus("count must be >= 1, got %d" % p["count"])
    _require_at_least(p, 1, "degree")
    _require_at_least(p, 0, "decay")
    if p["input"]:
        loaded = load_nil_function(p["input"])
        if loaded.keys:
            raise FormatError(
                "input has representation rows, first (n, m) = %r; "
                "solve-coboundary solves toral data only" % (loaded.keys[0],)
            )
        fns = [loaded.toral]
    else:
        fns = torus_corpus(
            p["seed"], p["count"], dim=len(alpha), degree=p["degree"],
            decay=p["decay"],
        )

    def one(f):
        h = solve_small_divisor(alpha, f)
        fn = sobolev_norm(f, 0)
        defect = sobolev_norm(directional_derivative(alpha, h) - f, 0)
        denom = sobolev_norm(f, p["r"] + p["sigma"])
        ratio = sobolev_norm(h, p["r"]) / denom if denom else 0.0
        return h, (
            f.degree,
            denom,
            sobolev_norm(h, p["r"]),
            ratio,
            defect / fn if fn else 0.0,
        )

    solved = [one(f) for f in fns]
    rows = [(i,) + row for i, (_h, row) in enumerate(solved)]
    _write_csv(
        outdir,
        "coboundary.csv",
        ["index", "degree", "norm_data", "norm_solution", "ratio", "defect_rel"],
        rows,
    )
    if p["input"]:
        h = solved[0][0]
        with open(os.path.join(outdir, "solution.txt"), "w", encoding="utf-8") as fh:
            fh.write(serialize_nil_function(NilFunction(toral=h)))
    return {
        "verdict": "ok",
        "count": len(rows),
        "ratio_max": max((r[4] for r in rows), default=0.0),
        "defect_max": max((r[5] for r in rows), default=0.0),
    }


def _run_split(p, outdir):
    params = _heis_params(p)
    if p["count"] < 1:
        raise EmptyCorpus("count must be >= 1, got %d" % p["count"])
    _require_at_least(p, 0, "degree", "n_max", "length", "decay")
    corpus = cochain_corpus(
        p["seed"], p["count"], p["degree"], p["n_max"], p["length"], p["decay"]
    )
    _refuse_resonance(p["alpha"], p["K"])

    def one(om):
        s = delta1_star_split(params, om, r=p["r"], sigma=p["sigma"])
        f_back = apply_X1(params, s.H).add(s.f_err).add(
            NilFunction.constant(s.f_triv)
        )
        g_back = apply_X2(params, s.H).add(s.g_err).add(
            NilFunction.constant(s.g_triv)
        )
        scale = max(nil_sobolev_norm(om.f, 0), nil_sobolev_norm(om.g, 0), 1e-300)
        recon = max(
            nil_sobolev_norm(f_back.sub(om.f), 0),
            nil_sobolev_norm(g_back.sub(om.g), 0),
        ) / scale
        return recon, s.constants["h_ratio"], s.constants["err_ratio"]

    results = [one(om) for om in corpus]
    rows = [(i,) + r for i, r in enumerate(results)]
    _write_csv(
        outdir,
        "split.csv",
        ["index", "recon_rel", "h_ratio", "err_ratio"],
        rows,
    )
    worst = max((r[1] for r in rows), default=0.0)
    ok = worst <= p["recon_tol"]
    return {
        "verdict": "ok" if ok else "negative",
        "count": len(rows),
        "recon_max": worst,
        "recon_tol": p["recon_tol"],
        "h_ratio_max": max((r[2] for r in rows), default=0.0),
        "err_ratio_max": max((r[3] for r in rows), default=0.0),
    }


def _run_spectrum(p, outdir):
    params = _heis_params(p)
    _require_at_least(p, 1, "n_max")
    t = trusted_count(p["M"])

    def one(n):
        ev = rep_spectrum(params, n, p["M"])
        return [(n, i, float(v), int(i < t)) for i, v in enumerate(ev)]

    blocks = [one(n) for n in range(1, p["n_max"] + 1)]
    rows = [row for block in blocks for row in block]
    _write_csv(
        outdir, "spectrum.csv", ["n", "index", "eigenvalue", "trusted"], rows
    )
    return {
        "verdict": "ok",
        "n_max": p["n_max"],
        "M": p["M"],
        "trusted_per_block": t,
    }


def _run_gh_report(p, outdir):
    params = _heis_params(p)
    if p["N"] < 2:
        # the growth law in |n| is reported across at least two blocks
        raise ConfigTypeError("N must be >= 2, got %d" % p["N"])
    report = gh_certificate(params, p["N"], p["M"], p["K"])
    _write_csv(
        outdir,
        "gh_per_n.csv",
        ["n", "min_abs", "truncated_min"],
        [(row["n"], row["min_abs"], row["truncated_min"]) for row in report["rep"]],
    )
    record = {
        "verdict": "certified" if report["certified"] else "negative",
        "toral_min": report["toral"]["min"],
        "toral_argmin": list(report["toral"]["argmin"]),
        "beta_degenerate": report["beta_degenerate"],
        "fit_exponent": report["fit"]["d"],
        "fit_constant": report["fit"]["c"],
    }
    if "witness_bound" in report["toral"]:
        record["toral_witness_bound"] = report["toral"]["witness_bound"]
    if "resonant_mode" in report:
        record["resonant_mode"] = list(report["resonant_mode"])
    if "reason" in report:
        record["reason"] = report["reason"]
    return record


def _run_kernel_dim(p, outdir):
    params = _heis_params(p)
    _require_at_least(p, 1, "N")
    # N and M stay in the schema and in kernel.csv; the count reads toral modes
    dim = joint_kernel_dim(params, p["K"], tol=p["tol"])
    _write_csv(
        outdir,
        "kernel.csv",
        ["N", "M", "K", "tol", "dim"],
        [(p["N"], p["M"], p["K"], p["tol"], dim)],
    )
    return {
        "verdict": "unique" if dim == 1 else "negative",
        "dim": dim,
    }


def _run_constant_cohomology(p, outdir):
    A = load_algebra(p["algebra"]) if p["algebra"] else heisenberg()
    params = ActionParams(tuple(p["alpha"]), tuple(p["beta"]), mu=p["mu"])
    dim, reps = const_cohomology_basis(A, params)
    rows = []
    for i, rep in enumerate(reps):
        for j, x in enumerate(rep.to_vector()):
            rows.append((i, j, str(x)))
    _write_csv(outdir, "basis.csv", ["representative", "slot", "value"], rows)
    expected = A.q + A.p + 1
    return {
        "verdict": "ok" if dim == expected else "negative",
        "dim": dim,
        "expected": expected,
        "q": A.q,
        "p": A.p,
    }


def _sin_field(omega, amplitude, mode, component):
    dim = len(omega)
    if len(mode) != dim:
        raise ConfigTypeError("mode length must match omega")
    if not 0 <= component < dim:
        raise ConfigTypeError("component out of range")
    k = tuple(int(x) for x in mode)
    if not any(k):
        # k and -k would share one coefficient: not a real sine
        raise ConfigTypeError("mode must be nonzero, got %s" % _format_value(k))
    coeffs = {
        k: amplitude / 2j,
        tuple(-x for x in k): -amplitude / 2j,
    }
    comps = [
        TorusFunction(dim, coeffs, real=True)
        if i == component
        else TorusFunction.constant(dim, 0.0, real=True)
        for i in range(dim)
    ]
    return TorusVectorField(comps)


def _kam_rows(state):
    return [
        (i, r, r2)
        for i, (r, r2) in enumerate(
            zip(state.residual_history, state.residual_history_r2)
        )
    ]


def _run_kam(p, outdir):
    _require_at_least(p, 1, "max_iter")
    if p["floor"] <= 0:
        raise ConfigTypeError("floor must be > 0, got %r" % p["floor"])
    beta = _sin_field(p["omega"], p["amplitude"], p["mode"], p["component"])
    try:
        state = kam_iterate(
            p["omega"], beta, max_iter=p["max_iter"], floor=p["floor"],
            trunc_degree=p["K"],
        )
    except NoConvergence as exc:
        # the partial history still gets written before reporting failure
        if exc.state is not None:
            _write_csv(
                outdir, "kam.csv", ["iteration", "residual", "residual_r2"],
                _kam_rows(exc.state),
            )
        return {
            "verdict": "negative",
            "reason": "NoConvergence",
            "detail": str(exc),
        }
    _write_csv(
        outdir, "kam.csv", ["iteration", "residual", "residual_r2"],
        _kam_rows(state),
    )
    return {
        "verdict": "ok",
        "iterations": len(state.residual_history) - 1,
        "residual": state.residual,
        "lambda_bar": list(state.lambda_bar),
        "verified_sup_error": state.verified_sup_error,
    }


def _run_rigidity_step(p, outdir):
    params = _heis_params(p)
    if p["threshold"] <= 0:
        raise ConfigTypeError("threshold must be > 0, got %r" % p["threshold"])
    _require_at_least(p, 0, "degree", "decay")
    if p["perturbation_file"]:
        om = load_vf_cochain(p["perturbation_file"])
    else:
        # generated perturbations are tangent to the commuting deformations,
        # so the reported residual reflects the quadratic remainder
        om = vf_cocycle_member(
            member_rng(p["seed"], 0), params,
            degree=p["degree"], decay=p["decay"], scale=p["scale"],
        )
    if p["cutoff"] >= 0:
        def smooth(h):
            return smoothing_truncate(h, p["cutoff"])

        om = VfCochain(om.x1.map(smooth), om.x2.map(smooth))
    input_norm = max(nil_sobolev_norm(h, 0) for h in om.x1.slots + om.x2.slots)
    _refuse_resonance(p["alpha"], p["K"])
    coords, H, residual = newton_step(params, om, threshold=p["threshold"])
    rows = [("mu1", coords.mu1)]
    rows += [("lam%d" % i, x) for i, x in enumerate(coords.lam)]
    rows.append(("residual_norm", residual))
    rows.append(("input_norm", input_norm))
    _write_csv(outdir, "coordinates.csv", ["name", "value"], rows)
    h_norm = max((nil_sobolev_norm(h, 0) for h in H.slots), default=0.0)
    return {
        "verdict": "ok",
        "mu": p["mu"],
        "coordinates": list(coords.vector),
        "input_norm": input_norm,
        "h_norm": h_norm,
        "residual_norm": residual,
    }


def _run_cg_decay(p, outdir):
    if p["n_max"] < 2:
        # the plateau compares against the inner window 2|n| <= n_max
        raise ConfigTypeError("n_max must be >= 2, got %d" % p["n_max"])
    _require_at_least(p, 1, "length")
    _require_at_least(p, 0, "degree", "decay")
    corpus = nil_corpus(
        p["seed"], p["count"], p["degree"], p["n_max"], p["length"], p["decay"]
    )
    report = cg_decay_report(corpus, p["s"], p["k"])
    rows = []
    for i, r in enumerate(report["ratios"]):
        if r is None:
            rows.append((i, "", "", 1))
        else:
            rows.append((i, r["full"], r["inner"], 0))
    _write_csv(
        outdir, "decay.csv", ["index", "ratio_full", "ratio_inner", "vacuous"],
        rows,
    )
    record = {
        "verdict": "ok" if report["plateau_ok"] else "negative",
        "s": report["s"],
        "k": report["k"],
        "count": report["count"],
        "n_max": report["n_max"],
        "ratio_max": report["ratio_max"],
        "ratio_max_inner": report["ratio_max_inner"],
    }
    if "tail_sums" in report:
        record["tail_sums"] = [[int(w), s] for w, s in report["tail_sums"]]
    return record


_RUNNERS = {
    "witness": _run_witness,
    "solve-coboundary": _run_solve_coboundary,
    "split": _run_split,
    "spectrum": _run_spectrum,
    "gh-report": _run_gh_report,
    "kernel-dim": _run_kernel_dim,
    "constant-cohomology": _run_constant_cohomology,
    "kam": _run_kam,
    "rigidity-step": _run_rigidity_step,
    "cg-decay": _run_cg_decay,
}


def run(config):
    """Execute the configured subcommand and return the exit status."""
    outdir = config.out or "."
    os.makedirs(outdir, exist_ok=True)
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise UnknownKey("unknown subcommand %r" % config.subcommand)
    try:
        record = runner(config.params, outdir)
    except Exception as exc:
        # every failure ends in a typed record; an unexpected one also leaves
        # its traceback on stderr.  KeyboardInterrupt is not an Exception and
        # propagates.
        if not isinstance(exc, (NilflowError, ValueError, OSError)):
            traceback.print_exc()
        negative = (Resonance, NonzeroAverage, NoConvergence, ThresholdExceeded)
        record = {
            "verdict": "negative" if isinstance(exc, negative) else "error",
            "reason": type(exc).__name__,
            "detail": str(exc),
        }
    record["subcommand"] = config.subcommand
    record = _write_summary(outdir, record)
    return {"negative": 2, "error": 1}.get(record["verdict"], 0)


class _Parser(argparse.ArgumentParser):
    # exit 1 on usage errors; status 2 is reserved for negative verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        print(
            json.dumps(
                {"verdict": "error", "reason": "ArgumentError", "detail": message},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        raise SystemExit(1)


def main(argv=None):
    parser = _Parser(
        prog="nilflow",
        description="experiment harness for small-divisor equations over "
        "torus and Heisenberg-nilmanifold flows",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True
    for name in SCHEMAS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="path to a key = value config file")
        sp.add_argument("--out", help="output directory (overrides config)")
        if name == "rigidity-step":
            sp.add_argument("--mu", type=float, help="coordinate tilt of the second generator")
            sp.add_argument("--perturbation-file", help="cochain file to correct")
            sp.add_argument("--cutoff", type=float, help="smoothing cutoff applied to the input")
    ns = parser.parse_args(argv)
    try:
        text = ""
        if ns.config:
            with open(ns.config, encoding="utf-8") as fh:
                text = fh.read()
        config = parse_config(text, default_subcommand=ns.subcommand)
        if config.subcommand != ns.subcommand:
            raise UnknownKey(
                "config names subcommand %r but %r was invoked"
                % (config.subcommand, ns.subcommand)
            )
        if ns.out:
            config = replace(config, out=ns.out)
        if ns.subcommand == "rigidity-step":
            if ns.mu is not None:
                config.params["mu"] = ns.mu
            if ns.perturbation_file is not None:
                config.params["perturbation_file"] = ns.perturbation_file
            if ns.cutoff is not None:
                config.params["cutoff"] = ns.cutoff
        return run(config)
    except (ConfigError, OSError) as exc:
        print(
            json.dumps({
                "verdict": "error",
                "reason": type(exc).__name__,
                "detail": str(exc),
            }, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
