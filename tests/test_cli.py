"""Config parsing, subcommand dispatch, exit codes, and output determinism."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import nilflow
from nilflow import cli, nilrep, torus
from nilflow.cli import (
    SCHEMAS,
    ExperimentConfig,
    main,
    parse_config,
    _format_value,
    run,
)
from nilflow.corpus import member_rng, toral_function
from nilflow.errors import ConfigTypeError, MissingKey, UnknownKey
from nilflow.nilrep import load_nil_function
from nilflow.torus import TorusVectorField, directional_derivative, sobolev_norm

from toral_coeffs import coeffs

PHI = (1 + math.sqrt(5)) / 2
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def make_config(sub, out, **overrides):
    text = "subcommand = %s\n" % sub
    for key, value in overrides.items():
        if isinstance(value, tuple):
            value = " ".join(repr(float(x)) if isinstance(x, float) else str(x) for x in value)
        text += "%s = %s\n" % (key, value)
    cfg = parse_config(text)
    cfg.out = str(out)
    return cfg


def config_text(cfg):
    """The key = value text of a complete config, as parse_config reads it."""
    lines = ["subcommand = %s" % cfg.subcommand, "out = %s" % cfg.out]
    lines += ["%s = %s" % (k, _format_value(v)) for k, v in sorted(cfg.params.items())]
    return "\n".join(lines) + "\n"


def read_summary(out):
    with open(os.path.join(str(out), "summary.jsonl")) as fh:
        return [json.loads(line) for line in fh]


def read_csv(out, name):
    with open(os.path.join(str(out), name), newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# parsing


def test_defaults_only_subcommand_from_empty_text():
    cfg = parse_config("", default_subcommand="cg-decay")
    assert cfg.subcommand == "cg-decay"
    assert cfg.out == "."
    assert cfg.params["count"] == 30
    assert cfg.params["k"] == 2.0


def test_subcommand_key_beats_default():
    cfg = parse_config("subcommand = cg-decay\ncount = 3\n")
    assert cfg.subcommand == "cg-decay"
    assert cfg.params["count"] == 3


def test_bad_literal_is_type_error_with_line():
    with pytest.raises(ConfigTypeError, match="line 2"):
        parse_config("alpha = 1 2\nK = abc\n", default_subcommand="witness")


def test_config_type_error_is_a_type_error():
    with pytest.raises(TypeError):
        parse_config("K = abc\nalpha = 1 2\n", default_subcommand="witness")


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey, match="line 1"):
        parse_config("bogus = 1\nalpha = 1 2\n", default_subcommand="witness")


def test_missing_required_key():
    with pytest.raises(MissingKey, match="alpha"):
        parse_config("gamma = 1.5\n", default_subcommand="witness")


def test_missing_subcommand():
    with pytest.raises(MissingKey):
        parse_config("K = 10\n")


def test_unknown_subcommand():
    with pytest.raises(UnknownKey):
        parse_config("subcommand = frobnicate\n")


def test_malformed_line_reports_position():
    with pytest.raises(ConfigTypeError, match="line 3"):
        parse_config("# header\n\njust words\n", default_subcommand="cg-decay")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigTypeError, match="duplicate"):
        parse_config("K = 5\nK = 6\nalpha = 1 2\n", default_subcommand="witness")


def test_comments_and_blanks_ignored():
    cfg = parse_config(
        "# full line comment\n\nalpha = 1.0 0.5  # trailing comment\n",
        default_subcommand="witness",
    )
    assert cfg.params["alpha"] == (1.0, 0.5)


def test_out_key_sets_output_directory():
    cfg = parse_config("out = results/a\n", default_subcommand="cg-decay")
    assert cfg.out == "results/a"


def _readme_keys():
    """{subcommand: [(key, required, note)]} from README's "Keys per
    subcommand" list: the backticked names of each bullet, a trailing *
    marking a required key, and the parenthesized note after a name or None."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    listing = text.split("Keys per subcommand", 1)[1].split("\n\n", 2)[1]
    keys = {}
    for bullet in listing.split("\n- "):
        head, _, rest = " ".join(bullet.lstrip("- ").split()).partition(": ")
        names = re.findall(r"`([^`]+)`(?: \(([^()]*)\))?", rest)
        keys[head.strip("`")] = [
            (n.rstrip("*"), n.endswith("*"), note or None) for n, note in names
        ]
    return keys


def test_readme_lists_each_subcommands_schema_keys():
    listed = _readme_keys()
    assert sorted(listed) == sorted(SCHEMAS)
    # a note that reads as some key's bound must be this key's bound
    texts = {e[2][0] for schema in SCHEMAS.values() for e in schema.values() if len(e) > 2}
    for sub, schema in SCHEMAS.items():
        expected = [(key, default is cli._REQUIRED) for key, (_typ, default, *_) in schema.items()]
        assert [(n, req) for n, req, _ in listed[sub]] == expected, sub
        bounds = {key: b[0] for key, (_t, _d, *bound) in schema.items() for b in bound}
        assert {n: note for n, _, note in listed[sub] if note in texts} == bounds, sub


def test_kam_config_roundtrips_through_serialize():
    import numpy as np

    rng = np.random.default_rng(42)
    for _ in range(25):
        params = {
            "omega": (1.0, float(rng.uniform(1, 2))),
            "amplitude": float(10.0 ** rng.uniform(-6, -2)),
            "mode": (int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
            "component": int(rng.integers(0, 2)),
            "degree": int(rng.integers(0, 8)),
            "decay": float(rng.uniform(0, 5)),
            "seed": int(rng.integers(0, 2**31)),
            "K": int(rng.integers(8, 128)),
            "max_iter": int(rng.integers(1, 12)),
            "floor": float(10.0 ** rng.uniform(-14, -8)),
        }
        cfg = ExperimentConfig("kam", params, out="some/dir")
        assert parse_config(config_text(cfg)) == cfg


def test_every_schema_roundtrips_its_defaults():
    for sub, schema in SCHEMAS.items():
        # required keys get stand-in values so the config is complete
        params = {}
        for key, (typ, default, *_) in schema.items():
            if type(default) is object:
                params[key] = (1.0, PHI) if typ == "floats" else 1
            else:
                params[key] = default
        cfg = ExperimentConfig(sub, params, out=".")
        assert parse_config(config_text(cfg)) == cfg


# ---------------------------------------------------------------------------
# runs and exit codes


def test_gh_report_golden_certified(tmp_path):
    cfg = make_config("gh-report", tmp_path, alpha=(1.0, PHI), N=6, M=48, K=20)
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["verdict"] == "certified"
    assert rec["fit_exponent"] >= 0.9
    rows = read_csv(tmp_path, "gh_per_n.csv")
    assert rows[0] == ["n", "min_abs", "truncated_min"]
    assert len(rows) == 7


@pytest.mark.parametrize("mu", [0.0, -2.0, 0.7])
def test_gh_report_rows_are_the_closed_form_bottom(tmp_path, mu):
    cfg = make_config("gh-report", tmp_path, alpha=(1.0, PHI), mu=mu, N=6, M=48, K=20)
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["verdict"] == "certified"
    assert abs(rec["fit_exponent"] - 2.0) <= 1e-12
    c = (2 * math.pi) ** 2 / (1 + mu * mu)
    assert abs(rec["fit_constant"] - c) <= 1e-14 * c
    for n, min_abs, truncated_min in read_csv(tmp_path, "gh_per_n.csv")[1:]:
        bottom = (2 * math.pi * int(n)) ** 2 / (1 + mu * mu)
        assert abs(float(min_abs) - bottom) <= 1e-14 * bottom
        assert float(truncated_min) >= float(min_abs) * (1 - 1e-9)


def test_gh_report_zero_beta_is_refused(tmp_path, capsys):
    cfg = make_config("gh-report", tmp_path, alpha=(1.0, PHI), beta=0.0, N=4, M=64)
    assert run(cfg) == 2
    rec = read_summary(tmp_path)[0]
    assert rec["verdict"] == "negative"
    assert rec["reason"] == "ZeroSpectralBottom"
    assert rec["beta_degenerate"] is True
    assert capsys.readouterr().err == ""


def test_gh_report_reads_each_half_on_its_own_terms(tmp_path):
    # a large bottom does not make the golden divisor resonant
    cfg = make_config("gh-report", tmp_path, alpha=(1.0, PHI), beta=1000.0, N=4, M=48)
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["verdict"] == "certified"
    assert rec["toral_argmin"] == [34, -21]
    assert "resonant_mode" not in rec and "reason" not in rec


def test_tiny_golden_alpha_is_not_resonant(tmp_path):
    # the resonance floor is relative: 2^-64 (1, phi) is golden at every scale
    alpha = (2.0**-64, 2.0**-64 * PHI)
    assert run(make_config("witness", tmp_path / "w", alpha=alpha)) == 0
    rec = read_summary(tmp_path / "w")[0]
    assert rec["verdict"] == "ok"
    assert rec["argmin"] == [34, -21] and rec["C"] > 0
    split = make_config("split", tmp_path / "s", alpha=alpha, count=2, degree=2,
                        n_max=2, length=4)
    assert run(split) == 0
    assert read_summary(tmp_path / "s")[0]["verdict"] == "ok"
    assert run(make_config("kernel-dim", tmp_path / "k", alpha=alpha, N=2, M=32)) == 0
    rec = read_summary(tmp_path / "k")[0]
    assert rec["verdict"] == "unique" and rec["dim"] == 1


def test_gh_report_resonant_negative(tmp_path):
    cfg = make_config("gh-report", tmp_path, alpha=(1.0, 0.5), N=4, M=48, K=20)
    assert run(cfg) == 2
    rec = read_summary(tmp_path)[0]
    assert rec["verdict"] == "negative"
    assert rec["resonant_mode"] == [1, -2]


def test_witness_golden_and_resonant(tmp_path):
    cfg = make_config("witness", tmp_path / "a", alpha=(1.0, PHI))
    assert run(cfg) == 0
    rows = read_csv(tmp_path / "a", "witness.csv")
    assert rows[1][5] == "34 -21"
    cfg = make_config("witness", tmp_path / "b", alpha=(1.0, 0.5))
    assert run(cfg) == 2


def test_witness_overflow_is_an_error_record(tmp_path, capsys):
    cfg = make_config("witness", tmp_path, alpha=(1e308, -1.5e308), K=3)
    assert run(cfg) == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert "overflow" in rec["detail"]
    assert not (tmp_path / "witness.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "alpha, gamma, argmin, C",
    [((1.0, 1.0), 1e300, [1, -1], 0.0), ((1.0, PHI), 400.0, [1, 0], 1.0)],
    ids=["resonant-gamma1e300", "golden-gamma400"],
)
def test_witness_past_the_float_range_of_k_to_the_gamma(tmp_path, capsys, alpha, gamma, argmin, C):
    # |k|^gamma overflows to inf; a resonant point scores 0, not 0 * inf = nan,
    # and no RuntimeWarning reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(make_config("witness", tmp_path, alpha=alpha, gamma=gamma))
    rec = read_summary(tmp_path)[0]
    assert status == (2 if C == 0 else 0)
    assert (rec["argmin"], rec["C"]) == (argmin, C)
    assert capsys.readouterr().err == ""


def test_kernel_dim_at_a_tol_past_one_counts_as_at_one(tmp_path, capsys):
    # |k.alpha| <= sum |k_i alpha_i|, so every tol >= 1 counts every mode,
    # the constant one included
    dims = []
    for tol in (1.0, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(make_config("kernel-dim", tmp_path / repr(tol), alpha=(1.0, PHI), tol=tol))
        dims.append(read_summary(tmp_path / repr(tol))[0]["dim"])
    assert dims == [101**2] * 2
    assert capsys.readouterr().err == ""


def test_witness_simultaneous_kind(tmp_path):
    cfg = make_config("witness", tmp_path, alpha=(PHI,), kind="simultaneous", K=50)
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["kind"] == "simultaneous"
    assert abs(rec["C"] - 0.3819660112501051) < 1e-15


def test_solve_coboundary_corpus(tmp_path):
    cfg = make_config(
        "solve-coboundary", tmp_path, alpha=(1.0, PHI), count=4, degree=6, seed=9
    )
    assert run(cfg) == 0
    rows = read_csv(tmp_path, "coboundary.csv")
    assert len(rows) == 5
    assert all(float(r[5]) < 1e-12 for r in rows[1:])


def test_solve_coboundary_input_file(tmp_path):
    src = tmp_path / "f.txt"
    src.write_text("toral 1 0 0.5 0.0\ntoral -1 0 0.5 0.0\n")
    cfg = make_config(
        "solve-coboundary", tmp_path, alpha=(1.0, PHI), input=str(src)
    )
    assert run(cfg) == 0
    h = load_nil_function(str(tmp_path / "solution.txt")).toral
    f = load_nil_function(str(src)).toral
    assert sobolev_norm(directional_derivative((1.0, PHI), h) - f, 0) < 1e-14


def test_solve_coboundary_refuses_representation_rows(tmp_path):
    # the solve covers the toral part only; dropping the rows would write a
    # solution of some other equation
    src = tmp_path / "f.txt"
    src.write_text(
        "toral 1 0 0.5 0.0\ntoral -1 0 0.5 0.0\n"
        "rep 2 1 3 0.0 2.0\nrep 1 0 0 1.0 0.0\n"
    )
    cfg = make_config(
        "solve-coboundary", tmp_path, alpha=(1.0, PHI), input=str(src)
    )
    assert run(cfg) == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "FormatError")
    assert "(1, 0)" in rec["detail"]
    assert sorted(os.listdir(tmp_path)) == ["f.txt", "summary.jsonl"]


@pytest.mark.parametrize("j", [10**15, 4 * 10**7], ids=["1e15", "4e7"])
@pytest.mark.parametrize("sub", ["solve-coboundary", "rigidity-step"])
def test_an_unbounded_hermite_index_is_refused_before_allocation(tmp_path, capsys, sub, j):
    # index j makes a row of j + 1 entries, past the 4e7-entry block cap
    src = tmp_path / "f.txt"
    if sub == "solve-coboundary":
        src.write_text("rep 1 0 %d 1.0 0.0\n" % j)
        cfg = make_config(sub, tmp_path / "out", alpha=(1.0, PHI), input=str(src))
    else:
        src.write_text("x1.y0 toral 1 0 0.001 0.0\nx2.z0 rep 1 0 %d 1.0 0.0\n" % j)
        cfg = make_config(sub, tmp_path / "out", alpha=(1.0, PHI), perturbation_file=str(src))
    tracemalloc.start()
    try:
        status = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    rec = read_summary(tmp_path / "out")[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "DimensionMismatch")
    assert "row (1, 0) has %d entries" % (j + 1) in rec["detail"]
    assert capsys.readouterr().err == ""
    assert peak < 32 * 2**20


def test_a_toral_record_past_the_cap_is_refused_by_line(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("# one mode\ntoral 100000 0 1.0 0.0\n")
    cfg = make_config("solve-coboundary", tmp_path / "out", alpha=(1.0, PHI), input=str(src))
    tracemalloc.start()
    try:
        status = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    rec = read_summary(tmp_path / "out")[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "DimensionMismatch")
    assert rec["detail"].startswith("line 2: ")
    assert capsys.readouterr().err == ""
    assert peak < 32 * 2**20


_CORPUS_SHAPES = {
    "solve-coboundary": {"alpha": (1.0, PHI), "degree": 24},
    "split": {"alpha": (1.0, PHI), "degree": 4, "n_max": 16, "length": 64},
    "cg-decay": {"n_max": 40, "length": 32},
}


@pytest.mark.parametrize("sub", sorted(_CORPUS_SHAPES))
def test_corpus_runs_hold_one_member_at_a_time(tmp_path, sub):
    # members are drawn as they are read and dropped once their row is
    # written, so the peak does not grow with count (a held member at these
    # shapes is 40-75 kB: 90 more would add 3.5-7 MB)
    def peak(count):
        cfg = make_config(sub, tmp_path / str(count), count=count, **_CORPUS_SHAPES[sub])
        tracemalloc.start()
        try:
            assert run(cfg) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # fills the draw and weight caches
    assert peak(100) <= peak(10) + 2**20


@pytest.mark.parametrize("sub", ["cg-decay", "split"])
def test_a_corpus_draw_past_the_representation_cap_is_refused(tmp_path, monkeypatch, sub):
    # a member's 2 n_max rows of length entries, 2 * 4 * 8 = 64, pass a cap
    # of 50 and are refused before they are drawn
    monkeypatch.setattr(nilrep, "_SIZE_CAP", 50)
    shape = {"alpha": (1.0, PHI)} if sub == "split" else {}
    assert run(make_config(sub, tmp_path, count=1, n_max=4, length=8, **shape)) == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "DimensionMismatch")
    assert "representation block too large (8 rows, row (-4, 0) has 8 entries)" in rec["detail"]


@pytest.mark.parametrize("slot", ["x1.y0", "x2.z0"], ids=["Y-slot", "Z-slot"])
def test_rigidity_step_refuses_representation_rows(tmp_path, capsys, slot):
    pert = tmp_path / "p.txt"
    pert.write_text("x1.y0 toral 1 0 0.001 0.0\n%s rep 1 0 0 0.001 0.0\n" % slot)
    out = tmp_path / "out"
    assert run(make_config("rigidity-step", out, alpha=(1.0, PHI), perturbation_file=str(pert))) == 1
    rec = read_summary(out)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "UnsupportedPerturbation")
    assert "slot %s" % slot in rec["detail"]
    assert os.listdir(out) == ["summary.jsonl"]
    assert capsys.readouterr().err == ""
    # smoothing below the central frequency 1 drops the row, and the step runs
    out = tmp_path / "smoothed"
    cfg = make_config("rigidity-step", out, alpha=(1.0, PHI), perturbation_file=str(pert), cutoff=0.5)
    assert run(cfg) == 0


@pytest.mark.parametrize("sub", ["solve-coboundary", "rigidity-step"])
def test_non_finite_input_values_are_refused_before_any_output(tmp_path, capsys, sub):
    src = tmp_path / "f.txt"
    prefix = "x1.y0 " if sub == "rigidity-step" else ""
    src.write_text("%storal -1 0 1.0 0.0\n%storal 1 0 nan 0\n" % (prefix, prefix))
    key = "perturbation_file" if sub == "rigidity-step" else "input"
    out = tmp_path / "out"
    assert run(make_config(sub, out, alpha=(1.0, PHI), **{key: str(src)})) == 1
    rec = read_summary(out)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "FormatError")
    assert rec["detail"].startswith("line 2: non-finite value")
    assert os.listdir(out) == ["summary.jsonl"]
    assert capsys.readouterr().err == ""


def test_solve_coboundary_nonzero_average_is_negative(tmp_path):
    src = tmp_path / "f.txt"
    src.write_text("toral 0 0 1.0 0.0\n")
    cfg = make_config(
        "solve-coboundary", tmp_path, alpha=(1.0, PHI), input=str(src)
    )
    assert run(cfg) == 2
    assert read_summary(tmp_path)[0]["reason"] == "NonzeroAverage"


@pytest.mark.parametrize(
    "sub,overrides,reason",
    [
        ("solve-coboundary", {"count": 0}, "EmptyCorpus"),
        ("solve-coboundary", {"count": -3}, "EmptyCorpus"),
        ("solve-coboundary", {"degree": -2}, "ConfigTypeError"),
        ("split", {"count": 0}, "EmptyCorpus"),
        ("split", {"count": -3}, "EmptyCorpus"),
        ("gh-report", {"N": 0}, "ConfigTypeError"),
        ("gh-report", {"N": 1}, "ConfigTypeError"),
        ("kernel-dim", {"N": 0}, "ConfigTypeError"),
        ("kernel-dim", {"K": 0}, "ValueError"),
        ("kernel-dim", {"K": -1}, "ValueError"),
        ("spectrum", {"n_max": 0}, "ConfigTypeError"),
        ("gh-report", {"alpha": "1.0"}, "ConfigTypeError"),
        ("kernel-dim", {"alpha": "1.0"}, "ConfigTypeError"),
        ("spectrum", {"alpha": "1.0"}, "ConfigTypeError"),
        ("gh-report", {"alpha": "1.0 %r 0.5" % PHI}, "ConfigTypeError"),
        ("kernel-dim", {"alpha": "1.0 %r 0.5" % PHI}, "ConfigTypeError"),
        ("spectrum", {"alpha": "1.0 %r 0.5" % PHI}, "ConfigTypeError"),
        ("cg-decay", {"n_max": 0}, "ConfigTypeError"),
        ("cg-decay", {"n_max": -1}, "ConfigTypeError"),
        ("cg-decay", {"length": 0}, "ConfigTypeError"),
        ("cg-decay", {"length": -1}, "ConfigTypeError"),
        ("cg-decay", {"n_max": 1}, "ConfigTypeError"),
        ("kam", {"omega": "1.0 %r" % PHI, "mode": "0 0"}, "ConfigTypeError"),
        ("kam", {"omega": "1.0 %r" % PHI, "max_iter": 0}, "ConfigTypeError"),
        ("kam", {"omega": "1.0 %r" % PHI, "max_iter": -2}, "ConfigTypeError"),
        ("kam", {"omega": "1.0 %r" % PHI, "floor": 0.0}, "ConfigTypeError"),
        ("kam", {"omega": "1.0 %r" % PHI, "floor": -1.0}, "ConfigTypeError"),
        ("rigidity-step", {"threshold": 0.0}, "ConfigTypeError"),
        ("rigidity-step", {"threshold": -1.0}, "ConfigTypeError"),
        ("rigidity-step", {"alpha": "1.0"}, "ConfigTypeError"),
        ("rigidity-step", {"alpha": "1.0 %r 0.5" % PHI}, "ConfigTypeError"),
        ("split", {"degree": -1}, "ConfigTypeError"),
        ("split", {"n_max": -1}, "ConfigTypeError"),
        ("split", {"length": -2}, "ConfigTypeError"),
        ("cg-decay", {"degree": -1}, "ConfigTypeError"),
        ("rigidity-step", {"degree": -1}, "ConfigTypeError"),
        # a negative decay makes the corpus weights grow with |k|
        ("solve-coboundary", {"decay": -1.0}, "ConfigTypeError"),
        ("split", {"decay": -1.0}, "ConfigTypeError"),
        ("cg-decay", {"decay": -1.0}, "ConfigTypeError"),
        ("rigidity-step", {"decay": -1.0}, "ConfigTypeError"),
    ],
    ids=[
        "count0", "count-3", "degree-2", "split-count0", "split-count-3",
        "gh-report-N0", "gh-report-N1", "kernel-dim-N0", "kernel-dim-K0",
        "kernel-dim-K-1", "spectrum-n_max0",
        "gh-report-alpha1", "kernel-dim-alpha1", "spectrum-alpha1",
        "gh-report-alpha3", "kernel-dim-alpha3", "spectrum-alpha3",
        "cg-decay-n_max0", "cg-decay-n_max-1", "cg-decay-length0",
        "cg-decay-length-1", "cg-decay-n_max1", "kam-mode0",
        "kam-max_iter0", "kam-max_iter-2", "kam-floor0", "kam-floor-1",
        "rigidity-step-threshold0", "rigidity-step-threshold-1",
        "rigidity-step-alpha1", "rigidity-step-alpha3", "split-degree-1",
        "split-n_max-1", "split-length-2", "cg-decay-degree-1",
        "rigidity-step-degree-1", "decay-1", "split-decay-1",
        "cg-decay-decay-1", "rigidity-step-decay-1",
    ],
)
def test_solve_coboundary_rejects_empty_or_negative_sizes(tmp_path, sub, overrides, reason):
    # also covers the size and alpha-length checks of the other corpus and
    # representation-block subcommands
    cfg = tmp_path / "c.cfg"
    base = {"alpha": "1.0 %r" % PHI} if "alpha" in SCHEMAS[sub] else {}
    entries = {**base, **overrides}
    cfg.write_text("".join("%s = %s\n" % kv for kv in entries.items()))
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
    rec = read_summary(out)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", reason)
    assert os.listdir(out) == ["summary.jsonl"]


@pytest.mark.parametrize(
    "sub,overrides",
    [
        ("split", {"count": 2, "degree": 0, "n_max": 0, "length": 0}),
        ("cg-decay", {"count": 2, "degree": 0}),
        ("rigidity-step", {"degree": 0}),
    ],
    ids=["split", "cg-decay", "rigidity-step"],
)
def test_zero_sizes_stay_valid(tmp_path, sub, overrides):
    base = {"alpha": (1.0, PHI)} if "alpha" in SCHEMAS[sub] else {}
    assert run(make_config(sub, tmp_path, **base, **overrides)) == 0


@pytest.mark.parametrize(
    "sub,text",
    [
        ("solve-coboundary", "alpha = nan 1.0\n"),
        ("solve-coboundary", "alpha = 1.0 %r\ndecay = nan\n" % PHI),
        ("witness", "alpha = 1.0 inf\n"),
        ("kernel-dim", "alpha = 1.0 %r\ntol = nan\n" % PHI),
    ],
    ids=["alpha-nan", "decay-nan", "witness-inf", "kernel-dim-tol-nan"],
)
def test_nonfinite_floats_are_config_type_errors(tmp_path, capsys, sub, text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (err["verdict"], err["reason"]) == ("error", "ConfigTypeError")
    assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "sub,overrides",
    [
        ("kam", {"omega": (1.0, PHI), "K": 100000}),
        ("solve-coboundary", {"alpha": (1.0, PHI), "degree": 100000}),
        # a dense M x M Hermite node matrix at M = 100000 would take 74.5 GiB
        ("spectrum", {"alpha": (1.0, PHI), "n_max": 2, "M": 100000}),
        ("gh-report", {"alpha": (1.0, PHI), "N": 2, "M": 100000}),
        # a 3-vector at K = 64 passes the 256^3 grid check, but its pullback
        # Jacobians would hold 256^3 x 9 entries
        ("kam", {"omega": (1.0, math.sqrt(2), math.sqrt(3)), "mode": (1, 1, 1)}),
    ],
    ids=["kam", "solve-coboundary", "spectrum-M", "gh-report-M", "kam-3d-jacobians"],
)
def test_oversized_grid_or_block_is_refused_before_allocation(
    tmp_path, capsys, sub, overrides
):
    cfg = make_config(sub, tmp_path, **overrides)
    tracemalloc.start()
    try:
        status = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "DimensionMismatch")
    assert "Traceback" not in capsys.readouterr().err
    assert peak < 32 * 2**20


def test_split_smoke(tmp_path):
    cfg = make_config(
        "split", tmp_path, alpha=(1.0, PHI), count=3, degree=4, n_max=2,
        length=6, seed=1,
    )
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["recon_max"] <= 1e-9
    assert len(read_csv(tmp_path, "split.csv")) == 4


@pytest.mark.parametrize("mu", [0.0, 0.4])
def test_split_builds_the_ladder_bands_once_per_row_layout(tmp_path, monkeypatch, mu):
    # every member of a corpus has the same rows, so a run builds X1's bands
    # (and at mu != 0 those of X2) once, not twice per member
    nilrep._row_bands.cache_clear()
    layouts = []
    bands = nilrep._bands

    def counting(n, size, y, z):
        layouts.append((tuple(np.ravel(n).tolist()), size, tuple(y), z))
        return bands(n, size, y, z)

    monkeypatch.setattr(nilrep, "_bands", counting)
    cfg = make_config(
        "split", tmp_path, alpha=(1.0, PHI), mu=mu, count=8, degree=4, n_max=16,
        length=64, seed=1,
    )
    assert run(cfg) == 0
    assert len(layouts) == len(set(layouts)) == (1 if mu == 0 else 2)


def test_spectrum_rows_and_trusted_flags(tmp_path):
    cfg = make_config("spectrum", tmp_path, alpha=(1.0, PHI), n_max=3, M=32)
    assert run(cfg) == 0
    rows = read_csv(tmp_path, "spectrum.csv")[1:]
    assert len(rows) == 3 * 32
    assert sum(int(r[3]) for r in rows) == 3 * 10


def test_spectrum_and_gh_report_diagonalize_once_per_truncation(tmp_path, monkeypatch):
    # both read the cached Hermite nodes
    nilrep._hermite_nodes.cache_clear()
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        sizes.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for i, (sub, keys) in enumerate([
        ("spectrum", dict(n_max=4, M=48)),
        ("gh-report", dict(N=4, M=48)),
        ("spectrum", dict(n_max=2, M=64)),
        ("gh-report", dict(N=6, M=64)),
    ]):
        assert run(make_config(sub, tmp_path / str(i), alpha=(1.0, PHI), **keys)) == 0
    assert sorted(sizes) == [48, 64]


def test_kernel_dim_golden(tmp_path):
    cfg = make_config(
        "kernel-dim", tmp_path, alpha=(1.0, PHI), N=3, M=32, K=12
    )
    assert run(cfg) == 0
    assert read_summary(tmp_path)[0]["dim"] == 1


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("M", [16, 17, 32, 33])
def test_kernel_dim_ignores_beta_and_truncation_parity(tmp_path, beta, M):
    cfg = make_config(
        "kernel-dim", tmp_path, alpha=(1.0, PHI), beta=beta, M=M, K=12
    )
    assert run(cfg) == 0
    assert read_summary(tmp_path)[0]["dim"] == 1


def test_kernel_dim_resonant_negative(tmp_path):
    cfg = make_config(
        "kernel-dim", tmp_path, alpha=(1.0, 0.5), N=2, M=32, K=12
    )
    assert run(cfg) == 2
    assert read_summary(tmp_path)[0]["dim"] > 1


def test_constant_cohomology_default_model(tmp_path):
    cfg = parse_config("", default_subcommand="constant-cohomology")
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["dim"] == 4 and rec["expected"] == 4
    # each of the 4 representatives spans 2 * dim = 6 slots
    rows = read_csv(tmp_path, "basis.csv")
    assert len(rows) == 1 + 4 * 6


def test_constant_cohomology_zero_alpha_component_is_silent(tmp_path):
    # the ranks are exact, so a zero component of alpha needs no warning
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alpha = 0 1\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilflow.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nilflow", "constant-cohomology", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    rec = read_summary(tmp_path / "out")[0]
    assert (rec["verdict"], rec["dim"]) == ("ok", 4)


_Q3_P2 = "q=3 p=2\nc 1 2 1 1\nc 1 3 2 1\nc 2 3 1 1\nc 2 3 2 2\n"


@pytest.mark.parametrize(
    "algebra,alpha,beta",
    [("", "1.0", "1.0 2.0"), (_Q3_P2, "1 2", "1 2 3")],
    ids=["heisenberg", "q3-p2"],
)
def test_constant_cohomology_refuses_mismatched_lengths(tmp_path, algebra, alpha, beta):
    # q + p agrees in both cases; alpha and beta must match q and p apiece
    entries = {"alpha": alpha, "beta": beta}
    if algebra:
        path = tmp_path / "algebra.txt"
        path.write_text(algebra)
        entries["algebra"] = str(path)
    out = tmp_path / "out"
    assert run(make_config("constant-cohomology", out, **entries)) == 1
    rec = read_summary(out)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "DimensionMismatch")
    assert os.listdir(out) == ["summary.jsonl"]


def test_kam_golden_run(tmp_path):
    cfg = make_config("kam", tmp_path, omega=(1.0, PHI))
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["residual"] < 1e-12
    assert rec["verified_sup_error"] < 1e-11
    rows = read_csv(tmp_path, "kam.csv")
    assert rows[0] == ["iteration", "residual", "residual_r2"]
    assert len(rows) >= 3


def test_kam_unverifiable_conjugacy_is_negative(tmp_path, monkeypatch):
    # a change of coordinates that is not invertible on the verification
    # grid ends the run like a failed step: NoConvergence, exit 2
    real = torus.verify_conjugacy
    monkeypatch.setattr(
        torus, "verify_conjugacy",
        lambda state: real(dataclasses.replace(
            state, u_acc=TorusVectorField([c * 1e6 for c in state.u_acc.components])
        )),
    )
    cfg = make_config("kam", tmp_path, omega=(1.0, PHI))
    assert run(cfg) == 2
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("negative", "NoConvergence")
    assert "verification failed" in rec["detail"]
    assert len(read_csv(tmp_path, "kam.csv")) >= 3


def test_kam_multi_mode_draw(tmp_path):
    p = {key: entry[1] for key, entry in SCHEMAS["kam"].items()}
    p.update(omega=(1.0, PHI), amplitude=3e-3, degree=4, decay=2.0, seed=5)
    beta = cli._kam_field(p)
    for i, c in enumerate(beta.components):
        want = toral_function(member_rng(5, i), 2, 4, 2.0) * 3e-3
        assert c.real and c.degree == 4 and np.array_equal(c.block, want.block)
    cfg = make_config("kam", tmp_path, omega=(1.0, PHI), K=32, amplitude=3e-3, degree=4, decay=2.0, seed=5)
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["verdict"] == "ok" and rec["verified_sup_error"] < 1e-11
    assert len(read_csv(tmp_path, "kam.csv")) >= 4


@pytest.mark.parametrize("key, value", [("mode", (2, 1)), ("component", 1)])
def test_kam_multi_mode_refuses_the_single_sine_keys(tmp_path, key, value):
    cfg = make_config("kam", tmp_path, omega=(1.0, PHI), degree=2, **{key: value})
    assert run(cfg) == 1
    rec = read_summary(tmp_path)[0]
    assert rec["reason"] == "ConfigTypeError"
    assert "not read when degree >= 1" in rec["detail"]


def test_kam_default_is_the_single_sine():
    p = {key: entry[1] for key, entry in SCHEMAS["kam"].items()}
    p["omega"] = (1.0, PHI)
    beta = cli._kam_field(p)
    assert beta.components[1].is_zero()
    assert coeffs(beta.components[0]) == {(1, 1): 1e-3 / 2j, (-1, -1): -1e-3 / 2j}


@pytest.mark.parametrize("K", [64, 16], ids=["full", "smoke"])
def test_the_newton_workload_kam_takes_the_direct_path(tmp_path, monkeypatch, K):
    def refuse(functions, pts):
        raise AssertionError("separable path taken")

    monkeypatch.setattr(torus, "_separable_values", refuse)
    assert run(make_config("kam", tmp_path, omega=(1.0, PHI), K=K)) == 0


def test_kam_zero_mode_is_refused_by_name(tmp_path):
    # mode 0 would write k and -k into one coefficient
    cfg = make_config("kam", tmp_path, omega=(1.0, PHI), mode=(0, 0))
    assert run(cfg) == 1
    rec = read_summary(tmp_path)[0]
    assert rec["reason"] == "ConfigTypeError"
    assert "mode" in rec["detail"]


def test_kam_resonant_omega_negative(tmp_path):
    cfg = make_config("kam", tmp_path, omega=(1.0, 0.5))
    assert run(cfg) == 2
    rec = read_summary(tmp_path)[0]
    assert rec["reason"] == "Resonance"
    assert rec["detail"] == "omega (1.0, 0.5) is resonant up to degree 64, at k = (1, -2)"


def test_rigidity_step_generated(tmp_path):
    cfg = make_config(
        "rigidity-step", tmp_path, alpha=(1.0, PHI), scale=1e-3, seed=4
    )
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["residual_norm"] < 1e-2 * rec["input_norm"]
    names = [r[0] for r in read_csv(tmp_path, "coordinates.csv")[1:]]
    assert names == ["mu1", "lam0", "lam1", "lam2", "residual_norm", "input_norm"]


@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_rigidity_step_at_zero_beta_matches_nonzero_beta(tmp_path, mu):
    # a generated perturbation is toral, where beta never enters the inverses
    digests = []
    for beta in (0.0, 1.0):
        out = tmp_path / str(beta)
        cfg = make_config(
            "rigidity-step", out, alpha=(1.0, PHI), beta=beta, mu=mu, seed=4,
            cutoff=3.0,
        )
        assert run(cfg) == 0
        digests.append((_digest(out / "coordinates.csv"), _digest(out / "summary.jsonl")))
    assert digests[0] == digests[1]


def test_rigidity_step_without_progress_is_negative(tmp_path):
    # with a cos(2 pi x1) term in the Y1 coefficient of X2 alone, the step's
    # residual equals its input
    pert = tmp_path / "pert.txt"
    pert.write_text("x2.y0 toral 1 0 0.001 0.0\nx2.y0 toral -1 0 0.001 0.0\n")
    out = tmp_path / "out"
    cfg = make_config(
        "rigidity-step", out, alpha=(1.0, PHI), perturbation_file=str(pert)
    )
    assert run(cfg) == 2
    rec = read_summary(out)[0]
    assert (rec["verdict"], rec["reason"]) == ("negative", "NoConvergence")
    assert rec["residual_norm"] == rec["input_norm"] > 0
    assert "no progress" in rec["detail"]
    assert read_csv(out, "coordinates.csv")[-2][0] == "residual_norm"


def test_rigidity_step_on_zero_input_is_ok(tmp_path):
    # nothing to correct: a zero residual is no stall
    pert = tmp_path / "pert.txt"
    pert.write_text("")
    cfg = make_config(
        "rigidity-step", tmp_path, alpha=(1.0, PHI), perturbation_file=str(pert)
    )
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["residual_norm"] == rec["input_norm"] == 0.0


def test_rigidity_step_threshold_negative(tmp_path):
    cfg = make_config(
        "rigidity-step", tmp_path, alpha=(1.0, PHI), scale=5.0, seed=4
    )
    assert run(cfg) == 2
    assert read_summary(tmp_path)[0]["reason"] == "ThresholdExceeded"


@pytest.mark.parametrize("sub", ["split", "rigidity-step"])
def test_resonant_alpha_is_refused_by_one_gate(tmp_path, monkeypatch, sub):
    calls = []
    fit = cli.fit_witness
    monkeypatch.setattr(cli, "fit_witness", lambda *args: calls.append(args) or fit(*args))
    cfg = make_config(sub, tmp_path, alpha=(1.0, 0.5))
    assert run(cfg) == 2
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("negative", "Resonance")
    assert rec["detail"] == "frequency vector admits an exact resonance at k = (1, -2)"
    assert calls == [((1.0, 0.5), 1.0, 50)]
    assert os.listdir(tmp_path) == ["summary.jsonl"]


def test_split_refuses_a_resonant_alpha_before_the_draw(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cochain_corpus", lambda *args: calls.append(args))
    assert run(make_config("split", tmp_path, alpha=(1.0, 0.5), count=80)) == 2
    assert read_summary(tmp_path)[0]["reason"] == "Resonance"
    assert calls == []


def test_resonance_is_reported_before_the_step_threshold(tmp_path):
    # at scale 5 the perturbation exceeds the threshold (ThresholdExceeded at
    # golden alpha); the resonant alpha is refused first
    cfg = make_config("rigidity-step", tmp_path, alpha=(1.0, 0.5), scale=5.0)
    assert run(cfg) == 2
    assert read_summary(tmp_path)[0]["reason"] == "Resonance"
    cfg = make_config("rigidity-step", tmp_path, alpha=(1.0, PHI), scale=5.0)
    assert run(cfg) == 2
    assert read_summary(tmp_path)[0]["reason"] == "ThresholdExceeded"


def test_cg_decay_smoke(tmp_path):
    cfg = make_config("cg-decay", tmp_path, count=5, n_max=10)
    assert run(cfg) == 0
    rec = read_summary(tmp_path)[0]
    assert rec["ratio_max"] > 0
    assert len(read_csv(tmp_path, "decay.csv")) == 6


def test_run_maps_validation_errors_to_one(tmp_path):
    cfg = make_config("spectrum", tmp_path, alpha=(1.0, PHI), M=4)
    assert run(cfg) == 1
    assert read_summary(tmp_path)[0]["verdict"] == "error"


def test_unexpected_exception_still_writes_an_error_record(
    tmp_path, monkeypatch, capsys
):
    def broken(p, outdir):
        raise RuntimeError("unexpected failure")

    monkeypatch.setitem(cli._RUNNERS, "witness", broken)
    assert run(make_config("witness", tmp_path, alpha=(1.0, PHI))) == 1
    assert "Traceback" in capsys.readouterr().err
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "RuntimeError")
    assert rec["detail"] == "unexpected failure"
    assert rec["subcommand"] == "witness"


def test_keyboard_interrupt_propagates(tmp_path, monkeypatch):
    def interrupted(p, outdir):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._RUNNERS, "witness", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(make_config("witness", tmp_path, alpha=(1.0, PHI)))


def test_nonfinite_result_is_an_error_record_without_nan(tmp_path, monkeypatch):
    monkeypatch.setitem(
        cli._RUNNERS, "witness", lambda p, outdir: {"verdict": "ok", "C": float("nan")}
    )
    assert run(make_config("witness", tmp_path, alpha=(1.0, PHI))) == 1
    text = (tmp_path / "summary.jsonl").read_text()
    assert "NaN" not in text and "Infinity" not in text
    rec = json.loads(text)
    assert (rec["verdict"], rec["reason"]) == ("error", "NonFiniteResult")
    assert rec["subcommand"] == "witness"


# ---------------------------------------------------------------------------
# determinism


# every subcommand that writes a CSV, on small configs; the second spectrum
# run underflows every eigenvalue to an exact -0.0
_CSV_RUNS = [
    ("witness", "witness.csv", dict(alpha=(1.0, PHI), K=8)),
    ("witness", "witness.csv", dict(alpha=(1.0, PHI), K=8, kind="simultaneous")),
    ("solve-coboundary", "coboundary.csv", dict(alpha=(1.0, PHI), count=2, degree=4)),
    ("split", "split.csv",
     dict(alpha=(1.0, PHI), count=2, degree=2, n_max=2, length=4, K=8)),
    ("spectrum", "spectrum.csv", dict(alpha=(1.0, PHI), n_max=2, M=17)),
    ("spectrum", "spectrum.csv",
     dict(alpha=(1e-170, 1e-170 * PHI), beta=0.0, n_max=1, M=16)),
    ("gh-report", "gh_per_n.csv", dict(alpha=(1.0, PHI), N=2, M=16, K=8)),
    ("kernel-dim", "kernel.csv", dict(alpha=(1.0, PHI), N=1, M=16, K=8)),
    ("constant-cohomology", "basis.csv", {}),
    ("kam", "kam.csv", dict(omega=(1.0, PHI), K=16)),
    ("rigidity-step", "coordinates.csv", dict(alpha=(1.0, PHI), seed=1)),
    ("cg-decay", "decay.csv", dict(count=4, n_max=8, length=8)),
]
_TEXT_COLUMNS = {"kind", "argmin", "name"}


def test_csv_cells_are_the_reprs_of_python_scalars(tmp_path):
    zeros = 0
    for i, (sub, name, overrides) in enumerate(_CSV_RUNS):
        out = tmp_path / str(i)
        assert run(make_config(sub, out, **overrides)) == 0, sub
        header, *body = read_csv(out, name)
        assert body, sub
        for row in body:
            for column, cell in zip(header, row):
                assert not cell.startswith("np."), (sub, column, cell)
                if column in _TEXT_COLUMNS:
                    continue
                try:
                    assert str(int(cell)) == cell, (sub, column, cell)
                except ValueError:
                    assert repr(float(cell)) == cell, (sub, column, cell)
                zeros += cell == "-0.0"
    assert zeros == 16
    # complex and signed-zero cells keep Python's repr; text is still quoted
    row = (1 - 2j, complex(0.0, -0.0), -0.0, 0.1, 1e-300, 3, "a,b")
    cli._write_csv(str(tmp_path), "cells.csv", ["c"] * len(row), [row])
    assert read_csv(tmp_path, "cells.csv")[1] == [
        x if isinstance(x, str) else repr(x) for x in row
    ]
    # a row with an inf or nan cell, real or complex, is refused before the
    # file is opened
    for bad in (math.inf, -math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match=r"^bad\.csv row 1 leaves the float range at x = 1$"):
            cli._write_csv(str(tmp_path), "bad.csv", ["c"], [(0.0,), (bad,)], "x = 1")
    assert not (tmp_path / "bad.csv").exists()


def _digest(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_nilflow_threads_variable_changes_no_byte(tmp_path, monkeypatch):
    cases = [
        ("solve-coboundary", "coboundary.csv",
         dict(alpha=(1.0, PHI), count=6, degree=6, seed=2)),
        ("split", "split.csv",
         dict(alpha=(1.0, PHI), count=6, degree=4, n_max=4, length=12, seed=3)),
        ("cg-decay", "decay.csv", dict(count=6, n_max=10, length=6, seed=4)),
    ]
    for sub, table, overrides in cases:
        outputs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("NILFLOW_THREADS", threads)
            out = tmp_path / sub / threads
            assert run(make_config(sub, out, **overrides)) == 0
            outputs.append((_digest(out / table), _digest(out / "summary.jsonl")))
        assert outputs[0] == outputs[1], sub


def test_repeated_runs_are_byte_identical(tmp_path):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = make_config(
            "split", out, alpha=(1.0, PHI), count=2, degree=4, n_max=2,
            length=6, seed=8,
        )
        assert run(cfg) == 0
        digests.append((_digest(out / "split.csv"), _digest(out / "summary.jsonl")))
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# command line entry


def test_main_runs_config_file(tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("alpha = 1.0 %r\n" % PHI)
    out = tmp_path / "out"
    assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "witness.csv").exists()


def test_main_malformed_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("K = abc\n")
    assert main(["witness", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["reason"] == "ConfigTypeError"


def test_main_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["witness", "--config", str(tmp_path / "none.cfg")]) == 1


def test_main_subcommand_mismatch_exits_one(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("subcommand = kam\nomega = 1.0 %r\n" % PHI)
    assert main(["witness", "--config", str(cfg)]) == 1


def test_python_m_nilflow_runs_witness(tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("alpha = 1.0 %r\n" % PHI)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilflow.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nilflow", "witness", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert read_summary(tmp_path / "out")[0]["verdict"] == "ok"


def test_main_invalid_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_main_rigidity_flags_override_config(tmp_path):
    pert = tmp_path / "pert.txt"
    pert.write_text(
        "x1.y0 toral 1 0 0.001 0.0\nx1.y0 toral -1 0 0.001 0.0\n"
        "x2.z0 toral 5 5 0.0002 0.0\nx2.z0 toral -5 -5 0.0002 0.0\n"
    )
    cfg = tmp_path / "r.cfg"
    cfg.write_text("alpha = 1.0 %r\nmu = 0.9\n" % PHI)
    out = tmp_path / "out"
    status = main([
        "rigidity-step", "--config", str(cfg), "--out", str(out),
        "--mu", "0.0", "--perturbation-file", str(pert), "--cutoff", "3",
    ])
    assert status == 0
    rec = read_summary(out)[0]
    assert rec["mu"] == 0.0
    # the cutoff removed the degree-5 central modes before the step
    assert rec["input_norm"] < 2e-3


@pytest.mark.parametrize(
    "record",
    ["x1.y0 toral 0 0 0.001 0.002", "x1.z0 toral 0 0 0.001 0.002"],
    ids=["x1.y0", "x1.z0"],
)
def test_rigidity_step_refuses_a_complex_average(tmp_path, capsys, record):
    # project_P reads only real parts (and never x1.z0); the reduction of the
    # constant obstruction refuses the imaginary part by slot
    pert = tmp_path / "pert.txt"
    pert.write_text(record + "\n")
    out = tmp_path / "out"
    cfg = make_config(
        "rigidity-step", out, alpha=(1.0, PHI), perturbation_file=str(pert)
    )
    assert run(cfg) == 1
    rec = read_summary(out)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert record.split()[0] in rec["detail"]
    assert capsys.readouterr().err == ""
    assert not (out / "coordinates.csv").exists()


def test_rigidity_step_h_norm_is_continuous_in_mu(tmp_path):
    # the Z average under X1 is a constant coboundary at every mu; its shift
    # must not jump where |mu alpha| crosses a rank tolerance
    pert = tmp_path / "pert.txt"
    pert.write_text(
        "x1.y0 toral 1 0 0.001 0.0\nx1.y0 toral -1 0 0.001 0.0\n"
        "x1.z0 toral 0 0 0.002 0.0\n"
        "x2.y1 toral 0 1 0.0005 0.0\nx2.y1 toral 0 -1 0.0005 0.0\n"
    )
    norms = []
    for i, mu in enumerate((0.0, 1e-12, 1e-6, 0.3)):
        out = tmp_path / ("out%d" % i)
        cfg = make_config(
            "rigidity-step", out, alpha=(1.0, PHI), mu=mu,
            perturbation_file=str(pert),
        )
        assert run(cfg) == 0
        norms.append(read_summary(out)[0]["h_norm"])
    assert max(norms) - min(norms) <= 1e-9 * max(norms)


# ---------------------------------------------------------------------------
# the input contract: declared bounds, overflow refusals, a bounded fuzz


@pytest.mark.parametrize(
    "overrides",
    [{"k": 100.0}, {"k": 200.0}, {"s": -100.0, "k": 200.0},
     {"s": -1e300}, {"k": -1e300}, {"s": 300.0, "k": -300.0},
     {"s": 300.0, "k": -300.0, "decay": 1000.0}],
    ids=["k100", "k200", "s-100-k200", "s-1e300", "k-1e300", "s300-k-300",
         "s300-k-300-decay1000"],
)
def test_cg_decay_refuses_orders_outside_the_float_range(tmp_path, capsys, overrides):
    # at the default n_max 40 these norms overflow or underflow; read as
    # numbers they would make every ratio 0 (a vacuous ok) or raise
    assert run(make_config("cg-decay", tmp_path, **overrides)) == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert "s = %r, k = %r" % (overrides.get("s", 0.0), overrides.get("k", 2.0)) in rec["detail"]
    assert "Traceback" not in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["summary.jsonl"]


def test_rigidity_step_at_an_overflowing_mu_exceeds_the_threshold(tmp_path, capsys):
    # the generated perturbation scales with mu; its norm is past the float
    # range and reads as inf, from the config key and from the flag alike
    run_key = run(make_config("rigidity-step", tmp_path / "key", alpha=(1.0, PHI), mu=1e300))
    cfg = tmp_path / "r.cfg"
    cfg.write_text("alpha = 1.0 %r\n" % PHI)
    run_flag = main([
        "rigidity-step", "--config", str(cfg), "--out", str(tmp_path / "flag"), "--mu=1e300",
    ])
    assert run_key == run_flag == 2
    for out in ("key", "flag"):
        rec = read_summary(tmp_path / out)[0]
        assert (rec["verdict"], rec["reason"]) == ("negative", "ThresholdExceeded")
        assert "norm inf" in rec["detail"]
    assert "Traceback" not in capsys.readouterr().err


def test_gh_report_refuses_a_beta_whose_bottom_overflows(tmp_path, capsys):
    assert run(make_config("gh-report", tmp_path, alpha=(1.0, PHI), beta=1e300)) == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert "beta = 1e+300" in rec["detail"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub, overrides, detail",
    [
        ("spectrum", dict(mu=1e160, n_max=2, M=32), "mu = 1e+160"),
        ("gh-report", dict(mu=1e200, N=2, M=32), "beta = 1.0 underflows"),
        ("gh-report", dict(beta=1e-200, N=2, M=32), "beta = 1e-200 underflows"),
    ],
    ids=["spectrum-mu1e160", "gh-report-mu1e200", "gh-report-beta1e-200"],
)
def test_spectra_past_the_float_range_are_error_records(
    tmp_path, capsys, sub, overrides, detail
):
    # an infinite eigenvalue or a bottom flushed to zero is no certificate;
    # no RuntimeWarning may reach stderr on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(make_config(sub, tmp_path, alpha=(1.0, PHI), **overrides))
    assert status == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert detail in rec["detail"]
    assert capsys.readouterr().err == ""
    assert os.listdir(tmp_path) == ["summary.jsonl"]


@pytest.mark.parametrize(
    "overrides, detail",
    [
        (dict(alpha=(1.0, PHI), mu=1e150), "alpha = (1.0, %r), beta = 1.0, mu = 1e+150" % PHI),
        (dict(alpha=(1.0, PHI), beta=1e-310), "alpha = (1.0, %r), beta = 1e-310, mu = 0.0" % PHI),
        (dict(alpha=(1e300, PHI * 1e300)), "alpha = (1e+300, %r), beta = 1.0, mu = 0.0" % (PHI * 1e300)),
    ],
    ids=["mu1e150", "beta1e-310", "alpha1e300"],
)
def test_split_past_the_float_range_is_an_error_record(tmp_path, capsys, overrides, detail):
    # the members' rows would read inf or nan; no CSV and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(make_config("split", tmp_path, count=2, **overrides))
    assert status == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert rec["detail"] == "split.csv row 0 leaves the float range at " + detail
    assert capsys.readouterr().err == ""
    assert os.listdir(tmp_path) == ["summary.jsonl"]


@pytest.mark.parametrize(
    "overrides, detail",
    [
        (dict(alpha=(1e-300, PHI)), "alpha = (1e-300, %r), r = 1.0, sigma = 2.0" % PHI),
        (dict(alpha=(1.0, PHI), sigma=1e300), "alpha = (1.0, %r), r = 1.0, sigma = 1e+300" % PHI),
        (dict(alpha=(1.0, PHI), r=1e300), "alpha = (1.0, %r), r = 1e+300, sigma = 2.0" % PHI),
        (dict(alpha=(1.0, PHI), r=-1e300), "alpha = (1.0, %r), r = -1e+300, sigma = 2.0" % PHI),
    ],
    ids=["alpha1e-300", "sigma1e300", "r1e300", "r-1e300"],
)
def test_solve_coboundary_past_the_float_range_is_an_error_record(
    tmp_path, capsys, overrides, detail
):
    # a norm past the float range would leave inf or nan in the member's
    # row, or make the ratio a vacuous 0, as would a nonzero member's norm
    # below it; no CSV and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(make_config("solve-coboundary", tmp_path, count=2, degree=4, **overrides))
    assert status == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert rec["detail"] == "coboundary.csv row 0 leaves the float range at " + detail
    assert capsys.readouterr().err == ""
    assert os.listdir(tmp_path) == ["summary.jsonl"]


def test_real_input_past_the_float_range_names_the_overflow(tmp_path, capsys):
    # the mirrored input reads as real, at 1e308 as at 1e300; its norms
    # overflow in the solve, and the message names the input's largest
    # coefficient
    for value in ("1e300", "1e308"):
        data = tmp_path / ("f%s.txt" % value)
        data.write_text("toral 1 0 %s 0\ntoral -1 0 %s 0\n" % (value, value))
        out = tmp_path / value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = run(make_config("solve-coboundary", out, alpha=(1.0, PHI), input=data))
        assert status == 1
        rec = read_summary(out)[0]
        assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
        assert rec["detail"] == (
            "coboundary.csv row 0 leaves the float range at max |c_k| = %s, "
            "alpha = (1.0, %r), r = 1.0, sigma = 2.0" % (float(value), PHI)
        )
        assert capsys.readouterr().err == ""
        assert os.listdir(out) == ["summary.jsonl"]


@pytest.mark.parametrize(
    "overrides, row",
    [(dict(amplitude=1e300), 0), (dict(omega=(1e300, PHI)), 1)],
    ids=["amplitude1e300", "omega1e300"],
)
def test_kam_past_the_float_range_is_an_error_record(tmp_path, capsys, overrides, row):
    # the residual history would read inf, in row 0 for the amplitude and in
    # row 1 for omega; no kam.csv and no RuntimeWarning
    cfg = dict(omega=(1.0, PHI), K=16, max_iter=3)
    cfg.update(overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(make_config("kam", tmp_path, **cfg))
    assert status == 1
    rec = read_summary(tmp_path)[0]
    assert (rec["verdict"], rec["reason"]) == ("error", "ValueError")
    assert rec["detail"] == "kam.csv row %d leaves the float range at omega = %r, amplitude = %r" % (
        row, cfg["omega"], cfg.get("amplitude", 1e-3)
    )
    assert capsys.readouterr().err == ""
    assert os.listdir(tmp_path) == ["summary.jsonl"]


# small shapes, at the scale of the perfbench smoke configs
_FUZZ_BASE = {
    "witness": {"alpha": "1.0 %r" % PHI, "K": 8},
    "solve-coboundary": {"alpha": "1.0 %r" % PHI, "count": 2, "degree": 4},
    "split": {"alpha": "1.0 %r" % PHI, "count": 2, "degree": 2, "n_max": 2,
              "length": 4, "K": 8},
    "spectrum": {"alpha": "1.0 %r" % PHI, "n_max": 2, "M": 16},
    "gh-report": {"alpha": "1.0 %r" % PHI, "N": 2, "M": 16, "K": 8},
    "kernel-dim": {"alpha": "1.0 %r" % PHI, "N": 1, "M": 16, "K": 8},
    "kam": {"omega": "1.0 %r" % PHI, "K": 16, "max_iter": 3},
    "rigidity-step": {"alpha": "1.0 %r" % PHI, "degree": 1, "K": 8},
    "cg-decay": {"count": 2, "n_max": 4, "length": 4},
}
_BOUNDED = [
    (sub, key)
    for sub, schema in SCHEMAS.items()
    for key, entry in schema.items()
    if len(entry) > 2
]


def _edge_texts(typ, bound):
    """The values at and just past a bound, as config text."""
    if bound.startswith(">"):
        op, x = bound.split()
        x = float(x)
        past = math.nextafter(x, -math.inf if op == ">=" else math.inf)
        if typ == "int":
            past = x - 1 if op == ">=" else x + 1
            return [str(int(x)), str(int(past))]
        return [repr(x), repr(past)]
    if bound == "a pair":
        return ["1.0", "1.0 %r" % PHI, "1.0 %r 0.5" % PHI]
    if bound == "nonzero":
        return ["0 0", "0 1"]
    return bound.split(" or ") + ["other"]


def _fuzz_case(tmp_path, capsys, sub, entries, flags=()):
    tmp_path.mkdir()
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in entries.items()))
    out = tmp_path / "out"
    status = main([sub, "--config", str(cfg), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert status in (0, 1, 2)
    if not (out / "summary.jsonl").exists():
        # a config refused before the run: its record is all of stderr
        (line,) = err.splitlines()
        return status, json.loads(line)
    assert err == ""
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            for cell in (c for row in rows for c in row):
                try:
                    x = float(cell)
                except ValueError:
                    continue  # text, an empty cell or an integer vector
                assert math.isfinite(x), (name, cell)

    def refuse(name):
        raise AssertionError("non-finite JSON constant %s" % name)

    with open(out / "summary.jsonl") as fh:
        rec = json.loads(fh.read(), parse_constant=refuse)
    if rec["verdict"] == "ok":
        assert rec.get("count", 1) >= 1 and rec.get("ratio_max", 1) != 0.0, rec
    return status, rec


@pytest.mark.parametrize("sub,key", _BOUNDED, ids=["%s-%s" % c for c in _BOUNDED])
def test_fuzz_declared_bounds_end_in_a_result_or_a_typed_record(
    tmp_path, capsys, sub, key
):
    typ, _default, (bound, holds) = SCHEMAS[sub][key]
    rng = np.random.default_rng([21, len(sub), len(key)])
    base = dict(_FUZZ_BASE[sub])
    if "seed" in SCHEMAS[sub]:
        base["seed"] = int(rng.integers(0, 2**31))
    for i, text in enumerate(_edge_texts(typ, bound) + ["nan", "inf", "-inf"]):
        status, rec = _fuzz_case(tmp_path / str(i), capsys, sub, {**base, key: text})
        try:
            value = cli._CONVERTERS[typ](text)
        except ValueError:
            assert (status, rec["reason"]) == (1, "ConfigTypeError"), text
            continue
        if holds(value):
            assert rec.get("reason") not in ("ConfigTypeError", "EmptyCorpus"), text
        else:
            reason = "EmptyCorpus" if key == "count" else "ConfigTypeError"
            assert (status, rec["reason"]) == (1, reason), text
            assert key in rec["detail"]
            assert os.listdir(tmp_path / str(i) / "out") == ["summary.jsonl"]


def _float_cases():
    """One case per component of every float and floats key, at each end of
    the float range: the component is set to the value and every other key
    keeps the fuzz base's value or its default."""
    cases = []
    for sub, schema in SCHEMAS.items():
        for key, (typ, default, *_bound) in schema.items():
            if typ not in ("float", "floats"):
                continue
            parts = _FUZZ_BASE.get(sub, {}).get(key, _format_value(default)).split()
            for i in range(len(parts)):
                for value in ("1e+300", "-1e+300", "1e-300", "-1e-300"):
                    text = " ".join(parts[:i] + [value] + parts[i + 1:])
                    name = "%s-%s%s=%s" % (sub, key, i if typ == "floats" else "", value)
                    cases.append(pytest.param(sub, key, text, id=name))
    return cases


@pytest.mark.parametrize("sub, key, text", _float_cases())
def test_fuzz_float_extremes_end_in_finite_cells_or_a_typed_record(tmp_path, capsys, sub, key, text):
    # _fuzz_case checks the status, stderr, the CSV cells and the JSON record
    _fuzz_case(tmp_path / "case", capsys, sub, {**_FUZZ_BASE.get(sub, {}), key: text})


@pytest.mark.parametrize(
    "flag",
    # the = form passes a value that starts with a minus sign
    ["--cutoff=nan", "--cutoff=inf", "--mu=nan", "--mu=inf", "--cutoff=-inf"],
)
def test_rigidity_flags_refuse_nonfinite_values(tmp_path, capsys, flag):
    base = dict(_FUZZ_BASE["rigidity-step"])
    status, rec = _fuzz_case(tmp_path / "case", capsys, "rigidity-step", base, (flag,))
    assert (status, rec["verdict"], rec["reason"]) == (1, "error", "ConfigTypeError")
    assert flag.split("=")[0] in rec["detail"]
    assert not (tmp_path / "case" / "out" / "summary.jsonl").exists()
