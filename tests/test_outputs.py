"""Byte identity of the CLI's outputs, checked against the committed ledger
(``tests/outputs.json``, regenerated by ``tests/ledger.py --write``).

The runs go through ``tests/ledger.py`` in a fresh interpreter, so the BLAS
thread count is set before numpy loads.  Under another numpy version the
FFT and BLAS bits may differ, and the check skips; it never compares with a
tolerance.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "outputs.json"), encoding="utf-8") as _fh:
    LEDGER = json.load(_fh)


def _rerun(threads, *names):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env.pop("NILFLOW_THREADS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "ledger.py"), *names],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return json.loads(proc.stdout)


def _moved(got, names):
    """Each run or file whose exit status or digest differs from the ledger's."""
    moved = []
    for name in names:
        want, have = LEDGER["runs"][name], got["runs"][name]
        if have["status"] != want["status"]:
            moved.append("%s: exit status %d, ledger %d" % (name, have["status"], want["status"]))
        for fname in sorted(set(want["files"]) | set(have["files"])):
            if have["files"].get(fname) != want["files"].get(fname):
                moved.append("%s: %s" % (name, fname))
    return moved


@pytest.fixture(autouse=True)
def _same_numpy():
    if np.__version__ != LEDGER["numpy"]:
        pytest.skip("the ledger was made under numpy %s, this is numpy %s"
                    % (LEDGER["numpy"], np.__version__))


def test_outputs_match_the_ledger():
    assert LEDGER["OPENBLAS_NUM_THREADS"] == "1"
    got = _rerun(1)
    assert sorted(got["runs"]) == sorted(LEDGER["runs"])
    moved = _moved(got, LEDGER["runs"])
    assert not moved, "outputs moved from the ledger:\n" + "\n".join(moved)


def test_multi_mode_kam_bytes_do_not_depend_on_blas_threads():
    names = ["extra/kam-degree-6", "extra/kam-degree-16"]
    moved = _moved(_rerun(2, *names), names)
    assert not moved, "outputs moved under 2 BLAS threads:\n" + "\n".join(moved)


def test_grid_product_bytes_do_not_depend_on_blas_threads():
    # the bracket's products go through the FFT, which uses no BLAS
    names = ["extra/rigidity-degree-24"]
    moved = _moved(_rerun(2, *names), names)
    assert not moved, "outputs moved under 2 BLAS threads:\n" + "\n".join(moved)


def test_writing_named_runs_merges_them_into_the_stored_ledger(tmp_path, monkeypatch):
    import ledger

    # a stale entry for one run; the other 106 entries must come back as stored
    stale = json.loads(json.dumps(LEDGER))
    stale["runs"]["extra/kam-1d"] = {"status": 2, "files": {}}
    path = tmp_path / "outputs.json"
    path.write_text(json.dumps(stale), encoding="utf-8")
    monkeypatch.setattr(ledger, "LEDGER", str(path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", LEDGER["OPENBLAS_NUM_THREADS"])
    ledger.main(["--write", "extra/kam-1d"])
    written = json.loads(path.read_text(encoding="utf-8"))
    assert len(written["runs"]) == len(LEDGER["runs"]) == 107
    assert written == LEDGER
    # refused before anything runs or is written
    text = path.read_text(encoding="utf-8")
    with pytest.raises(SystemExit, match="unknown runs: extra/no-such-run"):
        ledger.main(["--write", "extra/kam-1d", "extra/no-such-run"])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with pytest.raises(SystemExit, match="OPENBLAS_NUM_THREADS 1, this run has 2"):
        ledger.main(["--write", "extra/kam-1d"])
    assert path.read_text(encoding="utf-8") == text
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    text = json.dumps(dict(LEDGER, numpy="1.0.0"))
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit, match="numpy 1.0.0, this run has " + np.__version__):
        ledger.main(["--write", "extra/kam-1d"])
    assert path.read_text(encoding="utf-8") == text
