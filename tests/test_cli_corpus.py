"""The CLI corpus runner: its classes, its table and its inputs, without a
subprocess; and the replays of corpus outputs that need the library in-process."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cli_corpus
from ltshadow import cli, in_positive_ss_cone, lt_state
from ltshadow.serialize import matrix_from_json, process_from_json


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("corpus")
    return folder, cli_corpus.write_inputs(folder)


def _run(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("a, b, expected", [
    (2, 2.0, "values-equal"),
    ([0.1, {"x": -0.0}], [0.1, {"x": -0.0}], "values-equal"),
    (0, -0.0, "differs"),
    (0.0, -0.0, "verdicts-only"),
    ({"verdict": "member", "residual": 1e-9}, {"verdict": "member", "residual": 2e-9},
     "verdicts-only"),
    ({"verdict": "member", "residual": 1e-9}, {"verdict": "non_member", "residual": 1e-9},
     "differs"),
    ({"deterministic": True}, {"deterministic": 1}, "differs"),
    ({"n_accepted": 100}, {"n_accepted": 99}, "differs"),
    ([1.0, 2.0], [1.0], "differs"),
    ({"a": 1, "b": -0.0}, {"b": -0.0, "a": 1.0}, "values-equal"),
    ({"a": 1, "b": -0.0}, {"b": 0.0, "a": 1}, "verdicts-only"),
    ({"a": 1}, {"a": 1, "b": 2}, "differs"),
    ([0, "error: x\n"], [0, "error: y\n"], "differs"),
])
def test_classify(a, b, expected):
    """Numbers compare as IEEE doubles bit for bit; only float changes are
    verdicts-only, and any change of a string, boolean, integer or shape differs."""
    assert cli_corpus.classify(a, b) == expected
    assert cli_corpus.classify(b, a) == expected


def test_entry_names_are_unique_and_every_check_names_an_entry():
    names = [name for name, _, _ in cli_corpus.CORPUS]
    assert len(names) == len(set(names))
    assert set(cli_corpus.CHECKS) <= set(names)
    assert {code for _, _, code in cli_corpus.CORPUS} <= {0, 1, 2, 3, 4, 5}


def test_the_writer_makes_every_input_a_command_names(inputs):
    folder, written = inputs
    named = {arg for _, argv, _ in cli_corpus.CORPUS for arg in argv.split()
             if arg.endswith(".json")}
    assert named - set(written) == {"missing.json"}
    assert sorted(p.name for p in folder.iterdir()) == sorted(written)


@pytest.mark.parametrize("argv", ["cone --cone boxtimes -i band.json",
                                  "map --check positive --seed 3 -i twisted-pt.json",
                                  "fiber --shadow rank4.json --n 10 --seed 1 --map missing.json"])
def test_the_counting_runner_is_the_cli(inputs, argv, capsys, eigensolve_log, monkeypatch):
    """A counted run prints what `python -W error -m ltshadow` prints and exits as it does,
    and counts the eigensolves that the same command makes in-process."""
    folder, _ = inputs
    got, made = cli_corpus.run(cli_corpus.ROOT / "src", argv, folder)
    plain = subprocess.run([sys.executable, "-W", "error", "-m", "ltshadow", *argv.split()],
                           cwd=folder, capture_output=True, text=True, timeout=600,
                           env={**os.environ, "PYTHONPATH": str(cli_corpus.ROOT / "src")})
    assert got == [plain.returncode, plain.stdout, plain.stderr]
    monkeypatch.chdir(folder)
    eigensolve_log.clear()
    assert cli.main(argv.split()) == got[0]
    assert made == (len(eigensolve_log), sum(n for _, n in eigensolve_log))


def test_cli_floats_round_trip_bit_for_bit(inputs, capsys):
    """The corpus's shadow-rank9 and cone-psd-ss-rank9 outputs parse back to the
    in-process results, to the last bit."""
    folder, written = inputs
    m, dims = matrix_from_json(written["rank9.json"])
    rows = np.array(_run(capsys, ["shadow", "-i", str(folder / "rank9.json")])["rows"])
    assert rows.dtype == float and np.array_equal(rows, lt_state(m, dims).op)
    cert = _run(capsys, ["cone", "--cone", "psd-ss", "-i", str(folder / "rank9.json")])
    ref = in_positive_ss_cone(m, dims).certificate
    for key in ("eigenvalues", "eigenvectors"):
        assert np.array(cert["certificate"][key]).tobytes() == np.asarray(ref[key]).tobytes()


def test_twisted_map_witness_replays(inputs, capsys):
    """map-twisted-positive: the witness of a map that is not positive is certified,
    and its image has the reported negative eigenvalue."""
    folder, written = inputs
    d = _run(capsys, ["map", "--check", "positive", "--seed", "3", "-i",
                      str(folder / "twisted-pt.json")])
    x = np.array(d["witness_vector"])
    image = process_from_json(written["twisted-pt.json"]).apply(np.outer(x, x))
    lam = float(np.linalg.eigvalsh(image)[0])
    assert d["verdict"] == "not_positive" and d["heuristic"] is False
    assert lam < -1e-8 and abs(lam - d["min_value"]) <= 1e-12
