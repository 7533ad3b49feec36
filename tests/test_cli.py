"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matrix_helpers import parity_breaking_map

from ltshadow import cli, fiber, shadow
from ltshadow.cones import ConeMembershipResult
from ltshadow.linalg import kron, sym_part
from ltshadow.processes import swap_process
from ltshadow.serialize import dumps, matrix_to_json, process_to_json
from ltshadow.shadow import local_shadow_matrix
from ltshadow.upb import tiles_upb


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ltshadow", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def epr_projector():
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return np.outer(z, z)


def epr_json():
    return dumps(matrix_to_json(epr_projector(), dims=(2, 2)))


def epr_shadow_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(dumps(matrix_to_json(local_shadow_matrix(epr_projector(), (2, 2)),
                                         dims=(2, 2))))
    return path


def test_version():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_cli_import_leaves_scipy_optimize_out(tmp_path):
    """No scipy module is loaded by the CLI, even by the min-cone refit."""
    mixture = 0.5 * (kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
                     + kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
    path = tmp_path / "mixture.json"
    path.write_text(dumps(matrix_to_json(mixture, dims=(2, 2))))
    code = (
        "import contextlib, io, sys\n"
        "from ltshadow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['examples', '--seed', '7', '--upb']),\n"
        f"             cli.main(['cone', '--cone', 'min', '--seed', '3', '-i', {str(path)!r}])]\n"
        "print(codes, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def test_no_scipy_in_source_or_dependencies():
    package = Path(cli.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if "scipy" in path.read_text(encoding="utf-8"))
    assert users == []
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    dependencies = pyproject.split("dependencies = [", 1)[1].split("]", 1)[0]
    assert "numpy" in dependencies and "scipy" not in dependencies


def test_shadow_command_epr(tmp_path):
    proc = run_cli(["shadow", "--dims", "2,2"], stdin_text=epr_json())
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    w = np.asarray(out["rows"])
    s = sym_part(np.outer([1.0, 0.0], [0.0, 1.0]))
    closed = 0.5 * (kron(np.diag([1.0, 0]), np.diag([0, 1.0]))
                    + kron(np.diag([0, 1.0]), np.diag([1.0, 0]))) + kron(s, s)
    np.testing.assert_allclose(w, closed, atol=1e-12)
    assert out["kernel_component_norm"] == pytest.approx(0.5, abs=1e-12)


def test_decompose_command():
    proc = run_cli(["decompose"], stdin_text=epr_json())
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["aa_norm"] == pytest.approx(0.5, abs=1e-12)
    assert out["sa_norm"] == pytest.approx(0.0, abs=1e-12)
    assert len(out["coords"]["ss"]) == 9


def test_cone_command_boxtimes_member(tmp_path):
    shadow_file = tmp_path / "w.json"
    run1 = run_cli(["shadow", "--dims", "2,2", "-o", str(shadow_file)],
                   stdin_text=epr_json())
    assert run1.returncode == 0
    proc = run_cli(["cone", "--cone", "boxtimes", "--seed", "7",
                    "-i", str(shadow_file)])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["verdict"] == "member"
    assert out["seed"] == 7
    k = np.asarray(out["certificate"]["kernel_offset"])
    w = np.asarray(json.loads(shadow_file.read_text())["rows"])
    assert np.linalg.eigvalsh(w + k)[0] >= -1e-8


def test_cone_command_requires_seed():
    proc = run_cli(["cone", "--cone", "max"], stdin_text=epr_json())
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_cone_boxtimes_needs_no_seed(tmp_path, capsys):
    """The barrier oracle draws no random numbers: without --seed the
    output is the with-seed output minus the echoed seed."""
    path = epr_shadow_file(tmp_path)
    assert cli.main(["cone", "--cone", "boxtimes", "-i", str(path)]) == 0
    without = json.loads(capsys.readouterr().out)
    assert cli.main(["cone", "--cone", "boxtimes", "--seed", "7", "-i", str(path)]) == 0
    seeded = json.loads(capsys.readouterr().out)
    assert seeded.pop("seed") == 7
    assert "seed" not in without and without == seeded


@pytest.mark.parametrize("cone", ["min", "psd-ss", "boxtimes", "max", "effect"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "abc"])
def test_cone_tol_must_be_finite_and_positive(tmp_path, capsys, cone, tol):
    path = epr_shadow_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["cone", "--cone", cone, "--seed", "1", "--tol", tol, "-i", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"argument --tol: tol must be finite and positive, "
                                         f"got {tol!r}")


def test_map_tol_must_be_finite_and_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["map", "--check", "positive", "--seed", "3", "--tol", "inf"])
    assert exc.value.code == 2
    assert "tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cone", "--cone", "boxtimes"],
    ["cone", "--cone", "min"],
    ["cone", "--cone", "max"],
    ["map", "--check", "positive"],
    ["fiber"],
    ["examples"],
])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_malformed_seed_exit_2_before_any_work(capsys, monkeypatch, argv, seed):
    """A seed that is not an integer >= 0 exits 2 at parsing with the seed
    rule's message, whatever the input (a one-factor shadow never reaches a
    generator)."""
    monkeypatch.setattr(cli, "_read_json", lambda path: pytest.fail("read input"))
    monkeypatch.setattr(cli, "run_verification_report", lambda **kw: pytest.fail("ran"))
    files = {"cone": ["-i", "in.json"], "map": ["-i", "in.json"],
             "fiber": ["--shadow", "in.json", "--dims", "4"], "examples": []}
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", seed] + files[argv[0]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "argument --seed" in err
    assert err.splitlines()[-1].endswith(f"seed must be an integer >= 0, got {seed!r}")


def test_shadow_command_projects_once(tmp_path, capsys, monkeypatch):
    calls = []
    project = shadow._symmetrize
    monkeypatch.setattr(shadow, "_symmetrize",
                        lambda w, dims: calls.append(dims) or project(w, dims))
    path = tmp_path / "epr.json"
    path.write_text(epr_json())
    assert cli.main(["shadow", "-i", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert calls == [(2, 2)]
    assert out["kernel_component_norm"] == pytest.approx(0.5, abs=1e-12)


def test_malformed_json_exit_2():
    proc = run_cli(["decompose", "--dims", "2,2"], stdin_text="{not json")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_dimension_mismatch_exit_3():
    proc = run_cli(["decompose", "--dims", "3,3"], stdin_text=epr_json())
    assert proc.returncode == 3


def test_factor_above_nine_exit_3():
    m = np.eye(20) / 20
    proc = run_cli(["shadow"], stdin_text=dumps(matrix_to_json(m, dims=(10, 2))))
    assert proc.returncode == 3
    assert proc.stdout == ""
    proc = run_cli(["shadow", "--dims", "2,10"], stdin_text=dumps(matrix_to_json(m)))
    assert proc.returncode == 3
    proc = run_cli(["shadow"], stdin_text=dumps(matrix_to_json(np.eye(18) / 18, dims=(9, 2))))
    assert proc.returncode == 0, proc.stderr


def _three_qubit_shadow(tmp_path):
    """The (2,2,2) shadow of a seeded full-rank state."""
    a = np.random.default_rng(0).standard_normal((8, 16))
    rho = a @ a.T / np.trace(a @ a.T)
    path = tmp_path / "three.json"
    path.write_text(dumps(matrix_to_json(local_shadow_matrix(rho, (2, 2, 2)), dims=(2, 2, 2))))
    return path


def test_three_factor_shadows_through_the_cli(tmp_path, capsys):
    """boxtimes, psd-ss, fiber and decompose take (2,2,2) input, with
    byte-identical output across runs; min and max are bipartite and exit 3."""
    path = str(_three_qubit_shadow(tmp_path))
    outputs = {}
    for name, argv in (("boxtimes", ["cone", "--cone", "boxtimes", "-i", path]),
                       ("psd-ss", ["cone", "--cone", "psd-ss", "-i", path]),
                       ("fiber", ["fiber", "--shadow", path, "--n", "50", "--seed", "1"]),
                       ("decompose", ["decompose", "-i", path])):
        runs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        outputs[name] = json.loads(runs[0])
    assert outputs["boxtimes"]["verdict"] == "member"
    fiber = outputs["fiber"]
    assert (fiber["kernel_dim"], fiber["n_accepted"], fiber["rejected"]) == (9, 50, 0)
    assert set(outputs["decompose"]["coords"]) == {
        "sss", "ssa", "sas", "saa", "ass", "asa", "aas", "aaa"}
    for cone in ("min", "max"):
        assert cli.main(["cone", "--cone", cone, "--seed", "1", "-i", path]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: factor dimensions must be 2")


def test_total_dimension_above_81_exit_3(capsys, monkeypatch):
    """Dims whose product is above 81 exit 3 before any grading basis is
    built: a 1x1 process on in_dims (9, 9, 2) would need gigabytes."""
    cases = [(["map", "--check", "local-positive"],
              {"in_dims": [9, 9, 2], "out_dims": [1], "matrix": [[1.0]]}),
             (["map", "--check", "shadow"],
              {"in_dims": [1], "out_dims": [5, 5, 4], "matrix": [[1.0]]}),
             (["shadow"], {"dims": [5, 5, 4], "rows": np.eye(100).tolist()})]
    for argv, payload in cases:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        tracemalloc.start()
        try:
            code = cli.main(argv + ["-i", "-"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 4_000_000
        out, err = capsys.readouterr()
        assert out == "" and "products above 81 are not supported" in err


def test_map_factor_above_nine_exit_3():
    size = {(2, 2): 16, (10, 2): 400, (2, 10): 400}  # grading coordinates per dims
    for in_dims, out_dims in (((10, 2), (2, 2)), ((2, 2), (2, 10))):
        matrix = np.zeros((size[out_dims], size[in_dims]))
        text = dumps({"in_dims": in_dims, "out_dims": out_dims, "matrix": matrix})
        proc = run_cli(["map", "--check", "local-positive"], stdin_text=text)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""


def test_missing_dims_exit_3():
    bare = dumps(matrix_to_json(epr_projector()))
    proc = run_cli(["shadow"], stdin_text=bare)
    assert proc.returncode == 3


def test_map_command_local_positive():
    proc = run_cli(["map", "--check", "local-positive"],
                   stdin_text=dumps(process_to_json(swap_process((2, 2)))))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["locally_positive"] is True


def test_map_command_shadow_refusal_exit_4():
    from ltshadow.processes import epsilon_functional

    proc = run_cli(["map", "--check", "shadow"],
                   stdin_text=dumps(process_to_json(epsilon_functional((2, 2)))))
    assert proc.returncode == 4


@pytest.mark.parametrize("check", ["local-positive", "shadow"])
def test_map_command_refuses_odd_to_even_leakage_exit_2(tmp_path, capsys, check):
    path = tmp_path / "phi.json"
    path.write_text(dumps(process_to_json(parity_breaking_map())))
    assert cli.main(["map", "--check", check, "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "parity grading" in captured.err


def test_map_command_positive():
    proc = run_cli(["map", "--check", "positive", "--seed", "3"],
                   stdin_text=dumps(process_to_json(swap_process((2, 2)))))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["verdict"] == "positive"
    assert out["seed"] == 3


def test_fiber_command_with_map(tmp_path):
    demo = 0.5 * epr_projector() + 0.5 * np.eye(4) / 4
    from ltshadow.shadow import local_shadow_matrix

    shadow_file = tmp_path / "shadow.json"
    shadow_file.write_text(dumps(matrix_to_json(local_shadow_matrix(demo, (2, 2)),
                                                dims=(2, 2))))
    map_file = tmp_path / "map.json"
    map_file.write_text(dumps(process_to_json(swap_process((2, 2)))))
    proc = run_cli(["fiber", "--shadow", str(shadow_file), "--n", "20",
                    "--seed", "5", "--map", str(map_file)])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["seed"] == 5
    assert out["kernel_dim"] == 1
    assert out["n_accepted"] >= 15
    assert out["spread"]["deterministic"] is True


def test_fiber_command_middle_rank_shadow(tmp_path):
    """The shadow of a rank-4 (3,3) state has a positive completion (the
    state itself), so the sampler must find a start point and fill its fiber."""
    from ltshadow.shadow import lt_state

    a = np.random.default_rng(0).standard_normal((9, 4))
    rho = a @ a.T / np.trace(a @ a.T)
    shadow_file = tmp_path / "shadow.json"
    shadow_file.write_text(dumps(matrix_to_json(lt_state(rho, (3, 3)).op, dims=(3, 3))))
    proc = run_cli(["fiber", "--shadow", str(shadow_file), "--n", "100", "--seed", "1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_accepted"] == 100


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)], ids=["segment", "pairwise"])
def test_fiber_push_with_no_positive_image_exit_4(tmp_path, dims):
    """Under -identity every pushed representative fails positivity: there is
    no spread to report, so the command exits 4 with one error line, on the
    segment route (two rebits) and on the pairwise one."""
    from ltshadow.processes import LinearProcess, identity_process
    from ltshadow.shadow import lt_state

    d = int(np.prod(dims))
    a = np.random.default_rng(0).standard_normal((d, 2 * d))
    shadow_file, map_file = tmp_path / "shadow.json", tmp_path / "negated.json"
    shadow_file.write_text(dumps(matrix_to_json(lt_state(a @ a.T / np.trace(a @ a.T), dims).op,
                                                dims=dims)))
    ident = identity_process(dims)
    map_file.write_text(dumps(process_to_json(LinearProcess(dims, dims, -ident.matrix))))
    proc = run_cli(["fiber", "--shadow", str(shadow_file), "--n", "50", "--seed", "1",
                    "--map", str(map_file)])
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("error: no pushed representative is positive: "
                           "all 50 images are excluded\n")


@pytest.mark.parametrize("dims, kernel_dim, n_accepted", [
    pytest.param("4", 0, 1, id="4"),
    pytest.param("2,2,2", 9, 100, id="2,2,2"),
])
def test_fiber_at_any_factor_count(tmp_path, capsys, dims, kernel_dim, n_accepted):
    """One factor has an empty kernel, so the fiber is one point; three
    qubits walk the 9 directions of their kernel."""
    d = int(np.prod([int(x) for x in dims.split(",")]))
    path = tmp_path / "mixed.json"
    path.write_text(dumps(matrix_to_json(np.eye(d) / d)))
    assert cli.main(["fiber", "--shadow", str(path), "--dims", dims, "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["kernel_dim"], out["n_accepted"], out["rejected"]) == (kernel_dim, n_accepted, 0)


def test_fiber_trivial_factor_is_a_single_point(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(dumps(matrix_to_json(np.eye(4) / 4)))
    assert cli.main(["fiber", "--shadow", str(path), "--dims", "1,4", "--n", "5",
                     "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["kernel_dim"], out["n_accepted"], out["rejected"]) == (0, 1, 0)


def test_examples_exit_zero_and_byte_identical(tmp_path):
    one = run_cli(["examples", "--seed", "7"])
    two = run_cli(["examples", "--seed", "7"])
    assert one.returncode == 0, one.stdout[-2000:]
    assert two.returncode == 0
    assert one.stdout == two.stdout
    report = json.loads(one.stdout)
    assert report["all_pass"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "example1_epr_shadow",
        "example2_pairing_functional",
        "shadow_equals_defining_system",
        "upb_witness_chain",
    }


def test_examples_upb_flag():
    proc = run_cli(["examples", "--seed", "7", "--upb"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    rho = np.asarray(report["upb_state"]["rows"])
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert len(report["upb_vectors"]) == 5


def test_examples_upb_vectors_are_the_tiles_rows(capsys):
    assert cli.main(["examples", "--seed", "7", "--upb"]) == 0
    report = json.loads(capsys.readouterr().out)
    xs, ys = tiles_upb()
    assert [v["x"] for v in report["upb_vectors"]] == xs.tolist()
    assert [v["y"] for v in report["upb_vectors"]] == ys.tolist()


@pytest.mark.parametrize("text, message", [
    ("2,x", "cannot parse dims '2,x'; expected e.g. 2,2"),
])
def test_dims_parse_error_reaches_stderr(capsys, text, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--dims", text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --dims: {message}")


def test_dims_below_one_exit_3_through_the_dims_rule(tmp_path, capsys):
    """--dims 0,2 is refused by factor_dims, as "dims": [0, 2] in the file is."""
    assert cli.main(["decompose", "--dims", "0,2", "-i", str(epr_shadow_file(tmp_path))]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: factor dimensions must be one or more integers >= 1, got (0, 2)\n"


@pytest.mark.parametrize("argv, payload", [
    (["shadow"], {"dims": [2.9, 2.0], "rows": np.eye(4).tolist()}),
    (["shadow"], {"dims": [True, 4], "rows": np.eye(4).tolist()}),
    (["map", "--check", "local-positive"],
     {"in_dims": [2.5, 2], "out_dims": [2, 2], "matrix": np.eye(16).tolist()}),
])
def test_non_integer_dims_exit_3(capsys, monkeypatch, argv, payload):
    """Dims are not truncated to ints: 2.9, 2.5 and true are refused."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(argv + ["-i", "-"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: factor dimensions must be")


def test_integral_float_dims_are_accepted(capsys, monkeypatch):
    payload = {"dims": [2, 2.0], "rows": np.eye(4).tolist()}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["shadow", "-i", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [2, 2]


@pytest.mark.parametrize("entry", ["1", " 1e0 ", True])
@pytest.mark.parametrize("argv", [
    ["shadow", "-i", "{matrix}"],
    ["cone", "--cone", "psd-ss", "-i", "{matrix}"],
    ["map", "--check", "local-positive", "-i", "{process}"],
    ["fiber", "--shadow", "{matrix}", "--seed", "1"],
    ["fiber", "--shadow", "{shadow}", "--seed", "1", "--map", "{process}"],
])
def test_entries_that_are_not_numbers_exit_2(tmp_path, capsys, argv, entry):
    """numpy reads "1", " 1e0 " and true as 1.0; the readers refuse them."""
    rows, matrix = np.eye(4).tolist(), np.eye(16).tolist()
    rows[1][1] = matrix[3][3] = entry
    files = {"matrix": tmp_path / "m.json", "process": tmp_path / "p.json",
             "shadow": epr_shadow_file(tmp_path)}
    files["matrix"].write_text(json.dumps({"dims": [2, 2], "rows": rows}))
    files["process"].write_text(json.dumps({"in_dims": [2, 2], "out_dims": [2, 2],
                                            "matrix": matrix}))
    assert cli.main([arg.format(**files) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "entries must be JSON numbers" in err


def _hostile_calls(tmp_path):
    """Every subcommand that reads input, on entries of magnitude 1e308."""
    matrix = tmp_path / "big.json"
    matrix.write_text(dumps(matrix_to_json(np.full((4, 4), 1e308), dims=(2, 2))))
    process = tmp_path / "big-map.json"
    process.write_text(dumps({"in_dims": [2, 2], "out_dims": [2, 2],
                              "matrix": np.full((16, 16), -1e308)}))
    calls = [["decompose", "-i", str(matrix)], ["shadow", "-i", str(matrix)],
             ["fiber", "--shadow", str(matrix), "--n", "10", "--seed", "1"]]
    calls += [["cone", "--cone", cone, "--seed", "1", "-i", str(matrix)]
              for cone in ("min", "psd-ss", "boxtimes", "max", "effect")]
    calls += [["map", "--check", check, "--seed", "1", "-i", str(process)]
              for check in ("local-positive", "positive", "shadow")]
    return calls


def test_hostile_magnitudes_exit_2_without_warnings(tmp_path, capsys, recwarn):
    for argv in _hostile_calls(tmp_path):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        assert "1e+150" in err
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_fiber_n_above_limit_exit_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled despite the --n limit")

    monkeypatch.setattr(cli, "sample_fiber", no_sampling)
    path = epr_shadow_file(tmp_path)
    argv = ["fiber", "--shadow", str(path), "--seed", "1", "--n", str(cli.MAX_FIBER_N + 1)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --n 10001 is above the limit of {cli.MAX_FIBER_N}\n"


@pytest.mark.parametrize("verdict, message", [
    ("undecided", "undecided whether a positive state projects to this shadow"),
    ("non_member", "no positive state projects to this shadow"),
])
def test_fiber_start_says_undecided_only_when_the_oracle_is(tmp_path, capsys, monkeypatch,
                                                            verdict, message):
    """An oracle that cannot decide the start is reported as undecided, not as
    an infeasible shadow; both exit 4 before any walk."""
    monkeypatch.setattr(fiber, "in_boxtimes_cone",
                        lambda *args: ConeMembershipResult(verdict, None, 44, 1e-3))
    path = epr_shadow_file(tmp_path)
    assert cli.main(["fiber", "--shadow", str(path), "--n", "20", "--seed", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message} (oracle verdict: {verdict})\n"


def _fiber_with_map(tmp_path, monkeypatch, map_path):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the --map check")

    monkeypatch.setattr(cli, "sample_fiber", no_sampling)
    path = epr_shadow_file(tmp_path)
    return cli.main(["fiber", "--shadow", str(path), "--seed", "1", "--n", "10",
                     "--map", str(map_path)])


def test_fiber_unreadable_map_exit_2_before_sampling(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    assert _fiber_with_map(tmp_path, monkeypatch, missing) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


def test_fiber_map_dims_mismatch_exit_3_before_sampling(tmp_path, capsys, monkeypatch):
    map_path = tmp_path / "map.json"
    map_path.write_text(dumps(process_to_json(swap_process((2, 3)))))
    assert _fiber_with_map(tmp_path, monkeypatch, map_path) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --map input dims [2, 3] do not match the shadow's dims [2, 2]\n"


def test_two_main_calls_build_one_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    getattr(cli.build_parser, "cache_clear", lambda: None)()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["shadow", "-i", str(epr_shadow_file(tmp_path))]
    assert cli.main(argv) == 0
    first = len(built)
    assert first > 0 and built[0] == "lt-shadow"
    assert cli.main(argv) == 0
    assert len(built) == first
    out, _ = capsys.readouterr()
    assert len(out.splitlines()) == 2


def test_fiber_n_below_one_exit_2_before_reading(tmp_path, capsys):
    argv = ["fiber", "--shadow", str(tmp_path / "missing.json"), "--seed", "1", "--n", "0"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --n must be an integer >= 1, got 0\n"


def test_non_finite_payload_exit_5(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "matrix_to_json", lambda m, dims: {"rows": [[float("inf")]]})
    assert cli.main(["shadow", "-i", str(epr_shadow_file(tmp_path))]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: cannot serialize non-finite float")


def test_linalg_failure_exit_5(capsys, monkeypatch, tmp_path):
    """LinAlgError is a ValueError, yet it exits 5, not 2."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "in_positive_ss_cone", fail)
    assert cli.main(["cone", "--cone", "psd-ss", "-i", str(epr_shadow_file(tmp_path))]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric failure: Eigenvalues did not converge\n"


def test_unwritable_output_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    assert cli.main(["shadow", "-i", str(epr_shadow_file(tmp_path)), "-o", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


# ---------------------------------------------------------------------------
# In-process fuzz: hostile JSON ends in a documented exit code
# ---------------------------------------------------------------------------

_BAD_DIM = st.sampled_from([0, -1, 2.0, 2.5, 2.9, True, False, "2", None, 10**30,
                            float("inf"), [2], 10])
_DIMS = st.one_of(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (4,), (2, 2, 2), (9, 2), (1, 4)]).map(list),
    st.lists(st.one_of(st.integers(1, 4), _BAD_DIM), max_size=4),
    _BAD_DIM,
)
_ENTRY = st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3),
                   st.sampled_from([1e151, -1e300, float("inf"), float("nan"), 10**400,
                                    True, "x", None, [1.0]]))


# Factor dims that fit a matrix of each size, and a process of each size.
_FITTING_DIMS = {1: [1], 2: [2], 4: [2, 2], 6: [2, 3], 8: [2, 2, 2], 9: [3, 3],
                 16: [2, 2], 36: [2, 3], 81: [3, 3]}


@st.composite
def _hostile_rows(draw, n):
    """Ragged, non-square, hostile-entry, shadow-supported or off-support rows."""
    kind = draw(st.sampled_from(["entries", "ragged", "wide", "symmetric", "shadow", "shadow",
                                 "scalar"]))
    if kind == "scalar":
        return draw(st.sampled_from([None, "rows", 3.0, [], [[]], {"a": 1}]))
    if kind == "entries":
        return draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "ragged":
        return [[0.0] * (k % 3 + 1) for k in range(n)]
    if kind == "wide":
        return np.zeros((n, n + 1)).tolist()
    a = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, n))
    a = a + a.T  # symmetric, generically off the shadow subspace
    if kind == "shadow" and n in (4, 6, 9):
        a = local_shadow_matrix(a @ a.T, _FITTING_DIMS[n])
    return a.tolist()


@st.composite
def _hostile_call(draw):
    """(argv, stdin text) for shadow, decompose, cone or map on hostile JSON."""
    command = draw(st.sampled_from(["shadow", "decompose", "cone", "map"]))
    sizes = [1, 16, 36, 81] if command == "map" else [1, 2, 4, 6, 8, 9]
    n = draw(st.sampled_from(sizes))
    dims = st.one_of(st.just(_FITTING_DIMS[n]), _DIMS)
    if command == "map":
        payload = {"in_dims": draw(dims), "out_dims": draw(dims),
                   "matrix": draw(_hostile_rows(n))}
        argv = ["map", "--check", draw(st.sampled_from(["local-positive", "positive", "shadow"])),
                "--seed", "1"]
    else:
        payload = {"rows": draw(_hostile_rows(n)), "dims": draw(dims)}
        argv = [command]
        if command == "cone":
            argv += ["--cone", draw(st.sampled_from(["min", "psd-ss", "boxtimes", "max",
                                                     "effect"])), "--seed", "1"]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--dims", draw(st.sampled_from(["2,2", "3,3", "2,3", "4", "2,x", "0,2"]))]
    for key in draw(st.sets(st.sampled_from(list(payload)), max_size=1)):
        del payload[key]
    return argv + ["-i", "-"], json.dumps(payload)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(call=_hostile_call())
def test_hostile_json_ends_in_a_documented_exit_code(call):
    """Every run returns 0, 2, 3, 4 or 5 (argparse's exit counts as 2); on
    2, 3 and 5 stdout is empty and stderr holds the error line."""
    argv, text = call
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2 and ": error: " in err.getvalue().splitlines()[-1]
                code = None
    finally:
        sys.stdin = stdin
    if code is None:
        assert out.getvalue() == ""
        return
    assert code in (0, 2, 3, 4, 5), (argv, text, err.getvalue())
    if code in (2, 3, 5):
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error:", "numeric failure:")), err.getvalue()
