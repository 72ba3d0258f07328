"""End-to-end CLI behaviour through subprocesses and files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsysid
from qsysid import serialize, transfer_rational

from conftest import chain_system, random_single_node_siso, random_unitary
from test_network import chain_network, tree_network
from test_realization import gauged_measure


# The directory holding the qsysid package this process imported. It goes
# first on the child's PYTHONPATH as an absolute path, so the CLI runs the same
# code as the tests from any cwd, whether the package is installed or on a
# relative PYTHONPATH such as "src".
PACKAGE_ROOT = Path(qsysid.__file__).resolve().parents[1]


def run_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "qsysid", *args, cwd=cwd)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    return write_json(tmp_path / "chain.json", serialize.system_to_obj(chain_system()))


class TestAnalyze:
    def test_chain_report(self, chain_file):
        proc = run_cli("analyze", chain_file)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["minimal"] is True
        assert report["hurwitz"] is True
        assert report["ctrb_rank"] == 3

    def test_degenerate_chain_still_exit_zero(self, tmp_path):
        path = write_json(
            tmp_path / "chain0.json",
            serialize.system_to_obj(chain_system(0.5, 0.0, 0.8)),
        )
        proc = run_cli("analyze", path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["minimal"] is False

    def test_truncated_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3, "m": 1, "omega": [[', encoding="utf-8")
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert "error" in err

    def test_non_finite_system_exit_two(self, tmp_path):
        obj = serialize.system_to_obj(chain_system())
        obj["omega"][0][0]["re"] = float("nan")
        proc = run_cli("analyze", write_json(tmp_path / "nan.json", obj))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "ValueError"

    def test_missing_file_exit_two(self):
        proc = run_cli("analyze", "/nonexistent/system.json")
        assert proc.returncode == 2


class TestEquiv:
    def test_sign_flip_equivalent(self, tmp_path, chain_file):
        other = write_json(
            tmp_path / "flipped.json",
            serialize.system_to_obj(chain_system(0.5, -0.6, 0.8)),
        )
        proc = run_cli("equiv", chain_file, other)
        assert proc.returncode == 0
        verdict = json.loads(proc.stdout)
        assert verdict["equivalent"] is True
        gauge = serialize.array_from_obj(verdict["gauge"], 2, "gauge")
        np.testing.assert_allclose(gauge, np.diag([1.0, -1.0, -1.0]), atol=1e-8)

    def test_not_minimal_exit_one(self, tmp_path, chain_file):
        degenerate = write_json(
            tmp_path / "deg.json",
            serialize.system_to_obj(chain_system(0.5, 0.0, 0.8)),
        )
        proc = run_cli("equiv", chain_file, degenerate)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "NotMinimal"

    def test_nan_tolerance_exit_two(self, chain_file):
        proc = run_cli("equiv", chain_file, chain_file, "--tol", "nan")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "ValueError"
        assert "tol must be finite and > 0" in err["detail"]


class TestReconstruct:
    def test_chain_roundtrip(self, tmp_path):
        tf = transfer_rational(chain_system())
        path = write_json(tmp_path / "tf.json", serialize.tf_to_obj(tf))
        proc = run_cli("reconstruct", path)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["canonical"]["theta"] == pytest.approx(1.0, abs=1e-9)
        rebuilt = serialize.system_from_obj(out["system"])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rebuilt.omega), [-1.0, 0.0, 1.0], atol=1e-8
        )

    def test_gauge_flag_lands_in_requested_basis(self, tmp_path):
        from qsysid import make_rational_tf

        a0, a1 = 2.0, 0.3
        tf = make_rational_tf([a0, a1 - 2 * a1, 1.0], [a0, a1, 1.0])
        tf_path = write_json(tmp_path / "tf2.json", serialize.tf_to_obj(tf))
        gauge = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        gauge_path = write_json(tmp_path / "u.json", serialize.array_to_obj(gauge))
        proc = run_cli("reconstruct", tf_path, "--gauge", gauge_path)
        assert proc.returncode == 0
        system = serialize.system_from_obj(json.loads(proc.stdout)["system"])
        np.testing.assert_allclose(
            system.omega, [[0.0, np.sqrt(a0)], [np.sqrt(a0), 0.0]], atol=1e-10
        )
        np.testing.assert_allclose(system.c, [[np.sqrt(2 * a1), 0.0]], atol=1e-10)

    def test_gauge_flag_matches_formula(self, tmp_path, rng):
        from qsysid import companion_realization, gauge_transform, make_rational_tf

        # the README's two-mode function and U, then random single-port draws
        cases = [
            (
                make_rational_tf([2.0, -0.3, 1.0], [2.0, 0.3, 1.0]),
                np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0),
            )
        ]
        for n in (1, 4, 8):
            sys = gauge_transform(random_single_node_siso(rng, n), random_unitary(rng, n))
            cases.append((transfer_rational(sys), random_unitary(rng, n)))
        for k, (tf, u) in enumerate(cases):
            tf_path = write_json(tmp_path / f"tf{k}.json", serialize.tf_to_obj(tf))
            u_path = write_json(tmp_path / f"u{k}.json", serialize.array_to_obj(u))
            proc = run_cli("reconstruct", tf_path, "--gauge", u_path)
            assert proc.returncode == 0
            system = serialize.system_from_obj(json.loads(proc.stdout)["system"])
            # the CLI reads coefficients: the reference reconstructs the same function
            read = serialize.tf_from_obj(serialize.tf_to_obj(tf))
            omega, c = gauged_measure(companion_realization(read), u)
            np.testing.assert_allclose(system.omega, omega, rtol=0, atol=1e-12)
            np.testing.assert_allclose(system.c, c, rtol=0, atol=1e-12)

    def test_non_finite_gauge_exit_two(self, tmp_path):
        tf_path = write_json(
            tmp_path / "tf.json", serialize.tf_to_obj(transfer_rational(chain_system()))
        )
        u = serialize.array_to_obj(np.eye(3))
        u[0][1]["re"] = float("nan")
        proc = run_cli("reconstruct", tf_path, "--gauge", write_json(tmp_path / "u.json", u))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "ValueError"
        assert err["detail"] == "gauge must be finite"

    def test_gauge_of_wrong_rank_exit_one(self, tmp_path):
        tf_path = write_json(
            tmp_path / "tf.json", serialize.tf_to_obj(transfer_rational(chain_system()))
        )
        u = serialize.array_to_obj(np.ones(3))
        proc = run_cli("reconstruct", tf_path, "--gauge", write_json(tmp_path / "u.json", u))
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": "DimensionMismatch",
            "detail": "gauge must be a rank-2 array, got shape (3,)",
        }

    def test_non_passive_exit_one(self, tmp_path):
        a0, a1, c1 = 2.0, 0.3, -0.45
        from qsysid import make_rational_tf

        tf = make_rational_tf([a0, a1 + c1, 1.0], [a0, a1, 1.0])
        path = write_json(tmp_path / "bad.json", serialize.tf_to_obj(tf))
        proc = run_cli("reconstruct", path)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "NotPassiveTF"

    def test_num_beyond_declared_ports_exit_one(self, tmp_path):
        # a 2 x 2 num under m = 1 is refused, not read from its first entry
        obj = serialize.tf_to_obj(transfer_rational(chain_system()))
        entry = obj["num"][0][0]
        obj["num"] = [[entry, entry], [entry, entry]]
        proc = run_cli("reconstruct", write_json(tmp_path / "wide.json", obj))
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "DimensionMismatch"

    def test_multiport_file_exit_one(self, tmp_path):
        # a file holds one port's coefficients: one declaring m = 2 is refused as it was
        obj = serialize.tf_to_obj(transfer_rational(chain_system()))
        entry = obj["num"][0][0]
        obj = dict(obj, m=2, num=[[entry, entry], [entry, entry]])
        proc = run_cli("reconstruct", write_json(tmp_path / "two.json", obj))
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "DimensionMismatch"


class TestInfect:
    def test_chain_verdict(self, tmp_path):
        path = write_json(
            tmp_path / "chain_net.json", serialize.network_to_obj(chain_network())
        )
        proc = run_cli("infect", path)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["verdict"] == "IdentifiableByInfection"
        assert out["trace"]["infecting"] is True
        assert out["trace"]["steps"] == [[1, 0], [2, 1]]

    def test_tree_not_applicable(self, tmp_path):
        path = write_json(
            tmp_path / "tree_net.json", serialize.network_to_obj(tree_network())
        )
        proc = run_cli("infect", path)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["verdict"] == "NotApplicable"
        assert out["reason"] == "NotInfecting"

    def test_non_finite_edge_weight_exit_two(self, tmp_path):
        obj = serialize.network_to_obj(chain_network())
        obj["edges"][0][2] = float("nan")
        proc = run_cli("infect", write_json(tmp_path / "nan_net.json", obj))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "ValueError"
        assert err["detail"] == "edge weights must be finite"

    def test_detunings_of_wrong_length_exit_one(self, tmp_path):
        obj = serialize.network_to_obj(chain_network())
        obj["detunings"] = [0.1, 0.2]
        proc = run_cli("infect", write_json(tmp_path / "short_net.json", obj))
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidNetwork"
        assert err["detail"] == "detunings must have 3 entries, got 2"


class TestProbeFitCompose:
    def test_pipeline_through_files(self, tmp_path, chain_file):
        probe = run_cli(
            "probe",
            chain_file,
            "--freqs",
            "0.01:100:60:log",
            "--seed",
            "5",
            "--csv",
            str(tmp_path / "resp.csv"),
            cwd=str(tmp_path),
        )
        assert probe.returncode == 0
        dataset_path = tmp_path / "data.json"
        dataset_path.write_text(probe.stdout, encoding="utf-8")
        system_path = tmp_path / "rebuilt.json"
        fit = run_cli(
            "fit", str(dataset_path), "--degree", "3",
            "--system-out", str(system_path),
        )
        assert fit.returncode == 0
        out = json.loads(fit.stdout)
        assert out["canonical"]["theta"] == pytest.approx(1.0, abs=1e-6)
        assert out["fit"]["converged"] is True
        analyze = run_cli("analyze", str(system_path))
        assert analyze.returncode == 0
        assert json.loads(analyze.stdout)["minimal"] is True

    def test_probe_deterministic(self, tmp_path, chain_file):
        args = ["probe", chain_file, "--freqs", "0.1:10:20:log",
                "--noise", "1e-3", "--seed", "11",
                "--csv", str(tmp_path / "r.csv")]
        out1 = run_cli(*args, cwd=str(tmp_path))
        out2 = run_cli(*args, cwd=str(tmp_path))
        for proc in (out1, out2):
            assert proc.returncode == 0, proc.stderr
            data = serialize.dataset_from_obj(json.loads(proc.stdout))
            assert data.freqs.size == 20
        assert out1.stdout == out2.stdout

    def test_csv_format(self, tmp_path, chain_file):
        csv_path = tmp_path / "resp.csv"
        proc = run_cli(
            "probe", chain_file, "--freqs", "0.1:10:5:log",
            "--csv", str(csv_path), cwd=str(tmp_path),
        )
        assert proc.returncode == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "omega,re_00,im_00,abs_00,arg_00"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert len(first) == 5
        w = float(first[0])
        re, im = float(first[1]), float(first[2])
        assert float(first[3]) == pytest.approx(np.hypot(re, im), rel=1e-12)
        assert w == pytest.approx(0.1)

    def test_non_finite_frequency_exit_two(self, tmp_path):
        obj = serialize.dataset_to_obj(
            qsysid.sample_response(chain_system(), np.geomspace(0.1, 10.0, 20))
        )
        obj["freqs"][5] = float("nan")
        proc = run_cli("fit", write_json(tmp_path / "nan.json", obj), "--degree", "3")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "ValueError"
        assert err["detail"].startswith("freqs must be finite")

    @pytest.mark.parametrize("key", ["noise_sigma", "freqs"])
    def test_integer_beyond_float_range_exit_two(self, tmp_path, key):
        # JSON reads 10**400 as an int, which no float holds
        obj = serialize.dataset_to_obj(
            qsysid.sample_response(chain_system(), np.geomspace(0.1, 10.0, 20))
        )
        if key == "freqs":
            obj["freqs"][-1] = 10**400
        else:
            obj["noise_sigma"] = 10**400
        proc = run_cli("fit", write_json(tmp_path / "huge.json", obj), "--degree", "3")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "ValueError"

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_bad_noise_sigma_exit_two(self, tmp_path, sigma):
        obj = serialize.dataset_to_obj(
            qsysid.sample_response(chain_system(), np.geomspace(0.1, 10.0, 20))
        )
        obj["noise_sigma"] = sigma
        proc = run_cli("fit", write_json(tmp_path / "sigma.json", obj), "--degree", "3")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "ValueError"
        assert err["detail"].startswith("noise_sigma must be")

    def test_non_square_response_exit_one(self, tmp_path):
        # a 1 x 2 response per frequency is refused, not fit from its first column
        obj = serialize.dataset_to_obj(
            qsysid.sample_response(chain_system(), np.geomspace(0.1, 10.0, 20))
        )
        for response in obj["responses"]:
            response[0].append(response[0][0])
        proc = run_cli("fit", write_json(tmp_path / "wide.json", obj), "--degree", "3")
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "DimensionMismatch"

    def test_clustered_grid_exit_one(self, tmp_path):
        obj = serialize.dataset_to_obj(
            qsysid.sample_response(chain_system(), np.linspace(1.0, 1.0 + 1e-6, 20))
        )
        proc = run_cli("fit", write_json(tmp_path / "near.json", obj), "--degree", "3")
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "InsufficientData"
        assert "determine 3 of the 6" in err["detail"]

    def test_bad_freq_spec_exit_two(self, chain_file):
        proc = run_cli("probe", chain_file, "--freqs", "10:1:5:log")
        assert proc.returncode == 2

    @pytest.mark.parametrize("spec", ["1:inf:3:log", "1:1e400:3:log", "-1e308:1e308:3:lin"])
    def test_non_finite_freq_range_exit_two_without_warning(self, chain_file, spec):
        # a leading "-" needs the --freqs=SPEC form, or argparse reads it as an option
        proc = run_cli("probe", chain_file, f"--freqs={spec}")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr) == {
            "error": "ValueError", "detail": f"bad --freqs range in {spec!r}"}


class TestLazyScipy:
    """qsysid never imports SciPy."""

    def test_package_import_leaves_scipy_out(self):
        # a None entry in sys.modules blocks an import; only a module object is a loaded SciPy
        proc = run_python("-c", "import sys, qsysid; print(sys.modules.get('scipy') is not None)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_analyze_does_not_import_scipy(self, chain_file):
        proc = run_python("-X", "importtime", "-m", "qsysid", "analyze", chain_file)
        assert proc.returncode == 0
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "qsysid.cli" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]

    def test_pipeline_and_reconstruct_do_not_import_scipy(self, tmp_path):
        tf = transfer_rational(chain_system())
        path = write_json(tmp_path / "tf.json", serialize.tf_to_obj(tf))
        script = (
            "import sys, numpy as np, qsysid\n"
            "from qsysid.cli import main\n"
            "omega = [[0, 0.6, 0], [0.6, 0, 0.8], [0, 0.8, 0]]\n"
            "chain = qsysid.new_system(omega, [[1.0, 0, 0]])\n"
            "data = qsysid.sample_response(chain, np.geomspace(0.01, 100, 200))\n"
            "qsysid.identify_pipeline(data, 3)\n"
            f"assert main(['reconstruct', {path!r}]) == 0\n"
            "print(sys.modules.get('scipy') is not None)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"

    def test_lyapunov_and_reconstruct_run_with_scipy_blocked(self, tmp_path):
        path = write_json(tmp_path / "tf.json", serialize.tf_to_obj(transfer_rational(chain_system())))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np, qsysid\n"
            "from qsysid.cli import main\n"
            "real = qsysid.companion_realization(qsysid.make_rational_tf([2.0, -0.3, 1.0], [2.0, 0.3, 1.0]))\n"
            "p = qsysid.solve_lyapunov(real.a0, real.c0.conj().T @ real.c0)\n"
            "assert np.abs(p - 0.6 * np.diag([2.0, 1.0])).max() <= 1e-10\n"
            f"assert main(['reconstruct', {path!r}]) == 0\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
