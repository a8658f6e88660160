import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drlqr import drsynth, experiment
from drlqr.ambiguity import DEFAULT_EPS
from drlqr.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from drlqr.experiment import sample_gaussian
from drlqr.matcore import SymMatrix
from drlqr.riccati import value_iteration
from drlqr.sdpcore import SdpSolution
from drlqr.ambiguity import SampleSet
from drlqr.sysmodel import DisturbanceMoments, MultNoiseSystem

from conftest import write_fixture

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def system_json(sys6, tmp_path):
    """System file with embedded cost weights, as the synth command expects."""
    p = tmp_path / "sys.json"
    write_fixture(p, sys6)
    d = json.loads(p.read_text())
    d["Q"] = [[10.0, 0.0], [0.0, 1.0]]
    d["R"] = [[0.01]]
    p.write_text(json.dumps(d))
    return p


@pytest.fixture
def samples_csv(moments6, tmp_path):
    s = sample_gaussian(moments6, 1000, 0)
    p = tmp_path / "w.csv"
    np.savetxt(p, s.samples, delimiter=",")
    return p


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


class TestBounds:
    def test_anchor_values(self, capsys):
        rc, out = _run(capsys, ["bounds", "--dim", "2", "--m", "1000", "--beta", "0.05"])
        assert rc == EXIT_OK
        assert np.isclose(out["t_sigma"], 0.6669643, atol=1e-5)
        assert np.isclose(out["t_mu"], 0.0148102, atol=1e-6)
        assert np.isclose(out["rho_mu"], 0.0465398, atol=1e-6)
        assert np.isclose(out["rho_sigma"], 3.1424256, atol=1e-6)
        assert out["M_min"] == 488

    def test_below_threshold_radii_null(self, capsys):
        rc, out = _run(capsys, ["bounds", "--dim", "2", "--m", "100", "--beta", "0.05"])
        assert rc == EXIT_OK
        assert out["rho_mu"] is None and out["rho_sigma"] is None
        assert out["M_min"] == 488

    def test_bad_beta(self, capsys):
        rc = main(["bounds", "--dim", "2", "--m", "1000", "--beta", "1.5"])
        capsys.readouterr()
        assert rc == EXIT_INVALID

    @pytest.mark.parametrize("sigma2", ["inf", "nan"])
    def test_non_finite_sigma2(self, capsys, sigma2):
        rc = main(["bounds", "--dim", "2", "--m", "1000", "--beta", "0.05", "--sigma2", sigma2])
        assert rc == EXIT_INVALID
        assert "sigma2" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, m, message", [("2", "0", "M must be at least 1"),
                                                 ("0", "1000", "n_w must be at least 1")])
    def test_empty_counts(self, capsys, dim, m, message):
        rc = main(["bounds", "--dim", dim, "--m", m, "--beta", "0.05"])
        assert rc == EXIT_INVALID
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bounds", "--dim", "2", "--m", "1000"],
                                  ["synth", "--system", "s.json", "--samples", "w.csv",
                                   "--method", "nominal"]], ids=["bounds", "synth"])
def test_ambiguity_flags(capsys, argv):
    """bounds and synth each require --beta and default --eps and --sigma2 alike."""
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == EXIT_INVALID and "--beta" in capsys.readouterr().err
    args = parser.parse_args(argv + ["--beta", "0.05"])
    assert (args.beta, args.eps, args.sigma2) == (0.05, DEFAULT_EPS, 1.0)
    args = parser.parse_args(argv + ["--beta", "0.1", "--eps", "0.2", "--sigma2", "3"])
    assert (args.beta, args.eps, args.sigma2) == (0.1, 0.2, 3.0)


class TestSynth:
    def test_nominal(self, capsys, system_json, samples_csv):
        rc, out = _run(capsys, ["synth", "--system", str(system_json),
                                "--samples", str(samples_csv),
                                "--beta", "0.05", "--method", "nominal"])
        assert rc == EXIT_OK
        assert out["method"] == "nominal_vi"
        K = np.array(out["K"])
        assert K.shape == (1, 2)
        assert np.all(K < 0.0)

    def test_covariance_includes_radii(self, capsys, system_json, samples_csv):
        rc, out = _run(capsys, ["synth", "--system", str(system_json),
                                "--samples", str(samples_csv),
                                "--beta", "0.05", "--method", "covariance"])
        assert rc == EXIT_OK
        assert out["method"] == "dr_covariance"
        assert np.isclose(out["rho_sigma"], 3.1424256, atol=1e-4)

    def test_full(self, capsys, system_json, samples_csv):
        rc, out = _run(capsys, ["synth", "--system", str(system_json),
                                "--samples", str(samples_csv),
                                "--beta", "0.05", "--method", "full",
                                "--reg", "1e-8"])
        assert rc == EXIT_OK
        assert out["method"] == "dr_full"
        assert out["cost_kind"] == "upper_bound"
        assert out["cost_bound"] > 0.0

    def test_full_without_scipy_linalg(self, capsys, system_json, samples_csv):
        """The CLI's synth --method full on the paper system, run by a new
        interpreter, never imports the scipy.linalg package, and prints what it
        prints in process."""
        argv = ["synth", "--system", str(system_json), "--samples", str(samples_csv),
                "--beta", "0.05", "--method", "full", "--reg", "1e-8"]
        code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); from drlqr.cli import main; "
                "rc = main(sys.argv[1:]); print('scipy.linalg' in sys.modules, file=sys.stderr); "
                "sys.exit(rc)")
        run = subprocess.run([sys.executable, "-c", code, str(SRC), *argv], capture_output=True,
                             text=True)
        assert (run.returncode, run.stderr) == (EXIT_OK, "False\n")
        assert main(argv) == EXIT_OK
        assert run.stdout == capsys.readouterr().out

    def test_rhc_requires_x0(self, capsys, system_json, samples_csv):
        rc = main(["synth", "--system", str(system_json),
                   "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "rhc"])
        capsys.readouterr()
        assert rc == EXIT_INVALID

    def test_rhc(self, capsys, system_json, samples_csv):
        rc, out = _run(capsys, ["synth", "--system", str(system_json),
                                "--samples", str(samples_csv),
                                "--beta", "0.05", "--method", "rhc",
                                "--x0", "2,2", "--reg", "1e-8"])
        assert rc == EXIT_OK
        assert out["method"] == "dr_rhc"
        assert 0.0 < out["cost_bound"] < 1e5

    def test_q_flag_overrides(self, capsys, sys6, samples_csv, tmp_path):
        p = tmp_path / "bare.json"
        write_fixture(p, sys6)
        rc, out = _run(capsys, ["synth", "--system", str(p),
                                "--samples", str(samples_csv),
                                "--beta", "0.05", "--method", "nominal",
                                "--Q", "[[10,0],[0,1]]", "--R", "[[0.01]]"])
        assert rc == EXIT_OK
        assert out["method"] == "nominal_vi"

    @pytest.mark.parametrize("where", ["system_file", "flag"])
    def test_q_object_exit_code(self, capsys, system_json, samples_csv, where):
        """A JSON object where Q belongs escaped from main as a TypeError."""
        extra = ["--Q", '{"a":1}']
        if where == "system_file":
            d = json.loads(system_json.read_text())
            d["Q"], extra = {"a": 1}, []
            system_json.write_text(json.dumps(d))
        rc = main(["synth", "--system", str(system_json), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "nominal"] + extra)
        assert rc == EXIT_INVALID
        assert "Q is not an array of numbers" in capsys.readouterr().err

    def test_missing_cost_weights(self, capsys, sys6, samples_csv, tmp_path):
        p = tmp_path / "bare.json"
        write_fixture(p, sys6)
        rc = main(["synth", "--system", str(p), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "nominal"])
        capsys.readouterr()
        assert rc == EXIT_INVALID

    def test_infeasible_exit_code(self, capsys, scalar_sys, tmp_path):
        p = tmp_path / "scalar.json"
        write_fixture(p, scalar_sys)
        d = json.loads(p.read_text())
        d["Q"], d["R"] = [[1.0]], [[1.0e4]]
        p.write_text(json.dumps(d))
        # true variance 1.4: even the empirical moments are non-stabilizable
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(1.4 * np.eye(1)))
        s = sample_gaussian(m, 1000, 3)
        w = tmp_path / "w.csv"
        np.savetxt(w, s.samples, delimiter=",")
        rc = main(["synth", "--system", str(p), "--samples", str(w),
                   "--beta", "0.05", "--method", "nominal"])
        capsys.readouterr()
        assert rc == EXIT_INFEASIBLE

    def test_non_finite_sample_exit_code(self, capsys, system_json, samples_csv):
        rows = samples_csv.read_text().splitlines()
        rows[3] = "nan," + rows[3].split(",")[1]
        samples_csv.write_text("\n".join(rows) + "\n")
        rc = main(["synth", "--system", str(system_json), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "nominal"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "non-finite entries in samples" in err

    def test_numerical_failure_exit_code(self, capsys, monkeypatch, system_json, samples_csv):
        def failing(prob, start=None):
            return SdpSolution(y=np.zeros(prob.num_vars), status="numerical_failure",
                               objective_value=float("nan"), min_block_eigenvalue=float("nan"),
                               iterations=3, reason="injected breakdown")

        monkeypatch.setattr(drsynth, "solve", failing)
        rc = main(["synth", "--system", str(system_json), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "full", "--reg", "1e-8"])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERICAL
        assert err.startswith("numerical failure:")
        assert "injected breakdown" in err

    def test_non_finite_system_rejected(self, capsys, system_json, samples_csv):
        d = json.loads(system_json.read_text())
        d["A0"][0][1] = float("nan")
        system_json.write_text(json.dumps(d))  # written as the JSON token NaN
        assert "NaN" in system_json.read_text()
        rc = main(["synth", "--system", str(system_json), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "nominal"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "non-finite" in err


    @pytest.mark.parametrize("reg", ["-1", "nan"])
    def test_negative_or_nan_reg_exit_code(self, capsys, system_json, samples_csv, reg):
        rc = main(["synth", "--system", str(system_json), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "full", f"--reg={reg}"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "lambda_reg" in err

    # the robust terms C^T (Sigma_hat (x) X) C of the synthesis LMI are monotone
    # in Sigma_hat, so a gain certified on the set regularized by 1e-8 is
    # feasible on the smaller unregularized one too; the pencil carries the
    # whitened channels sqrt(rho_sigma) Sigma_hat^{1/2} (x) I, with no inverse
    @pytest.mark.parametrize("reg", ["1e-8", "0"])
    def test_near_singular_samples_certified(self, capsys, system_json, tmp_path, reg):
        """Samples whose second channel is scaled by 1e-5: the set at --reg 0
        lies inside the set at --reg 1e-8, so both must certify a gain."""
        w = np.random.default_rng(0).standard_normal((1000, 2))
        w[:, 1] *= 1e-5
        sp = write_fixture(tmp_path / "w.csv", SampleSet(w))
        rc, out = _run(capsys, ["synth", "--system", str(system_json), "--samples", str(sp),
                                "--beta", "0.05", "--method", "full", "--reg", reg])
        assert rc == EXIT_OK
        assert np.allclose(out["K"], [[-28.25, -11.75]], atol=0.01)

    def test_singular_samples_name_regularization(self, capsys, system_json, tmp_path):
        """A constant channel gives a singular Sigma_hat: at --reg 0 the error
        names Sigma_hat and regularization, the remedy the --reg flag applies."""
        w = np.random.default_rng(0).standard_normal((1000, 2))
        w[:, 1] = 1.0
        sp = write_fixture(tmp_path / "w.csv", SampleSet(w))
        rc = main(["synth", "--system", str(system_json), "--samples", str(sp),
                   "--beta", "0.05", "--method", "full", "--reg", "0"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "sigma_hat must be strictly positive definite" in err.lower()
        assert "regularization" in err

    @pytest.mark.parametrize("method", ["nominal", "covariance", "full", "rhc"])
    def test_wrong_size_Q_exit_code(self, capsys, system_json, samples_csv, method):
        rc = main(["synth", "--system", str(system_json), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", method, "--x0", "2,2", "--Q", "[[1]]"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "Q is 1x1, expected 2x2" in err


class TestMss:
    def _gain_file(self, sys6, cost6, moments6, tmp_path, K=None):
        if K is None:
            K = value_iteration(sys6, moments6, cost6).K
        p = tmp_path / "gain.json"
        p.write_text(json.dumps({"K": np.atleast_2d(K).tolist()}))
        return p

    def test_stable_gain(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        write_fixture(sp, sys6)
        gp = self._gain_file(sys6, cost6, moments6, tmp_path)
        rc, out = _run(capsys, ["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_OK
        assert out["stable"] is True
        assert out["spectral_radius"] < 1.0

    def test_zero_gain_marginal(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        write_fixture(sp, sys6)
        gp = self._gain_file(sys6, cost6, moments6, tmp_path, K=np.zeros((1, 2)))
        rc, out = _run(capsys, ["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_OK
        assert out["stable"] is False
        assert np.isclose(out["spectral_radius"], 1.0, atol=1e-6)

    def test_overflowing_gain_is_unstable(self, capsys, tmp_path):
        """A finite gain whose second-moment operator overflows is a verdict, not
        invalid input: unstable, radius inf (JSON's Infinity), exit 0."""
        sp = write_fixture(tmp_path / "sys.json", MultNoiseSystem(
            A0=[[1.0]], A=([[1.0]],), B0=[[1.0]], B=([[0.0]],)))
        gp = tmp_path / "gain.json"
        gp.write_text(json.dumps({"K": [[1e160]]}))
        rc, out = _run(capsys, ["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_OK
        assert out == {"stable": False, "spectral_radius": float("inf")}

    def test_custom_moments(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        write_fixture(sp, sys6)
        gp = self._gain_file(sys6, cost6, moments6, tmp_path)
        cp = tmp_path / "cov.json"
        cp.write_text(json.dumps([[0.5, 0.0], [0.0, 0.5]]))
        rc, out = _run(capsys, ["mss", "--system", str(sp), "--gain", str(gp),
                                "--mu", "0.1,0.0", "--cov", str(cp)])
        assert rc == EXIT_OK
        assert out["stable"] is True

    @pytest.mark.parametrize("content, message", [
        ("{}", "malformed controller file"),
        ("[[1.0, 2.0]]", "malformed controller file"),
        ('{"K": [[NaN, 1.0]]}', "non-finite"),
        ('{"K": [[null, null]]}', "non-finite"),
        ('{"K": {"a": 1}}', "gain K is not an array of numbers"),
    ], ids=["no_K", "top_level_list", "nan", "null", "K_object"])
    def test_malformed_gain(self, capsys, sys6, tmp_path, content, message):
        sp = tmp_path / "sys.json"
        write_fixture(sp, sys6)
        gp = tmp_path / "gain.json"
        gp.write_text(content)
        rc = main(["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_covariance_object_exit_code(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        write_fixture(sp, sys6)
        gp = self._gain_file(sys6, cost6, moments6, tmp_path)
        cp = tmp_path / "cov.json"
        cp.write_text(json.dumps({"x": 1}))
        rc = main(["mss", "--system", str(sp), "--gain", str(gp), "--cov", str(cp)])
        assert rc == EXIT_INVALID
        assert "sigma is not an array of numbers" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        rc = main(["mss", "--system", str(tmp_path / "nope.json"),
                   "--gain", str(tmp_path / "nope2.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert f"cannot read {tmp_path / 'nope.json'}" in err

    @pytest.mark.parametrize("content", [None, "K: [[1.0, 2.0]]\n"], ids=["missing", "not_json"])
    def test_unreadable_gain_file(self, capsys, sys6, tmp_path, content):
        """The gain file goes through the reader of every other input file."""
        sp = tmp_path / "sys.json"
        write_fixture(sp, sys6)
        gp = tmp_path / "gain.json"
        if content is not None:
            gp.write_text(content)
        rc = main(["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_INVALID
        assert f"cannot read {gp}" in capsys.readouterr().err

    def test_non_json_system(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        sp.write_text("A0: [[1, 0.02], [0, 0.992]]\n")
        gp = self._gain_file(sys6, cost6, moments6, tmp_path)
        rc = main(["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_INVALID
        assert f"cannot read {sp}" in capsys.readouterr().err


class TestExperiment:
    def test_sweep(self, capsys, sys6, tmp_path):
        sp = tmp_path / "sys.json"
        write_fixture(sp, sys6)
        cfg = {
            "system": "sys.json",
            "mu": [0.0, 0.0],
            "sigma": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[10.0, 0.0], [0.0, 1.0]],
            "R": [[0.01]],
            "beta": 0.05,
            "sample_sizes": [1000],
            "realizations": 2,
            "x0": [2.0, 2.0],
        }
        cp = tmp_path / "exp.json"
        cp.write_text(json.dumps(cfg))
        out_csv = tmp_path / "out.csv"
        rc, out = _run(capsys, ["experiment", "--config", str(cp),
                                "--out", str(out_csv)])
        assert rc == EXIT_OK
        assert out["records"] == 4
        assert out["non_stabilizing"] == 0
        header = out_csv.read_text().splitlines()[0]
        assert header == "M,realization,method,stabilizing,J,J_rel,wall_ms"

    def test_seed_override_matches_config_seed(self, capsys, sys6, tmp_path):
        """--seed gives the same CSV, minus wall_ms, as a config carrying that seed."""
        write_fixture(tmp_path / "sys.json", sys6)
        cfg = {
            "system": "sys.json",
            "mu": [0.0, 0.0],
            "sigma": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[10.0, 0.0], [0.0, 1.0]],
            "R": [[0.01]],
            "beta": 0.05,
            "sample_sizes": [1000],
            "realizations": 2,
            "x0": [2.0, 2.0],
            "methods": ["covariance"],
        }

        def rows(name, config, extra):
            cp = tmp_path / f"{name}.json"
            cp.write_text(json.dumps(config))
            out_csv = tmp_path / f"{name}.csv"
            rc, _ = _run(capsys, ["experiment", "--config", str(cp), "--out", str(out_csv)] + extra)
            assert rc == EXIT_OK
            return [line.rsplit(",", 1)[0] for line in out_csv.read_text().splitlines()]

        overridden = rows("override", cfg, ["--seed", "7"])
        assert overridden == rows("carried", dict(cfg, seed=7), [])
        assert overridden != rows("default", cfg, [])

    @pytest.mark.parametrize("field, value, message", [
        ("realizations", 1.5, "realizations"), ("seed", 1.5, "seed"),
        ("sample_sizes", [1000.7], "sample size"), ("x0", [float("nan"), 2.0], "x0"),
        ("sample_sizes", [], "sample_sizes"), ("methods", ["full", "dr_full"], "twice"),
        ("methods", "full", "methods"), ("system", "missing.json", "cannot read"),
        ("sample_sizes", [1000, 1000], "named twice"),
    ])
    def test_invalid_config_exit_code(self, capsys, sys6, tmp_path, field, value, message):
        write_fixture(tmp_path / "sys.json", sys6)
        cfg = {"system": "sys.json", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
               "Q": [[10.0, 0.0], [0.0, 1.0]], "R": [[0.01]], "beta": 0.05,
               "sample_sizes": [1000], "realizations": 2, "x0": [2.0, 2.0], field: value}
        cp = tmp_path / "exp.json"
        cp.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(cp), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_jobs_below_one_exit_code(self, capsys, sys6, tmp_path):
        write_fixture(tmp_path / "sys.json", sys6)
        cfg = {"system": "sys.json", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
               "Q": [[10.0, 0.0], [0.0, 1.0]], "R": [[0.01]], "beta": 0.05,
               "sample_sizes": [1000], "realizations": 2, "x0": [2.0, 2.0]}
        cp = tmp_path / "exp.json"
        cp.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(cp), "--out", str(tmp_path / "o.csv"),
                   "--jobs", "0"])
        assert rc == EXIT_INVALID
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_moments_of_another_channel_count_exit_code(self, capsys, sys6, tmp_path):
        write_fixture(tmp_path / "sys.json", sys6)
        cfg = {"system": "sys.json", "mu": [0.0, 0.0, 0.0], "sigma": np.eye(3).tolist(),
               "Q": [[10.0, 0.0], [0.0, 1.0]], "R": [[0.01]], "beta": 0.05,
               "sample_sizes": [1000], "realizations": 2, "x0": [2.0, 2.0]}
        cp = tmp_path / "exp.json"
        cp.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(cp), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_INVALID
        assert "true_moments have 3 disturbance channels, the system has 2" in capsys.readouterr().err

    def _sweep_must_not_run(self, monkeypatch, sys6, tmp_path):
        """A valid config file in tmp_path, with the sweep replaced by a failure."""
        def sweep(cfg, jobs=1):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(experiment, "run_sample_complexity", sweep)
        write_fixture(tmp_path / "sys.json", sys6)
        cfg = {"system": "sys.json", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
               "Q": [[10.0, 0.0], [0.0, 1.0]], "R": [[0.01]], "beta": 0.05,
               "sample_sizes": [1000], "realizations": 2, "x0": [2.0, 2.0]}
        cp = tmp_path / "exp.json"
        cp.write_text(json.dumps(cfg))
        return cp

    def test_missing_out_directory_fails_before_the_sweep(self, capsys, monkeypatch, sys6, tmp_path):
        """The whole sweep ran before the CSV could not be opened."""
        cp = self._sweep_must_not_run(monkeypatch, sys6, tmp_path)
        out = tmp_path / "missing" / "o.csv"
        rc = main(["experiment", "--config", str(cp), "--out", str(out)])
        assert rc == EXIT_INVALID
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_out_directory_fails_before_the_sweep(self, capsys, monkeypatch, sys6, tmp_path):
        """A directory given as --out failed only at write time, after the sweep."""
        cp = self._sweep_must_not_run(monkeypatch, sys6, tmp_path)
        rc = main(["experiment", "--config", str(cp), "--out", str(tmp_path)])
        assert rc == EXIT_INVALID
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err

    def test_negative_seed_fails_before_the_sweep(self, capsys, monkeypatch, sys6, tmp_path):
        """--seed -1 failed in numpy, without naming the seed, after the nominal solve."""
        cp = self._sweep_must_not_run(monkeypatch, sys6, tmp_path)
        rc = main(["experiment", "--config", str(cp), "--out", str(tmp_path / "o.csv"),
                   "--seed", "-1"])
        assert rc == EXIT_INVALID
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err

    def test_missing_field(self, capsys, tmp_path):
        cp = tmp_path / "exp.json"
        cp.write_text(json.dumps({"beta": 0.05}))
        rc = main(["experiment", "--config", str(cp), "--out", str(tmp_path / "o.csv")])
        capsys.readouterr()
        assert rc == EXIT_INVALID


class TestExample1:
    def test_small_run(self, capsys):
        rc, out = _run(capsys, ["example1", "--m", "500", "--trials", "2000"])
        assert rc == EXIT_OK
        assert out["M"] == 500
        assert np.isclose(out["analytic"], 0.16927, atol=5e-5)
        assert abs(out["monte_carlo"] - out["analytic"]) < 0.05

    def test_negative_seed_exit_code(self, capsys):
        rc = main(["example1", "--m", "500", "--trials", "10", "--seed", "-1"])
        assert rc == EXIT_INVALID
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
