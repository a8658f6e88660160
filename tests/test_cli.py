import json

import numpy as np
import pytest

from drlqr.cli import (EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main)
from drlqr.experiment import sample_gaussian
from drlqr.matcore import SymMatrix
from drlqr.riccati import value_iteration
from drlqr.sysmodel import DisturbanceMoments, save_system


@pytest.fixture
def system_json(sys6, tmp_path):
    """System file with embedded cost weights, as the synth command expects."""
    p = tmp_path / "sys.json"
    save_system(sys6, p)
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
        save_system(sys6, p)
        rc, out = _run(capsys, ["synth", "--system", str(p),
                                "--samples", str(samples_csv),
                                "--beta", "0.05", "--method", "nominal",
                                "--Q", "[[10,0],[0,1]]", "--R", "[[0.01]]"])
        assert rc == EXIT_OK
        assert out["method"] == "nominal_vi"

    def test_missing_cost_weights(self, capsys, sys6, samples_csv, tmp_path):
        p = tmp_path / "bare.json"
        save_system(sys6, p)
        rc = main(["synth", "--system", str(p), "--samples", str(samples_csv),
                   "--beta", "0.05", "--method", "nominal"])
        capsys.readouterr()
        assert rc == EXIT_INVALID

    def test_infeasible_exit_code(self, capsys, scalar_sys, tmp_path):
        p = tmp_path / "scalar.json"
        save_system(scalar_sys, p)
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


class TestMss:
    def _gain_file(self, sys6, cost6, moments6, tmp_path, K=None):
        if K is None:
            K = value_iteration(sys6, moments6, cost6).K
        p = tmp_path / "gain.json"
        p.write_text(json.dumps({"K": np.atleast_2d(K).tolist()}))
        return p

    def test_stable_gain(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        save_system(sys6, sp)
        gp = self._gain_file(sys6, cost6, moments6, tmp_path)
        rc, out = _run(capsys, ["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_OK
        assert out["stable"] is True
        assert out["spectral_radius"] < 1.0

    def test_zero_gain_marginal(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        save_system(sys6, sp)
        gp = self._gain_file(sys6, cost6, moments6, tmp_path, K=np.zeros((1, 2)))
        rc, out = _run(capsys, ["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_OK
        assert out["stable"] is False
        assert np.isclose(out["spectral_radius"], 1.0, atol=1e-6)

    def test_custom_moments(self, capsys, sys6, cost6, moments6, tmp_path):
        sp = tmp_path / "sys.json"
        save_system(sys6, sp)
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
    ], ids=["no_K", "top_level_list", "nan", "null"])
    def test_malformed_gain(self, capsys, sys6, tmp_path, content, message):
        sp = tmp_path / "sys.json"
        save_system(sys6, sp)
        gp = tmp_path / "gain.json"
        gp.write_text(content)
        rc = main(["mss", "--system", str(sp), "--gain", str(gp)])
        assert rc == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        rc = main(["mss", "--system", str(tmp_path / "nope.json"),
                   "--gain", str(tmp_path / "nope2.json")])
        capsys.readouterr()
        assert rc == EXIT_INVALID


class TestExperiment:
    def test_sweep(self, capsys, sys6, tmp_path):
        sp = tmp_path / "sys.json"
        save_system(sys6, sp)
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
        save_system(sys6, tmp_path / "sys.json")
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
        ("sample_sizes", [], "sample_sizes"),
    ])
    def test_invalid_config_exit_code(self, capsys, sys6, tmp_path, field, value, message):
        save_system(sys6, tmp_path / "sys.json")
        cfg = {"system": "sys.json", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
               "Q": [[10.0, 0.0], [0.0, 1.0]], "R": [[0.01]], "beta": 0.05,
               "sample_sizes": [1000], "realizations": 2, "x0": [2.0, 2.0], field: value}
        cp = tmp_path / "exp.json"
        cp.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(cp), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_jobs_below_one_exit_code(self, capsys, sys6, tmp_path):
        save_system(sys6, tmp_path / "sys.json")
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
