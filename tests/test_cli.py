import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drag_forge
from drag_forge.cli import main, preset_config, run_config, run_preset


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    src = str(Path(drag_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, drag_forge.cli, drag_forge.adiabatic, "
            "drag_forge.optimizer; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestGaussianBenchmarkPreset:
    def test_rows_match_benchmarks(self, tmp_path):
        csv = run_preset("gaussian-benchmark", tmp_path)
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "sigma,variant,gate_error,n_steps"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        targets = {1 / 3: 0.198, 2 / 3: 0.0160, 1.5: 0.0030}
        for sigma_s, variant, err_s, n_s in rows:
            sigma, err = float(sigma_s), float(err_s)
            assert variant == "gaussian0"
            assert int(n_s) == 4096
            want = targets[min(targets, key=lambda k: abs(k - sigma))]
            assert err == pytest.approx(want, rel=0.05)

    def test_manifest_names_steps(self, tmp_path):
        run_preset("gaussian-benchmark", tmp_path)
        doc = json.loads((tmp_path / "gaussian-benchmark.manifest.json").read_text())
        assert all(r["n_steps"] == 4096 for r in doc["rows"])
        assert doc["csv"] == "gaussian-benchmark.csv"


class TestExitCodes:
    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        rc = main(["run", "nosuch", "--out", str(tmp_path)])
        assert rc == 2
        assert "gaussian-benchmark" in capsys.readouterr().err

    def test_missing_target_exits_2(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 2

    def test_success_exits_0(self, tmp_path):
        assert main(["run", "fig9", "--out", str(tmp_path)]) == 0

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        cfg = preset_config("gaussian-benchmark")
        cfg["variants"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "variants" in capsys.readouterr().err

    @pytest.mark.parametrize("args,changes,expect", [
        (["--config", "CFG", "--steps", "3"], {}, "--steps"),
        (["fig3", "--steps", "abc"], {}, "--steps"),
        (["pop-traces", "--steps", "3"], {}, "--steps"),
        (["--config", "CFG"], {"sigma": [0.5, "x"]}, "sigma[1]"),
        (["--config", "CFG"], {"area": "pi"}, "area"),
        (["--config", "CFG"], {"tg_factor": None}, "tg_factor"),
        (["--config", "CFG"],
         {"system": {"kind": "star", "delta": [-2 * math.pi], "lambda": [1.0]},
          "variants": ["gaussian0", "drag2"]}, "variants[1]"),
        (["fig5a", "--steps", "64"], {}, "--steps"),
        (["fig5b", "--steps", "auto"], {}, "--steps"),
        (["fig9", "--steps", "64"], {}, "--steps"),
        (["pop-traces", "--steps", "auto"], {}, "--steps"),
        (["fig3", "--jobs", "0"], {}, "--jobs"),
        (["--config", "CFG"],
         {"system": {"kind": "spec", "spec": {
             "topology": "intermediate", "d": 5, "delta": 5.0,
             "lambda": {"-2": 1.0, "-1": 1.0, "0": 1.0, "1": 1.0}}}},
         "delta of the intermediate spec"),
        (["--config", "CFG"],
         {"system": {"kind": "sno", "d": 5.7, "delta2": -2 * math.pi}},
         "d must be an integer, got 5.7"),
        (["--config", "CFG"], None, "cfg.json"),
        (["--config", "CFG"], b"\xff\xfe{}", "cfg.json"),
    ], ids=["config-steps-3", "preset-steps-abc", "pop-traces-steps-3",
            "sigma-string", "area-string", "tg_factor-null", "star-drag2",
            "fig5a-steps", "fig5b-steps-auto", "fig9-steps",
            "pop-traces-steps-auto", "fig3-jobs-0", "spec-delta-number",
            "d-fraction", "config-directory", "config-not-utf8"])
    def test_bad_input_exits_2(self, tmp_path, capsys, args, changes, expect):
        path = tmp_path / "cfg.json"
        if changes is None:
            path.mkdir()
        elif isinstance(changes, bytes):
            path.write_bytes(changes)
        else:
            cfg = dict(preset_config("gaussian-benchmark"), **changes)
            path.write_text(json.dumps(cfg))
        argv = ["run"] + [str(path) if a == "CFG" else a for a in args]
        try:
            rc = main(argv + ["--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse rejects bad option values
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert expect in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("changes,expect", [
        ({"sigma": [1e308]}, "sigma=1e+308"),
        ({"area": 1e308}, "area=1e+308"),
        ({"tg_factor": 1e-300}, "tg_factor=1e-300"),
    ], ids=["sigma-overflow", "area-overflow", "tg_factor-underflow"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unusable_pulse_exits_2(self, tmp_path, capsys, changes, expect):
        # finite values that pass the schema but give no finite pulse
        cfg = dict(preset_config("gaussian-benchmark"), **changes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert expect in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept")
        assert main(["run", "fig9", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert out.read_text() == "kept"
        assert list(tmp_path.iterdir()) == [out]

    def test_steps_override_is_validated(self, tmp_path):
        from drag_forge.cli import ConfigError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(preset_config("gaussian-benchmark")))
        with pytest.raises(ConfigError, match="n_steps"):
            run_config(path, tmp_path / "out", n_steps=3)
        # sweep presets validate the override before creating the directory
        with pytest.raises(ConfigError, match="n_steps"):
            run_preset("fig3", tmp_path / "fig3", n_steps=3)
        assert not (tmp_path / "fig3").exists()
        # pop-traces checks its step count before it creates the directory;
        # 0 used to run 4096 steps and True is no step count either
        for bad in (3, 0, True):
            with pytest.raises(ConfigError, match="n_steps"):
                run_preset("pop-traces", tmp_path / "pop", n_steps=bad)
        assert not (tmp_path / "pop").exists()

    def test_convergence_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import drag_forge.cli as cli
        from drag_forge import ConvergenceError

        def explode(args):
            raise ConvergenceError("no convergence at sigma=0.5")

        monkeypatch.setattr(cli, "_sweep_point", explode)
        rc = main(["run", "gaussian-benchmark", "--out", str(tmp_path)])
        assert rc == 3
        assert "sigma=0.5" in capsys.readouterr().err


class TestRunConfig:
    def test_echoed_preset_is_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        csv_a = run_preset("gaussian-benchmark", a_dir)
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(json.dumps(preset_config("gaussian-benchmark")))
        csv_b = run_config(cfg_path, b_dir)
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_single_sigma_gives_single_row(self, tmp_path):
        cfg = preset_config("gaussian-benchmark")
        cfg["sigma"] = [0.5]
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        csv = run_config(path, tmp_path)
        assert len(csv.read_text().splitlines()) == 3  # comment + header + row

    def test_reruns_are_deterministic(self, tmp_path):
        cfg = preset_config("gaussian-benchmark")
        cfg["sigma"] = [0.5, 0.9]
        path = tmp_path / "det.json"
        path.write_text(json.dumps(cfg))
        a = run_config(path, tmp_path / "r1").read_bytes()
        b = run_config(path, tmp_path / "r2").read_bytes()
        assert a == b

    def test_decreasing_sigma_rejected(self, tmp_path):
        cfg = preset_config("gaussian-benchmark")
        cfg["sigma"] = [1.0, 0.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(Exception, match="sigma"):
            run_config(path, tmp_path)

    def test_star_system_config(self, tmp_path):
        d2 = -2 * math.pi
        cfg = {
            "name": "mini-star",
            "system": {"kind": "star", "delta": [d2, 2 * d2],
                       "lambda": [1.0, 1.0]},
            "variants": ["gaussian0", "optimal1"],
            "sigma": [1.0],
            "n_steps": 1024,
        }
        path = tmp_path / "star.json"
        path.write_text(json.dumps(cfg))
        csv = run_config(path, tmp_path)
        lines = csv.read_text().splitlines()
        assert len(lines) == 4
        e_g0 = float(lines[2].split(",")[2])
        e_o1 = float(lines[3].split(",")[2])
        assert e_o1 < e_g0

    def test_full_spec_document_system(self, tmp_path):
        from drag_forge import build_intermediate_sno, spec_to_json
        inter = build_intermediate_sno(5, -2 * math.pi)
        cfg = {
            "name": "inter-sweep",
            "system": {"kind": "spec", "spec": json.loads(spec_to_json(inter))},
            "variants": ["gaussian0", "optimal1"],
            "sigma": [1.0],
            "n_steps": 1024,
        }
        path = tmp_path / "inter.json"
        path.write_text(json.dumps(cfg))
        csv = run_config(path, tmp_path)
        rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
        assert float(rows[1][2]) < float(rows[0][2])  # corrected beats bare

    def test_steps_override(self, tmp_path):
        cfg = preset_config("gaussian-benchmark")
        cfg["sigma"] = [0.5]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        csv = run_config(path, tmp_path, n_steps=512)
        assert csv.read_text().splitlines()[2].endswith(",512")


class TestFig9Preset:
    def test_pole_gap_and_branch_monotonicity(self, tmp_path):
        csv = run_preset("fig9", tmp_path)
        rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
        ratios = [float(r[0]) for r in rows]
        lams = [float(r[1]) for r in rows]
        assert all(abs(r + 1.0) > 0.02 for r in ratios)
        left = [l for r, l in zip(ratios, lams) if r < -1]
        right = [l for r, l in zip(ratios, lams) if r > -1]
        assert all(b < a for a, b in zip(left, left[1:]))    # decreasing to the pole
        assert all(b < a for a, b in zip(right, right[1:]))  # decreasing after it
        # direct-drive column is the constant sqrt(2)
        assert all(float(r[2]) == pytest.approx(math.sqrt(2)) for r in rows)

    def test_harmonic_point_value(self, tmp_path):
        csv = run_preset("fig9", tmp_path)
        for line in csv.read_text().splitlines()[2:]:
            ratio, lam, _ = line.split(",")
            if float(ratio) == 0.0:
                assert float(lam) == pytest.approx(math.sqrt(2))
                break
        else:
            pytest.fail("ratio 0 missing from the sweep")


class TestPopTraces:
    def test_files_and_probability_conservation(self, tmp_path):
        run_preset("pop-traces", tmp_path, n_steps=512)
        manifest = json.loads((tmp_path / "pop-traces.manifest.json").read_text())
        assert len(manifest["files"]) == 3
        for entry in manifest["files"]:
            lines = (tmp_path / entry["csv"]).read_text().splitlines()
            assert lines[1] == "t,p0,p1,p2,p3,p4"
            for line in lines[2:]:
                vals = [float(v) for v in line.split(",")[1:]]
                assert sum(vals) == pytest.approx(1.0, abs=1e-9)
        # shortest pulse ends with significant leakage, longest nearly none
        short = (tmp_path / manifest["files"][0]["csv"]).read_text().splitlines()[-1]
        long = (tmp_path / manifest["files"][2]["csv"]).read_text().splitlines()[-1]
        leak_short = sum(float(v) for v in short.split(",")[3:])
        leak_long = sum(float(v) for v in long.split(",")[3:])
        assert leak_short > 0.05 > leak_long


    def test_csv_export(self, tmp_path):
        run_preset("pop-traces", tmp_path, n_steps=32)
        lines = (tmp_path / "pop-traces-1.csv").read_text().splitlines()
        assert lines[0] == "# manifest: pop-traces.manifest.json"
        assert lines[1] == "t,p0,p1,p2,p3,p4"
        assert len(lines) == 2 + 33  # every grid node, both ends included
        first = [float(v) for v in lines[2].split(",")]
        assert first == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


class TestFig5Preset:
    def test_small_budget_smoke(self, tmp_path):
        from drag_forge.cli import _run_fig5
        csv = _run_fig5("fig5a", tmp_path, delta0_free=False, sigmas=(0.6,),
                        max_evals=12, prop_tol=1e-6)
        lines = csv.read_text().splitlines()
        assert lines[1] == "sigma,mask,alpha,beta,gamma,delta0,gate_error,n_evals"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[1] for r in rows] == ["alpha", "alpha+gamma", "alpha+beta",
                                        "alpha+beta+gamma"]
        for r in rows:
            assert float(r[6]) < 0.1
            assert float(r[5]) == 0.0  # delta0 frozen at zero
        manifest = json.loads((tmp_path / "fig5a.manifest.json").read_text())
        assert manifest["config"]["masks"][-1] == "alpha+beta+gamma"
        assert all(isinstance(row["converged"], bool)
                   for row in manifest["rows"])

    def test_delta0_column_active_in_fig5b(self, tmp_path):
        from drag_forge.cli import _run_fig5
        csv = _run_fig5("fig5b", tmp_path, delta0_free=True, sigmas=(0.6,),
                        max_evals=12, prop_tol=1e-6)
        rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
        assert all(r[1].endswith("+delta0") for r in rows)


class TestSweepPresets:
    def test_fig7_ordering(self, tmp_path):
        csv = run_preset("fig7", tmp_path, n_steps=1024)
        rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
        by_sigma = {}
        for sigma_s, variant, err_s, _ in rows:
            by_sigma.setdefault(float(sigma_s), {})[variant] = float(err_s)
        # corrections beat the bare pulse on the slow half of the sweep
        for sigma, errs in by_sigma.items():
            if sigma >= 1.0:
                assert errs["optimal1"] < errs["gaussian0"]

    def test_fig8_shape(self, tmp_path):
        csv = run_preset("fig8", tmp_path, n_steps=1024)
        lines = csv.read_text().splitlines()
        assert len(lines) == 2 + 9 * 4  # sigma grid x variants


def test_parallel_jobs_match_serial(tmp_path):
    cfg = preset_config("gaussian-benchmark")
    cfg["sigma"] = [0.4, 0.8]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    serial = run_config(path, tmp_path / "s", jobs=1).read_bytes()
    parallel = run_config(path, tmp_path / "p", jobs=2).read_bytes()
    assert serial == parallel


class _RecordingPool:
    # stands in for ProcessPoolExecutor: records its size, maps in-process
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestJobs:
    def test_pool_never_exceeds_points(self, tmp_path, monkeypatch):
        import drag_forge.cli as cli
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        cfg = preset_config("gaussian-benchmark")
        cfg["sigma"] = [0.4, 0.8]
        cfg["n_steps"] = 64
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        serial = run_config(path, tmp_path / "s").read_bytes()
        assert run_config(path, tmp_path / "p", jobs=64).read_bytes() == serial
        cfg["sigma"] = [0.4]
        path.write_text(json.dumps(cfg))
        run_config(path, tmp_path / "one", jobs=64)  # one point, no pool
        assert _RecordingPool.sizes == [2]

    @pytest.mark.parametrize("jobs", [0, -3, 2.0, True, "2", None])
    def test_bad_jobs_rejected_before_output(self, tmp_path, jobs):
        from drag_forge.cli import ConfigError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(preset_config("gaussian-benchmark")))
        with pytest.raises(ConfigError, match="jobs"):
            run_config(path, tmp_path / "cfg-out", jobs=jobs)
        for name in ("fig3", "fig9"):
            with pytest.raises(ConfigError, match="jobs"):
                run_preset(name, tmp_path / name, jobs=jobs)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
