import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drag_forge
from drag_forge.cli import (ConfigError, main, preset_config, run_config,
                            run_preset)


def _fresh_import_modules(roots) -> str:
    """The sorted loaded modules under ``roots`` after a fresh interpreter
    imports the CLI, the frame expansion and the optimizer."""
    src = str(Path(drag_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, drag_forge.cli, drag_forge.adiabatic, "
            "drag_forge.optimizer; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    assert _fresh_import_modules(("scipy",)) == "[]"


def test_runtime_imports_no_process_pool():
    # the pool machinery is imported only by a run that starts workers
    assert _fresh_import_modules(("concurrent", "multiprocessing")) == "[]"


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

    def test_run_preset_rejects_unknown_name(self, tmp_path):
        # the public API names the preset instead of raising a bare KeyError
        with pytest.raises(ConfigError, match="unknown preset 'nosuch'.*fig9"):
            run_preset("nosuch", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["fig9", "fig5a", "pop-traces", "nosuch"])
    def test_preset_config_rejects_non_sweep_name(self, name):
        # only the sweep presets have a config; the error lists them
        with pytest.raises(ConfigError, match=f"'{name}'.*gaussian-benchmark, "
                                              "fig3, fig4, fig7, fig8$"):
            preset_config(name)

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
        # --steps only converts; _check_steps is the one range rule
        (["--config", "CFG", "--steps", "3"], {},
         "n_steps: must be an integer from 16 to 1048576"),
        (["fig3", "--steps", "abc"], {}, "--steps"),
        (["pop-traces", "--steps", "3"], {},
         "n_steps: must be an integer from 16 to 1048576"),
        (["--config", "CFG"], {"sigma": [0.5, "x"]}, "sigma[1]"),
        (["--config", "CFG"], {"area": "pi"}, "area"),
        (["--config", "CFG"], {"tg_factor": None}, "tg_factor"),
        (["--config", "CFG"], {"variants": ["gaussian0", "nope"]},
         "variants[1]"),
        (["fig5a", "--steps", "64"], {}, "--steps"),
        (["fig5b", "--steps", "auto"], {}, "--steps"),
        (["fig9", "--steps", "64"], {}, "--steps"),
        (["pop-traces", "--steps", "auto"], {}, "--steps"),
        (["fig3", "--jobs", "0"], {}, "--jobs"),
        (["gaussian-benchmark", "--steps", str(10**15)], {},
         "n_steps: must be an integer from 16 to 1048576"),
        (["pop-traces", "--steps", str(10**15)], {},
         "n_steps: must be an integer from 16 to 1048576"),
        (["--config", "CFG"], {"n_steps": 2**20 + 1},
         "n_steps: must be an integer from 16 to 1048576"),
        (["--config", "CFG"],
         {"system": {"kind": "spec", "spec": {
             "topology": "intermediate", "d": 5, "delta": 5.0,
             "lambda": {"-2": 1.0, "-1": 1.0, "0": 1.0, "1": 1.0}}}},
         "delta of the intermediate spec"),
        (["--config", "CFG"],
         {"system": {"kind": "sno", "d": 5.7, "delta2": -2 * math.pi}},
         "d must be an integer, got 5.7"),
        (["--config", "CFG"],
         {"system": {"kind": "spec", "spec": {
             "topology": "intermediate", "d": 3,
             "delta": {"-1": -2 * math.pi, "0": 0.0, "1": 0.0},
             "lambda": {"-1": 0.7, "0": 1.0}}}},
         "system: intermediate topology requires odd d >= 5, got d=3"),
        (["--config", "CFG"], None, "cfg.json"),
        (["--config", "CFG"], b"\xff\xfe{}", "cfg.json"),
        (["--config", "CFG"], {"system": {"kind": "ring"}},
         "system: system.kind: unknown kind 'ring'"),
        (["--config", "CFG"], b"[1, 2]", "$: config must be a JSON object"),
        (["--config", "CFG"],
         json.dumps({"name": "x", "system": {"kind": "sno", "d": 3,
                                             "delta2": -1.0},
                     "variants": ["gaussian0"]}).encode(),
         "sigma: missing required field"),
        (["--config", "CFG"], {"name": ""}, "name: must be a non-empty string"),
        (["--config", "CFG"], {"system": [5]}, "system: must be an object"),
        (["--config", "CFG"], {"system": {"kind": "sno", "d": 5}},
         "system: invalid system: 'delta2'"),
        (["--config", "CFG"], {"sigma": []}, "sigma: must be a non-empty list"),
        (["--config", "CFG"], {"sigma": [-0.5, 0.5]},
         "sigma: values must be positive"),
        (["--config", "CFG"], {"tg_factor": 0}, "tg_factor: must be positive"),
        (["--config", "CFG"], {"name": "/tmp/x"},
         "name: must be a plain file name, got '/tmp/x'"),
        (["--config", "CFG"], {"name": "../x"},
         "name: must be a plain file name, got '../x'"),
        (["--config", "CFG"], {"name": "a/b"},
         "name: must be a plain file name, got 'a/b'"),
        (["--config", "CFG"], {"name": ".."},
         "name: must be a plain file name, got '..'"),
        (["--config", "CFG"], {"name": "a\0b"},
         "name: must be a plain file name, got 'a\\x00b'"),
        (["--config", "CFG"], {"name": "x" * 300},
         "name: too long: <name>.manifest.json exceeds 255 bytes"),
        # float() would read a JSON boolean as 1.0 or 0.0, and a numeric
        # string as its number, and run
        (["--config", "CFG"],
         {"system": {"kind": "sno", "d": 5, "delta2": "-6.28"}},
         "system: delta2 must be a number, got '-6.28'"),
        (["--config", "CFG"],
         {"system": {"kind": "sno", "d": 5, "delta2": True}},
         "system: delta2 must be a number, got True"),
        (["--config", "CFG"],
         {"system": {"kind": "intermediate_sno", "d": 5, "delta2": False}},
         "system: delta2 must be a number, got False"),
        (["--config", "CFG"],
         {"system": {"kind": "star", "delta": [-2 * math.pi, -4 * math.pi],
                     "lambda": [1, False]}},
         "system: lambda[1] must be a number, got False"),
        (["--config", "CFG"],
         {"system": {"kind": "star", "delta": [True, -4 * math.pi],
                     "lambda": [1, 1]}},
         "system: delta[0] must be a number, got True"),
        (["--config", "CFG"],
         {"system": {"kind": "spec", "spec": {
             "topology": "ladder", "d": 3, "delta": [0.0, 0.0, -1.0],
             "lambda": [True, 1.4]}}},
         "system: lambda[0] must be a number, got True"),
        (["--config", "CFG"],
         {"system": {"kind": "spec", "spec": {
             "topology": "intermediate", "d": 5,
             "delta": {"-2": -3.0, "-1": True, "0": 0.0, "1": 0.0, "2": -1.0},
             "lambda": {"-2": 0.5, "-1": 0.8, "0": 1.0, "1": 1.2}}}},
         "system: delta[-1] must be a number, got True"),
        # the builders leave these checks to SystemSpec
        (["--config", "CFG"],
         {"system": {"kind": "sno", "d": 5, "delta2": 0.0}},
         "system: leakage level 2 has zero anharmonicity; it must be nonzero"),
        (["--config", "CFG"],
         {"system": {"kind": "sno", "d": 2, "delta2": -1.0}},
         "system: a system requires d >= 3, two qubit levels and at least "
         "one leakage level, got d=2"),
        (["--config", "CFG"],
         {"system": {"kind": "star", "delta": [], "lambda": []}},
         "system: a system requires d >= 3, two qubit levels and at least "
         "one leakage level, got d=2"),
        # int() alone reads each key as label 2; " 2" would overwrite "2"
        *[(["--config", "CFG"],
           {"system": {"kind": "spec", "spec": {
               "topology": "ladder", "d": 3, "lambda": [1.0, 1.4],
               "delta": {"0": 0.0, "1": 0.0, "2": -1.0, key: -5.0}}}},
           f"system: delta key {key!r} is not a level label")
          for key in (" 2", "0_2", "+2")],
        # the config would run and the preset be ignored
        (["fig3", "--config", "CFG"], {},
         "give a preset or --config, not both: got 'fig3' and --config"),
    ], ids=["config-steps-3", "preset-steps-abc", "pop-traces-steps-3",
            "sigma-string", "area-string", "tg_factor-null",
            "variants-unknown",
            "fig5a-steps", "fig5b-steps-auto", "fig9-steps",
            "pop-traces-steps-auto", "fig3-jobs-0", "preset-steps-huge",
            "pop-traces-steps-huge", "config-steps-huge", "spec-delta-number",
            "d-fraction", "spec-intermediate-d3", "config-directory",
            "config-not-utf8",
            "system-kind-unknown", "config-not-object", "field-missing",
            "name-empty", "system-not-object", "system-key-missing",
            "sigma-empty", "sigma-non-positive", "tg_factor-zero",
            "name-absolute", "name-parent", "name-separator", "name-dotdot",
            "name-nul", "name-too-long", "sno-delta2-string",
            "sno-delta2-bool",
            "intermediate-delta2-bool", "star-lambda-bool", "star-delta-bool",
            "spec-lambda-bool", "spec-signed-delta-bool", "sno-delta2-zero",
            "sno-d-2", "star-empty", "spec-key-space", "spec-key-underscore",
            "spec-key-plus", "preset-and-config"])
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
        assert not out.exists()  # the directory is made at the first write

    def test_step_cap_is_the_largest_count_accepted(self):
        # as many steps as "auto" tries at most; one more is refused above
        from drag_forge.cli import _validate_config
        cfg, _ = _validate_config(preset_config("fig3"), 2**20)
        assert cfg["n_steps"] == 2**20

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

    def test_convergence_failure_leaves_no_directory(self, tmp_path, capsys,
                                                     monkeypatch):
        # a cap at the first step count makes "auto" fail at once
        from drag_forge import propagator
        monkeypatch.setattr(propagator, "_STEP_CAP", 256)
        cfg = dict(preset_config("gaussian-benchmark"), n_steps="auto")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "within 256 steps" in err and "Traceback" not in err
        assert not out.exists()


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

    def test_star_config_takes_second_order_variant(self, tmp_path):
        # every named variant works on every topology
        cfg = dict(preset_config("gaussian-benchmark"), sigma=[1.0],
                   variants=["gaussian0", "drag2"],
                   system={"kind": "star", "delta": [-2 * math.pi],
                           "lambda": [1.0]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "gaussian-benchmark.csv").read_text()
        rows = lines.splitlines()[2:]
        assert [r.split(",")[1] for r in rows] == ["gaussian0", "drag2"]

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

    def test_auto_steps_point_matches_converge(self, tmp_path):
        # one n_steps "auto" point: the step count and gate error are those
        # of the step-doubling policy at the sweep's 1e-9 tolerance
        from drag_forge import (DragVariant, GaussianParams, build_controls,
                                build_sno, converge, gate_error, ideal_not)
        cfg = dict(preset_config("gaussian-benchmark"), sigma=[1.0],
                   variants=["drag1"], n_steps="auto")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        csv = run_config(path, tmp_path / "out")
        spec = build_sno(5, -2 * math.pi)
        params = GaussianParams(math.pi, 1.0, 4.0)
        u, used = converge(spec, build_controls(spec, DragVariant.DRAG1, params),
                           params.t_g, 1e-9)
        err = gate_error(u, ideal_not(spec.d, spec.qubit_rows), spec.qubit_rows)
        assert csv.read_text().splitlines()[2] == f"1.0,drag1,{err!r},{used}"
        doc = json.loads((tmp_path / "out" / "gaussian-benchmark.manifest.json")
                         .read_text())
        assert doc["rows"] == [{"sigma": 1.0, "variant": "drag1",
                                "n_steps": used}]
        assert doc["config"]["n_steps"] == "auto"

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

    def test_manifest_records_conservation_and_leakage(self, tmp_path):
        # both figures recomputed from the CSV the manifest names
        run_preset("pop-traces", tmp_path, n_steps=512)
        manifest = json.loads((tmp_path / "pop-traces.manifest.json").read_text())
        for entry in manifest["files"]:
            lines = (tmp_path / entry["csv"]).read_text().splitlines()
            probs = np.array([[float(v) for v in line.split(",")[1:]]
                              for line in lines[2:]])
            defect = np.max(np.abs(probs.sum(axis=1) - 1.0))
            assert entry["conservation_defect"] == defect
            assert entry["final_leakage"] == probs[-1, 2:].sum()  # sno5 rows 2-4


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
        csv = _run_fig5("fig5a", tmp_path, sigmas=(0.6,), max_evals=12,
                        prop_tol=1e-6)
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
        csv = _run_fig5("fig5b", tmp_path, sigmas=(0.6,), max_evals=12,
                        prop_tol=1e-6)
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


def _outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_parallel_fig5_matches_serial(tmp_path):
    from drag_forge.cli import _run_fig5
    for jobs in (1, 2):
        (tmp_path / str(jobs)).mkdir()
        _run_fig5("fig5a", tmp_path / str(jobs), sigmas=(0.6,),
                  max_evals=20, jobs=jobs)
    serial = _outputs(tmp_path / "1")
    assert sorted(serial) == ["fig5a.csv", "fig5a.manifest.json"]
    assert _outputs(tmp_path / "2") == serial


def test_numpy_counts_run_like_ints(tmp_path):
    # a count is what operator.index takes, so numpy integers run and are
    # written to the manifest as plain ints
    run_preset("pop-traces", tmp_path / "int", n_steps=32)
    run_preset("pop-traces", tmp_path / "np", jobs=np.int64(1),
               n_steps=np.int64(32))
    assert _outputs(tmp_path / "np") == _outputs(tmp_path / "int")
    cfg = preset_config("gaussian-benchmark")
    cfg["sigma"] = [0.4, 0.8]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    run_config(path, tmp_path / "cfg-int", jobs=2, n_steps=64)
    run_config(path, tmp_path / "cfg-np", jobs=np.int64(2),
               n_steps=np.int32(64))
    assert _outputs(tmp_path / "cfg-np") == _outputs(tmp_path / "cfg-int")


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
    @pytest.fixture
    def pools(self, monkeypatch):
        """The sizes of the pools opened while the test runs."""
        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        return _RecordingPool.sizes

    def test_pool_never_exceeds_points(self, tmp_path, pools):
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
        assert pools == [2]

    def test_pool_never_exceeds_fig5_tasks(self, tmp_path, pools):
        from drag_forge.cli import _run_fig5
        _run_fig5("fig5a", tmp_path, sigmas=(0.6,), max_evals=12,
                  prop_tol=1e-6, jobs=64)
        assert pools == [4]  # one sigma, four masks

    @pytest.mark.parametrize("name,n_steps", [("fig9", None),
                                              ("pop-traces", 64)])
    def test_in_process_presets_open_no_pool(self, tmp_path, pools, name,
                                             n_steps):
        run_preset(name, tmp_path, jobs=64, n_steps=n_steps)
        assert pools == []

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
