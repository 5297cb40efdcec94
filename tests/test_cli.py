"""Command-line surface: synth/run/report subcommands and config parsing."""

import json

import pytest

from stmkernels.cli import main, read_config
from stmkernels.harness import (
    DEFAULT_C_GRID,
    DEFAULT_G_GRID,
    ExperimentConfig,
    load_dataset,
)
from stmkernels.synth import SynthConfig


CONFIG_TEXT = """
# synthetic leaf experiment, desk scale
scenario = leaf
mode_size = 12
r_exact = 2
r_approx = 2
samples_per_class = 5
noise_grid = 0.01
kernels = subspace, wsek
rank_grid = 2
c_grid_log2 = -2:2
g_grid_log2 = -1:1
repeats = 2
folds = 3
seed = 11
measure_time = false
"""


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT)
        cfg = read_config(path)
        assert cfg.synth.scenario == "leaf"
        assert cfg.synth.mode_size == 12
        assert cfg.synth.seed == 11
        assert cfg.kernels == ("subspace", "wsek")
        assert cfg.rank_grid == (2,)
        assert cfg.c_grid == (0.25, 0.5, 1.0, 2.0, 4.0)
        assert cfg.g_grid == (0.5, 1.0, 2.0)
        assert cfg.measure_time is False

    def test_defaults_match_reference_protocol(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenario = core\n")
        cfg = read_config(path)
        assert cfg.synth.mode_size == 100
        assert cfg.synth.r_exact == 3
        assert cfg.synth.samples_per_class == 50
        assert cfg.repeats == 20
        assert cfg.folds == 5
        assert cfg.rank_grid == tuple(range(1, 11))
        assert cfg.c_grid == DEFAULT_C_GRID == tuple(2.0 ** k for k in range(-8, 9))
        assert cfg.g_grid == DEFAULT_G_GRID == tuple(2.0 ** k for k in range(-4, 13))
        assert cfg.noise_grid == (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
        assert cfg.kernels == ("gaussian", "dusk", "subspace", "wsek")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenario = leaf\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            read_config(path)

    def test_data_dir_source(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(f"data_dir = {tmp_path}\nrank_grid = 1:2\n"
                        "c_grid = 0.5, 2\ng_grid = 4\n")
        cfg = read_config(path)
        assert cfg.data_dir == str(tmp_path)
        assert cfg.synth is None
        assert cfg.rank_grid == (1, 2)
        assert cfg.c_grid == (0.5, 2.0)
        assert cfg.g_grid == (4.0,)

    def test_every_key_sets_its_field(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "scenario = core\nmode_size = 9\nr_exact = 2\nr_approx = 4\n"
            "samples_per_class = 7\nfreq_uniform = yes\n"
            "noise_grid = 0.1, 0.5\nkernels = dusk\nrank_grid = 1, 3\n"
            "c_grid_log2 = -1, 3\ng_grid_log2 = 2:4\nrepeats = 4\n"
            "folds = 6\nseed = 17\np = 0.75\nthreads = 3\n"
            "measure_time = off\nsmo_tol = 1e-5\noutput = results\n")
        cfg = read_config(path)
        assert cfg.synth == SynthConfig(
            scenario="core", mode_size=9, r_exact=2, r_approx=4,
            samples_per_class=7, seed=17, freq_uniform=True)
        assert cfg == ExperimentConfig(
            synth=cfg.synth, noise_grid=(0.1, 0.5), kernels=("dusk",),
            rank_grid=(1, 3), c_grid=(0.5, 8.0), g_grid=(4.0, 8.0, 16.0),
            repeats=4, folds=6, seed=17, p=0.75, threads=3,
            measure_time=False, smo_tol=1e-5, output="results")

    def test_parse_error_names_the_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenario = leaf\nfolds = 2.5\n")
        with pytest.raises(ValueError, match="^config key folds: "):
            read_config(path)
        for key in ("c_grid_log2", "g_grid_log2"):
            path.write_text(f"scenario = leaf\n{key} = 0, 2000\n")
            with pytest.raises(ValueError,
                               match=f"^config key {key}: 2\\*\\*2000 "):
                read_config(path)
            path.write_text(f"scenario = leaf\n{key} = -2000, 0\n")
            with pytest.raises(ValueError) as err:
                read_config(path)
            assert str(err.value) == f"config key {key}: 2**-2000 underflows to 0"

    @pytest.mark.parametrize("text, message", [
        ("scenario = leaf\nfolds = 3\n\nfolds = 4\n",
         "{path}:4: folds is already set on line 2"),
        ("c_grid = 1\nscenario = leaf\nc_grid_log2 = 3\n",
         "{path}:3: c_grid is already set on line 1"),
        ("g_grid_log2 = 1\ng_grid = 2\nscenario = leaf\n",
         "{path}:2: g_grid is already set on line 1"),
    ])
    def test_duplicate_field_rejected(self, tmp_path, text, message):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_config(path)
        assert str(err.value) == message.format(path=path)

    @pytest.mark.parametrize("text, message", [
        ("scenario = leaf\nbogus = 1\n", "{path}: unknown config key 'bogus'"),
        ("scenario = leaf\nmeasure_time = maybe\n",
         "config key measure_time: expected a boolean, got 'maybe'"),
        ("data_dir = d\nmode_size = 9\n",
         "{path}: data_dir excludes synthetic keys"),
        ("folds = 3\n", "{path}: either scenario or data_dir is required"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_config(path)
        assert str(err.value) == message.format(path=path)


class TestCliCommands:
    def test_synth_then_run_then_report(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        rc = main(["synth", "--out", str(data_dir), "--scenario", "leaf",
                   "--mode-size", "10", "--r-exact", "2", "--r-approx", "2",
                   "--samples-per-class", "4", "--seed", "3"])
        assert rc == 0
        ts = load_dataset(data_dir)
        assert len(ts.samples) == 8
        assert ts.samples[0].shape == (10, 10, 10)

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            f"data_dir = {data_dir}\n"
            "kernels = subspace\n"
            "rank_grid = 2\n"
            "c_grid = 1.0, 4.0\n"
            "g_grid = 0.5, 2.0\n"
            "repeats = 2\n"
            "folds = 2\n"
            "seed = 1\n"
            "measure_time = false\n")
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--output", str(out_dir),
                   "--threads", "1"])
        assert rc == 0
        csv_text = (out_dir / "report.csv").read_text()
        assert csv_text.startswith("kernel,rank,noise,")
        assert "subspace,2," in csv_text

        rendered = tmp_path / "again.csv"
        rc = main(["report", "--summary", str(out_dir / "summary.json"),
                   "--out", str(rendered)])
        assert rc == 0
        assert rendered.read_bytes() == (out_dir / "report.csv").read_bytes()

    def test_failure_emits_json_error_line(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert "error" in payload

    def test_run_rejects_bad_kernel(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("scenario = leaf\nkernels = nope\n")
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "nope" in json.loads(err)["error"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys
        out = subprocess.run(
            [sys.executable, "-m", "stmkernels", "synth", "--out",
             str(tmp_path / "d"), "--mode-size", "8", "--r-approx", "2",
             "--r-exact", "2", "--samples-per-class", "2"],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert (tmp_path / "d" / "manifest.txt").exists()
