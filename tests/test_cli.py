"""Command-line front end tests: artifacts, determinism, exit codes."""

from fstack import pipeline
from fstack.cli import main

# A deliberately small but fully feasible scenario so design and run
# complete in seconds: 4 coarse channels (one occupied), 8 fine channels.
MINI_CONFIG = """
[plan]
fs_hz = 1280e6
fo_hz = 10e6
fc_hz = 1650.75e6
nyquist_zone = 2
bandwidth_hz = 240e6
num_coarse_channels = 2

[coarse]
prototype = iir
n_fos = 6
stopband_db = 50
passband_ripple_db = 0.01
fir_stopband_db = 55

[fine]
standard = custom
granularity_hz = 40e6
guardband_fraction = 0.1

[sim]
seed = 99
num_samples = 64000
occupied_subbands = all

[io]
output_dir = {out}
"""


def write_mini(tmp_path, **overrides):
    text = MINI_CONFIG.format(out=tmp_path / "out")
    for key, val in overrides.items():
        text = text.replace(key, val)
    path = tmp_path / "mini.ini"
    path.write_text(text)
    return str(path)


class TestPlanCommand:
    def test_reference_plan_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["plan", "--out", str(out)])
        assert code == 0
        report = (out / "plan_report.txt").read_text()
        assert "fp_hz=29000000" in report
        assert "fa_hz=35000000" in report
        lines = (out / "plan.csv").read_text().splitlines()
        assert lines[0] == "n,beta_n,F_n_hz,phi_n_hz"
        assert len(lines) == 10

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["plan", "--out", str(out1)]) == 0
        assert main(["plan", "--out", str(out2)]) == 0
        assert (out1 / "plan.csv").read_bytes() == (out2 / "plan.csv").read_bytes()
        assert (out1 / "plan_report.txt").read_bytes() == (
            out2 / "plan_report.txt"
        ).read_bytes()


class TestEstimateCommand:
    def test_recursive_candidate_wins_every_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(["estimate", "--out", str(out)]) == 0
        lines = (out / "complexity.csv").read_text().splitlines()
        header = lines[0].split(",")
        a1, a2 = header.index("a1"), header.index("a2")
        p1, p2 = header.index("p1"), header.index("p2")
        assert len(lines) == 8
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[a2]) < float(cells[a1])
            assert float(cells[p2]) < float(cells[p1])

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["estimate", "--out", str(out1)])
        main(["estimate", "--out", str(out2)])
        assert (out1 / "complexity.csv").read_bytes() == (
            out2 / "complexity.csv"
        ).read_bytes()


class TestStackCommand:
    def test_writes_signal_and_spectrum(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert main(["stack", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "stacked.f64").exists()
        assert (out / "stacked.f64.meta").exists()
        spectrum = (out / "stacked_spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "frequency_hz,power_db"
        assert len(spectrum) > 1000


class TestRunCommand:
    def test_mini_pipeline_metrics(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        out = tmp_path / "out"
        metrics = (out / "metrics.txt").read_text()
        assert "mse / signal" in metrics
        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert csv_lines[0] == "aligned_delay_samples,mse,mse_over_signal"
        delay, _, rel = csv_lines[1].split(",")
        assert int(delay) > 0
        assert float(rel) < 1e-4
        assert (out / "input_spectrum.csv").exists()
        assert (out / "subband_1_spectrum.csv").exists()
        assert (out / "output_spectrum.csv").exists()

    def test_empty_occupied_runs_to_zero(self, tmp_path):
        cfg = write_mini(tmp_path, **{"occupied_subbands = all": "occupied_subbands ="})
        assert main(["run", "--config", cfg]) == 0
        csv_lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        delay, mse, rel = csv_lines[1].split(",")
        assert float(mse) == 0.0 and float(rel) == 0.0

    def test_too_short_input_exits_4(self, tmp_path, capsys):
        # the mini pipeline needs about 8 400 samples to reach steady state
        cfg = write_mini(tmp_path, **{"num_samples = 64000": "num_samples = 4000"})
        assert main(["run", "--config", cfg]) == 4
        assert "too short" in capsys.readouterr().err

    def test_metrics_deterministic(self, tmp_path):
        cfg = write_mini(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "input_spectrum.csv").read_bytes() == (
            out2 / "input_spectrum.csv"
        ).read_bytes()


class TestSweepCommand:
    def test_mini_sweep_csv(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert main(["sweep", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "snr_db,mse_rel_db_iir,mse_rel_db_fir"
        assert len(lines) == 6
        # monotone non-increasing MSE as SNR rises
        for col in (1, 2):
            vals = [float(line.split(",")[col]) for line in lines[1:]]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


    def test_sweep_designs_fine_prototype_once(self, tmp_path, monkeypatch):
        built = []
        build = pipeline.build_fine_prototype
        monkeypatch.setattr(pipeline, "build_fine_prototype",
                            lambda *args: built.append(args) or build(*args))
        assert main(["sweep", "--config", write_mini(tmp_path)]) == 0
        assert len(built) == 1


class TestDesignCommand:
    def test_mini_design_artifacts(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert main(["design", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "coarse_fir.coef").exists()
        assert (out / "coarse_iir.coef").exists()
        report = (out / "design_report.txt").read_text()
        assert "candidate 1" in report and "candidate 2" in report

    def test_design_failure_exit_code(self, tmp_path, capsys):
        cfg = write_mini(tmp_path, **{"n_fos = 6": "n_fos = 1"})
        assert main(["design", "--config", cfg]) == 3
        assert "error: design" in capsys.readouterr().err


class TestFullScaleFlag:
    def test_flag_switches_fine_grid(self):
        from fstack.pipeline import build_channel_plan
        from fstack.config import load_config

        cfg = load_config(overrides={"fine.standard": "gmr2"})
        assert build_channel_plan(cfg).channels_per_subband == 64  # desk scale
        cfg.full_scale_fine = True
        assert build_channel_plan(cfg).channels_per_subband == 1280
        cfg2 = load_config(overrides={"fine.standard": "gmr1"})
        cfg2.full_scale_fine = True
        assert build_channel_plan(cfg2).channels_per_subband == 2048


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[plan]\nfs_hz = 10\nwarp_factor = 9\n")
        assert main(["plan", "--config", str(path)]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_all_bad_values_enumerated(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[plan]\nfs_hz = zero\nnyquist_zone = 0\n[coarse]\nn_fos = -3\n"
        )
        assert main(["plan", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        for key in ("plan.fs_hz", "plan.nyquist_zone", "coarse.n_fos"):
            assert key in err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["plan", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_seed_override_changes_stimulus(self, tmp_path):
        cfg = write_mini(tmp_path)
        out1, out2, out3 = (tmp_path / d for d in ("s1", "s2", "s3"))
        main(["stack", "--config", cfg, "--out", str(out1), "--seed", "7"])
        main(["stack", "--config", cfg, "--out", str(out2), "--seed", "7"])
        main(["stack", "--config", cfg, "--out", str(out3), "--seed", "8"])
        first = (out1 / "stacked.f64").read_bytes()
        assert first == (out2 / "stacked.f64").read_bytes()
        assert first != (out3 / "stacked.f64").read_bytes()
