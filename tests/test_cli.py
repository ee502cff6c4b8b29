"""Command-line front end tests: artifacts, determinism, exit codes."""

import configparser
import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fstack import cli, pipeline
from fstack.cli import main
from fstack.config import DEFAULTS, load_config
from fstack.errors import ConfigError
from fstack.filter_design import estimate_iir_order

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


def _readme_config_block():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"Config file keys and defaults:\s*```ini\n(.*?)```", readme, re.S)
    assert block, "README lost its config key block"
    return block.group(1)


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

    @pytest.mark.parametrize("plan_keys, csv_digest, report_digest", [
        ("", "ac49aa64763ac0f642613852d9649d65928d75613ef5a0b463a1021d676ef2e9",
         "ad326d9fbe76ccdc70ad71e1ae2dd9cefc41b0a7543389bb775870d58d965ffe"),
        ("fc_hz = 610.75e6\nnyquist_zone = 1\n",
         "76595c1a60a14eb8cdcaedf8820162ab0393748743d03e3aa3fb6ff0beaf71be",
         "42fa8745d00cee60bd5105321b73b9fef011d74fdae541a9802bd4a97c335621"),
        ("fc_hz = 1930.75e6\nnyquist_zone = 3\n",
         "aae123b6ad567346479d6dce63be69a706e8576997a00233fce7e35cd2187fb8",
         "1e36b2705bbd91850071f22004cb7076d72f7acb7fed948578ea1b67d0d7ddd2"),
    ], ids=["default", "zone1", "zone3"])
    def test_plan_files_pinned(self, tmp_path, plan_keys, csv_digest, report_digest):
        """The sha256 of ``plan.csv`` and ``plan_report.txt``: every beta,
        centre, offset, band edge and margin to the last digit.  Zones 1
        and 3 sample with s = -1, which the default zone 2 never takes."""
        path = tmp_path / "plan.ini"
        path.write_text("[plan]\n" + plan_keys)
        assert main(["plan", "--config", str(path), "--out", str(tmp_path)]) == 0
        for name, digest in (("plan.csv", csv_digest), ("plan_report.txt", report_digest)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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

    def test_default_csv_pinned(self, tmp_path):
        """The sha256 of the default config's ``complexity.csv``: the swept N
        grid, its guardband schedule and every cost, to the last digit."""
        assert main(["estimate", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "complexity.csv").read_bytes()).hexdigest()
        assert digest == "fbfa4bc1103c4bc417da60fdb808c8e88b1bc89b01e89c3e0c96d6f8e88edf4c"


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

    def test_default_signal_pinned(self, tmp_path):
        """The default config's ``stacked.f64`` to the last bit, and its
        sidecar line for line."""
        assert main(["stack", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "stacked.f64").read_bytes()).hexdigest()
        assert digest == "ca3f77f6f00bde706cf3a56ef7327f2013f5ca766d284b3fa9903238a73da350"
        assert (tmp_path / "stacked.f64.meta").read_text(encoding="utf-8").splitlines() == [
            "rate_hz=1280000000", "domain=real", "length=983040", "label=stacked:fdm",
        ]


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

    def test_too_short_input_exits_4(self, tmp_path, capsys):
        # the mini pipeline needs about 8 400 samples to reach steady state
        cfg = write_mini(tmp_path, **{"num_samples = 64000": "num_samples = 4000"})
        assert main(["run", "--config", cfg]) == 4
        assert "too short" in capsys.readouterr().err

    def test_silent_compared_span_exits_4(self, tmp_path, capsys, monkeypatch):
        # a stimulus silent after its first 4 000 samples has no relative MSE
        def silent_tail(*args):
            stimulus = pipeline.build_stimulus(*args)
            stimulus.samples[4000:] = 0.0
            return stimulus

        monkeypatch.setattr(cli, "build_stimulus", silent_tail)
        cfg = write_mini(tmp_path)
        assert main(["run", "--config", cfg]) == 4
        assert "silent over the compared span" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()

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
        assert re.search(r"branch fits +: 4 sections per branch, \d+-\d+ Gauss-Newton steps",
                         report)

    def test_order_search_steps_past_the_estimate(self, tmp_path):
        # at 160 dB the mini spec's estimate is 16 sections per branch; the
        # search steps to 18, the first order that passes
        cfg = load_config(write_mini(tmp_path, **{"stopband_db = 50": "stopband_db = 160"}))
        proto = pipeline.build_coarse_prototype(cfg, pipeline.build_plan(cfg), "iir")
        spec = proto.spec
        assert estimate_iir_order(spec.stopband_ripple, spec.delta_f, spec.num_branches) == 16
        assert proto.sections_per_branch == 18 and proto.design_report.ok

    def test_design_failure_exit_code(self, tmp_path, capsys):
        # the guarded stopband saturates near 250 dB: no order within the search's cap
        cfg = write_mini(tmp_path, **{"stopband_db = 50": "stopband_db = 400"})
        assert main(["design", "--config", cfg]) == 3
        assert "error: design" in capsys.readouterr().err


class TestFineStandard:
    @pytest.mark.parametrize("standard, n_f", [("custom", 64), ("gmr2", 1280), ("gmr1", 2048)])
    def test_standard_alone_selects_fine_grid(self, standard, n_f):
        cfg = load_config(overrides={"fine.standard": standard})
        assert pipeline.build_channel_plan(cfg).channels_per_subband == n_f

    @pytest.mark.parametrize("standard", ["gmr1", "gmr2"])
    def test_granularity_set_with_gmr_standard_rejected(self, tmp_path, capsys, standard):
        # a file and an override each used to pass and then be ignored
        cfg = write_mini(tmp_path, **{"standard = custom": f"standard = {standard}"})
        assert main(["plan", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "fine.granularity_hz" in err and f"fine.standard = {standard}" in err
        with pytest.raises(ConfigError, match="fine.granularity_hz.*fine.standard"):
            load_config(overrides={"fine.standard": standard, "fine.granularity_hz": "2e6"})

    def test_default_granularity_accepted_with_gmr_standard(self, tmp_path):
        default = DEFAULTS["fine"]["granularity_hz"]
        cfg = write_mini(tmp_path, **{"standard = custom": "standard = gmr2",
                                      "granularity_hz = 40e6": f"granularity_hz = {default}"})
        assert main(["plan", "--config", cfg]) == 0
        assert load_config(cfg).granularity_hz == 50e3


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[plan]\nfs_hz = 10\nwarp_factor = 9\n")
        assert main(["plan", "--config", str(path)]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_all_bad_values_enumerated(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[plan]\nfs_hz = zero\nnyquist_zone = 0\n[coarse]\nstopband_db = -3\n"
        )
        assert main(["plan", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        for key in ("plan.fs_hz", "plan.nyquist_zone", "coarse.stopband_db"):
            assert key in err

    def test_removed_order_key_rejected(self, tmp_path, capsys):
        # the search sizes the recursive design; its order is no setting
        cfg = write_mini(tmp_path, **{"prototype = iir": "prototype = iir\nn_fos = 6"})
        assert main(["design", "--config", cfg]) == 2
        assert "'n_fos'" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("fs_hz = 1280e6", "fs_hz = inf"),
        ("stopband_db = 50", "stopband_db = inf"),
        ("num_samples = 64000", "num_samples = 64000\nsnr_db = nan"),
        ("num_samples = 64000", "num_samples = 64000\nsnr_db = -inf"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, old, new):
        cfg = write_mini(tmp_path, **{old: new})
        assert main(["run", "--config", cfg]) == 2
        key = new.rpartition("\n")[2].partition(" =")[0]
        assert f"{key}: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_non_finite_numbers_enumerated(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[plan]\nfs_hz = inf\n[coarse]\nstopband_db = -inf\n"
                        "[sim]\nsnr_db = nan\n")
        assert main(["plan", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        for key in ("plan.fs_hz", "coarse.stopband_db", "sim.snr_db"):
            assert f"{key}: " in err and "is not a finite number" in err
        # a blank SNR still means no noise, and a blank FIR stopband is stopband_db
        assert load_config(overrides={"sim.snr_db": ""}).snr_db is None
        assert load_config(overrides={"coarse.fir_stopband_db": ""}).fir_stopband_db == 66.5

    @pytest.mark.parametrize("occupied, outside", [("0 1 2", "0 2"), ("1, 17", "17")])
    def test_occupied_subband_out_of_range_rejected(self, tmp_path, capsys, monkeypatch,
                                                     occupied, outside):
        # the mini plan has sub-band 1 alone; the index check runs before any design
        built = []
        monkeypatch.setattr(pipeline, "build_coarse_prototype", lambda *args: built.append(args))
        cfg = write_mini(tmp_path, **{"occupied_subbands = all": f"occupied_subbands = {occupied}"})
        assert main(["run", "--config", cfg]) == 2
        assert f"sim.occupied_subbands: {outside} out of range [1, 1]" in capsys.readouterr().err
        assert built == []
        with pytest.raises(ConfigError, match=r"coarse\.stopband_db.*; sim\.occupied_subbands"):
            load_config(cfg, {"coarse.stopband_db": "-3"})

    @pytest.mark.parametrize("command", ["run", "sweep", "stack"])
    def test_blank_occupied_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # a selection of no sub-band is a config error, raised before any design
        built = []
        for name in ("build_coarse_prototype", "build_fine_prototype"):
            monkeypatch.setattr(pipeline, name, lambda *args: built.append(args))
        cfg = write_mini(tmp_path, **{"occupied_subbands = all": "occupied_subbands ="})
        assert main([command, "--config", cfg]) == 2
        assert "sim.occupied_subbands: '' names no sub-band" in capsys.readouterr().err
        assert built == [] and not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="sim.occupied_subbands: ',' names no sub-band"):
            load_config(overrides={"sim.occupied_subbands": " , "})

    @pytest.mark.parametrize("command", ["run", "sweep", "stack"])
    def test_repeated_occupied_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # a repeated index is a config error on every command, raised before any design
        built = []
        for name in ("build_coarse_prototype", "build_fine_prototype"):
            monkeypatch.setattr(pipeline, name, lambda *args: built.append(args))
        cfg = write_mini(tmp_path, **{"occupied_subbands = all": "occupied_subbands = 1 1"})
        assert main([command, "--config", cfg]) == 2
        assert "sim.occupied_subbands: 1 repeated" in capsys.readouterr().err
        assert built == [] and not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match=r"sim\.occupied_subbands: 3 5 repeated"):
            load_config(overrides={"sim.occupied_subbands": "5 3, 5 1 3"})
        assert load_config(overrides={"sim.occupied_subbands": "5 3 1"}).occupied_subbands \
            == (5, 3, 1)

    @pytest.mark.parametrize("command", ["run", "stack"])
    @pytest.mark.parametrize("num_samples", ["0", "3"])
    def test_num_samples_below_one_frame_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 command, num_samples):
        # the mini plan's coarse frame is 2 * 2 = 4 samples
        built = []
        for name in ("build_coarse_prototype", "build_fine_prototype"):
            monkeypatch.setattr(pipeline, name, lambda *args: built.append(args))
        cfg = write_mini(tmp_path, **{"num_samples = 64000": f"num_samples = {num_samples}"})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"sim.num_samples: '{num_samples}' out of range (>= 4, one coarse frame" in err
        assert built == [] and not (tmp_path / "out").exists()
        assert load_config(cfg, {"sim.num_samples": "4"}).num_samples == 4
        # listed with the other bad keys
        with pytest.raises(ConfigError, match=r"coarse\.stopband_db.*; sim\.num_samples"):
            load_config(overrides={"coarse.stopband_db": "-3", "sim.num_samples": "19"})

    @pytest.mark.parametrize("command", ["plan", "design", "run"])
    def test_ripple_with_no_linear_meaning_exits_2(self, tmp_path, capsys, command):
        # 12.1 dB peak to peak is a linear deviation of 10^(12.1/40) - 1 = 1.0068;
        # the range ends at 40*log10(2) = 12.0412 dB, where it reaches 1
        cfg = write_mini(tmp_path, **{"passband_ripple_db = 0.01": "passband_ripple_db = 12.1"})
        assert main([command, "--config", cfg]) == 2
        assert "coarse.passband_ripple_db: '12.1' out of range (0, 12.0412)" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert load_config(cfg, {"coarse.passband_ripple_db": "12.0"}).passband_ripple_db == 12.0

    @pytest.mark.parametrize("command", ["plan", "design", "run"])
    @pytest.mark.parametrize("mini, bad, error", [
        ("granularity_hz = 40e6", "granularity_hz = 30e6",  # 320 MHz / 30 MHz = 10.67
         "fine.granularity_hz: granularity 30000000.0 does not divide the sub-band rate 320000000.0"),
        ("granularity_hz = 40e6", "granularity_hz = 1e-320",  # the ratio overflows to inf
         "fine.granularity_hz: granularity 1e-320 does not divide the sub-band rate 320000000.0"),
        ("bandwidth_hz = 240e6", "bandwidth_hz = 330e6",
         "plan.bandwidth_hz: sub-band bandwidth 330000000.0 must fit one coarse channel "
         "(320000000.0)"),
    ], ids=["grid", "tiny_grid", "bandwidth"])
    def test_rules_of_several_keys_exit_2(self, tmp_path, capsys, command, mini, bad, error):
        # each key is valid on its own; only the sub-band rate f_s / N rejects it
        cfg = write_mini(tmp_path, **{mini: bad})
        assert main([command, "--config", cfg]) == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_config_block_matches_defaults(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(_readme_config_block())
        documented = {sec: dict(parser.items(sec)) for sec in parser.sections()}
        assert documented == DEFAULTS

    def test_readme_config_block_loads_as_defaults(self, tmp_path):
        path = tmp_path / "readme.ini"
        path.write_text(_readme_config_block())
        assert load_config(str(path)) == load_config(None)

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


def test_commands_that_design_nothing_leave_scipy_signal_unloaded(tmp_path):
    # plan, estimate and stack need numpy and scipy.fft only; scipy.signal
    # alone takes about 1 s to import
    code = f"""
        import sys
        from fstack.cli import main
        for command in ("plan", "estimate", "stack"):
            assert main([command, "--out", {str(tmp_path)!r}]) == 0
        print("scipy.signal" in sys.modules)
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
