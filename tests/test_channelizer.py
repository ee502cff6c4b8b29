"""Two-stage pipeline tests: stage behavior, transparency, impairments."""

import dataclasses
import math
import time

import numpy as np
import pytest

from fstack.channelizer import (
    ChannelPlan,
    coarse_analyze,
    coarse_synthesize,
    end_to_end,
    find_delay,
    fine_analyze,
    fine_synthesize,
    gmr_channel_plan,
    aligned_mse,
    pipeline_warmup_samples,
)
from fstack.config import load_config
from fstack.errors import ConfigError, InvalidSpecError, RateMismatchError
from fstack import polyphase
from fstack.filter_design import FirPrototype
from fstack.frontend import SignalBuffer, add_awgn
from fstack.pipeline import (
    build_channel_plan,
    build_fine_prototype,
    build_pipeline_config,
    build_plan,
    build_stimulus,
)
from fstack.polyphase import matched_cascade_delay

SUBBAND_RATE = 64e6


class TestChannelPlan:
    def test_gmr_grids(self):
        assert gmr_channel_plan("gmr1", SUBBAND_RATE).channels_per_subband == 2048
        assert gmr_channel_plan("gmr2", SUBBAND_RATE).channels_per_subband == 1280

    def test_desk_scale_grid(self):
        plan = ChannelPlan("custom", 1e6, SUBBAND_RATE)
        assert plan.channels_per_subband == 64

    def test_non_integer_grid_rejected(self):
        with pytest.raises(InvalidSpecError):
            ChannelPlan("custom", 3e6, SUBBAND_RATE)

    def test_guardband_cap(self):
        with pytest.raises(InvalidSpecError):
            ChannelPlan("custom", 1e6, SUBBAND_RATE, guardband_fraction=0.2)


class TestConfig:
    def test_reserved_channels_guarded(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        with pytest.raises(ConfigError):
            type(pipe)(
                plan=pipe.plan,
                coarse_prototype=pipe.coarse_prototype,
                fine_prototype=pipe.fine_prototype,
                channel_plan=pipe.channel_plan,
                occupied_subbands=(0, 1, 2),
            )

    def test_channel_count_bookkeeping(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        n_f = pipe.channel_plan.channels_per_subband
        assert pipe.total_fine_channels_occupied == 9 * n_f
        assert pipe.total_fine_channels_nominal == 10 * n_f


class TestCoarseStage:
    def test_zero_input_gives_zero_streams(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stacked = SignalBuffer(np.zeros(20 * 64), pipe.plan.inputs.f_s, "real")
        subs = coarse_analyze(pipe, stacked)
        for buf in subs.values():
            np.testing.assert_array_equal(buf.samples, 0.0)

    def test_rate_mismatch_rejected(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        with pytest.raises(RateMismatchError):
            coarse_analyze(pipe, SignalBuffer(np.zeros(400), 1e6, "real"))

    def test_unequal_stream_lengths_rejected(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        rate = pipe.subband_rate_hz
        subs = {1: SignalBuffer(np.zeros(64, dtype=complex), rate, "complex"),
                2: SignalBuffer(np.zeros(63, dtype=complex), rate, "complex")}
        with pytest.raises(ConfigError, match="one length"):
            coarse_synthesize(pipe, subs)

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_restack_matches_complex_synthesis(self, pipelines, kind):
        """The restack's real-data branches against the complex synthesis they replace.

        The all-pass sections see the same real part, so the IIR restack
        is bit-identical; the FIR branches swap a complex transform for a
        real one.
        """
        pipe = pipelines["pipes"][kind]
        n = pipe.num_coarse_channels
        stacked = pipelines["stimulus"]
        subs = coarse_analyze(pipe, SignalBuffer(stacked.samples[: n * 4096], stacked.rate_hz, "real"))
        frames = np.zeros((4096, n), dtype=complex)
        for sub, buf in subs.items():
            frames[:, sub] = buf.samples
            frames[:, n - sub] = np.conj(buf.samples)
        complex_path = np.real(polyphase.SynthesisBank(pipe.coarse_prototype).process_block(frames))
        restacked = coarse_synthesize(pipe, subs).samples
        assert restacked.dtype == float
        if kind == "iir":
            np.testing.assert_array_equal(restacked, complex_path)
        else:
            np.testing.assert_allclose(restacked, complex_path, rtol=0,
                                       atol=1e-12 * np.max(np.abs(complex_path)))

    def test_nine_subbands_extracted(self, pipelines, float_reports):
        leak = float_reports["iir"].per_channel_leakage_db
        assert sorted(leak) == list(range(20))
        # occupied sub-bands (and their conjugate images) carry comparable
        # power; the reserved DC and Nyquist channels stay deeply attenuated
        for ch in list(range(1, 10)) + list(range(11, 20)):
            assert leak[ch] > -3.0
        assert leak[0] <= -49.0
        assert leak[10] <= -49.0

    def test_single_occupied_subband_leakage(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        plan = pipe.plan
        from fstack.frontend import generate_subband_signal, stack_baseband_equivalent

        el = generate_subband_signal(5, plan, 1 << 12, seed=77)
        stacked = stack_baseband_equivalent([el], plan)
        subs = coarse_analyze(pipe, stacked)
        skip = 40 * matched_cascade_delay(pipe.coarse_prototype) // 20
        powers = {
            sub: np.mean(np.abs(buf.samples[skip:]) ** 2) for sub, buf in subs.items()
        }
        for sub, p in powers.items():
            if sub == 5:
                continue
            assert 10 * math.log10(p / powers[5] + 1e-300) <= -49.0

    def test_round_trip_transparency(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stacked = pipelines["stimulus"]
        subs = coarse_analyze(pipe, stacked)
        back = coarse_synthesize(pipe, subs)
        delay = matched_cascade_delay(pipe.coarse_prototype)
        trim = 4 * delay
        mse, rel = aligned_mse(stacked.samples, back.samples, delay, trim=trim)
        assert rel <= 1e-5

    def test_single_tone_round_trip_keeps_frequency(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        f_s = pipe.plan.inputs.f_s
        f0 = pipe.plan.centre(3) + 5e6
        t = np.arange(20 * 4096)
        x = SignalBuffer(np.cos(2 * np.pi * f0 / f_s * t), f_s, "real")
        back = coarse_synthesize(pipe, coarse_analyze(pipe, x))
        spectrum = np.abs(np.fft.rfft(back.samples * np.hanning(len(back))))
        freqs = np.fft.rfftfreq(len(back), d=1.0 / f_s)
        assert abs(freqs[np.argmax(spectrum)] - f0) <= f_s / len(back)


class TestFineStage:
    def test_tone_lands_in_fine_channel(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        n_f = pipe.channel_plan.channels_per_subband
        k = 7
        t = np.arange(n_f * 800)
        tone = np.exp(2j * np.pi * (k / n_f) * t)
        sub = SignalBuffer(tone, SUBBAND_RATE, "complex")
        channels = fine_analyze(pipe, sub)
        power = np.mean(np.abs(channels[200:]) ** 2, axis=0)
        rel_db = 10 * np.log10(power / power[k] + 1e-300)
        assert np.max(np.delete(rel_db, k)) <= -49.0

    def test_round_trip(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stacked = pipelines["stimulus"]
        sub = coarse_analyze(pipe, stacked)[4]
        rebuilt = fine_synthesize(pipe, fine_analyze(pipe, sub))
        delay = matched_cascade_delay(pipe.fine_prototype)
        mse, rel = aligned_mse(sub.samples, rebuilt.samples, delay, trim=2 * delay + 512)
        assert rel <= 1e-5

    def test_rate_mismatch_rejected(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        with pytest.raises(RateMismatchError):
            fine_analyze(pipe, SignalBuffer(np.zeros(128, complex), 1e6, "complex"))


@pytest.mark.slow
class TestFullScaleSmoke:
    def test_gmr2_fine_grid(self, ref_cfg, pipelines):
        """Full-scale GMR-2 grid: 1280 channels per sub-band, short input."""
        plan = gmr_channel_plan("gmr2", SUBBAND_RATE)
        assert plan.channels_per_subband == 1280
        fine = build_fine_prototype(ref_cfg, plan)
        rng = np.random.default_rng(3)
        n_f = 1280
        x = SignalBuffer(
            rng.standard_normal(8 * n_f) + 1j * rng.standard_normal(8 * n_f),
            SUBBAND_RATE, "complex",
        )
        pipe = pipelines["pipes"]["iir"]
        cfg_full = type(pipe)(
            plan=pipe.plan,
            coarse_prototype=pipe.coarse_prototype,
            fine_prototype=fine,
            channel_plan=plan,
            occupied_subbands=pipe.occupied_subbands,
        )
        channels = fine_analyze(cfg_full, x)
        assert channels.shape == (8, 1280)
        rebuilt = fine_synthesize(cfg_full, channels)
        assert len(rebuilt) == 8 * 1280

    def test_gmr2_end_to_end(self, pipelines):
        """The full-scale GMR-2 study, IIR coarse candidate, locks onto its delay.

        num_samples is the next multiple of N * N_f at or above the
        expected delay plus the warm-up.  The budget keeps 2x headroom
        over the measured 4.5-5.5 s (2 vCPUs) of fine design, stimulus and
        pipeline pass.
        """
        start = time.perf_counter()
        cfg = load_config(overrides={"fine.standard": "gmr2", "sim.num_samples": 7_142_400})
        cfg.full_scale_fine = True
        channel_plan = build_channel_plan(cfg)
        assert channel_plan.channels_per_subband == 1280
        pipe = dataclasses.replace(
            pipelines["pipes"]["iir"], channel_plan=channel_plan,
            fine_prototype=build_fine_prototype(cfg, channel_plan))
        stimulus = build_stimulus(cfg, pipe.plan, channel_plan, pipe.occupied_subbands)
        report = end_to_end(pipe, stimulus)
        elapsed = time.perf_counter() - start
        assert pipe.expected_delay_samples() == 2_304_539
        assert report.aligned_delay == pipe.expected_delay_samples()
        assert 0.0 < report.mse_over_signal <= 1e-5
        assert elapsed < 20.0, f"{elapsed:.1f} s against a 20 s budget"


class TestEndToEnd:
    def test_float_transparency_both_candidates(self, float_reports):
        for kind, report in float_reports.items():
            assert report.mse_over_signal <= 1e-5, kind

    def test_channel_totals_reported(self, float_reports):
        extras = float_reports["iir"].extras
        assert extras["fine_channels_occupied"] == 9 * 64
        assert extras["fine_channels_nominal"] == 10 * 64

    def test_candidates_within_factor_two(self, float_reports):
        values = [rep.mse_over_signal for rep in float_reports.values()]
        assert max(values) <= 2.0 * min(values)

    def test_delay_matches_theory(self, pipelines, float_reports):
        for kind, report in float_reports.items():
            expected = pipelines["pipes"][kind].expected_delay_samples()
            assert report.aligned_delay == expected

    @pytest.mark.parametrize(
        "channels, fs_hz, fc_hz",
        [
            (7, 1400e6, 1650.75e6),  # N = 14, prime factor 7
            (11, 2200e6, 2170.75e6),  # N = 22, prime factor 11
        ],
        ids=["n14", "n22"],
    )
    def test_fir_pipeline_at_other_even_n(self, channels, fs_hz, fc_hz):
        """A small FIR-candidate pipeline at N = 14 and 22 lands on its delay."""
        cfg = load_config(overrides={
            "plan.num_coarse_channels": channels, "plan.fs_hz": fs_hz,
            "plan.fc_hz": fc_hz, "plan.bandwidth_hz": 75e6,
            "coarse.prototype": "fir", "coarse.fir_stopband_db": 55,
            "coarse.passband_ripple_db": 0.01,
            "fine.granularity_hz": 12.5e6, "sim.num_samples": 200_000,
        })
        plan = build_plan(cfg)
        channel_plan = build_channel_plan(cfg)
        pipe = build_pipeline_config(cfg, "fir", plan, channel_plan)
        assert pipe.num_coarse_channels == 2 * channels
        report = end_to_end(pipe, build_stimulus(cfg, plan, channel_plan, pipe.occupied_subbands))
        assert report.aligned_delay == pipe.expected_delay_samples()
        assert report.mse_over_signal < 1e-4

    @pytest.mark.parametrize(
        "channels, fs_hz, fc_hz",
        [
            (7, 1400e6, 1650.75e6),  # N = 14, prime factor 7
            (11, 2200e6, 2170.75e6),  # N = 22, prime factor 11
        ],
        ids=["n14", "n22"],
    )
    def test_iir_pipeline_at_other_even_n(self, channels, fs_hz, fc_hz):
        """A small IIR-candidate pipeline at N = 14 and 22 lands on its delay."""
        cfg = load_config(overrides={
            "plan.num_coarse_channels": channels, "plan.fs_hz": fs_hz,
            "plan.fc_hz": fc_hz, "plan.bandwidth_hz": 75e6,
            "coarse.prototype": "iir", "coarse.n_fos": 6, "coarse.stopband_db": 55,
            "coarse.passband_ripple_db": 0.01,
            "fine.granularity_hz": 12.5e6, "sim.num_samples": 200_000,
        })
        plan = build_plan(cfg)
        channel_plan = build_channel_plan(cfg)
        pipe = build_pipeline_config(cfg, "iir", plan, channel_plan)
        assert pipe.num_coarse_channels == 2 * channels
        report = end_to_end(pipe, build_stimulus(cfg, plan, channel_plan, pipe.occupied_subbands))
        assert report.aligned_delay == pipe.expected_delay_samples()
        assert report.mse_over_signal < 1e-4

    def test_coarse_fir_spectrum_built_once_per_data_kind(
        self, pipelines, float_reports, monkeypatch
    ):
        """Real coarse analysis and real coarse synthesis share the real-data entry.

        Both coarse banks run on real data and pick one transform length
        here, so two passes build the tap spectrum once.
        """
        pipe = pipelines["pipes"]["fir"]
        coarse = FirPrototype(pipe.coarse_prototype.coefficients, pipe.coarse_prototype.spec)
        pipe = dataclasses.replace(pipe, coarse_prototype=coarse)  # an empty cache
        built = []
        fir_taps = polyphase._fir_taps
        monkeypatch.setattr(polyphase, "_fir_taps", lambda p: built.append(p) or fir_taps(p))
        reports = [end_to_end(pipe, pipelines["stimulus"]) for _ in range(2)]
        assert sum(p is coarse for p in built) == 1
        assert set(coarse._tap_spectrum) == {True}
        for report in reports:
            assert report.aligned_delay == float_reports["fir"].aligned_delay
            assert report.mse_over_signal == float_reports["fir"].mse_over_signal

    def test_stage_composability(self, pipelines, float_reports):
        """Each stage's own round trip stays within 2x of the composed MSE."""
        pipe = pipelines["pipes"]["iir"]
        stacked = pipelines["stimulus"]
        composed = float_reports["iir"].mse_over_signal

        subs = coarse_analyze(pipe, stacked)
        back = coarse_synthesize(pipe, subs)
        d_c = matched_cascade_delay(pipe.coarse_prototype)
        _, coarse_rel = aligned_mse(stacked.samples, back.samples, d_c, trim=4 * d_c)

        sub = subs[4]
        rebuilt = fine_synthesize(pipe, fine_analyze(pipe, sub))
        d_f = matched_cascade_delay(pipe.fine_prototype)
        _, fine_rel = aligned_mse(sub.samples, rebuilt.samples, d_f, trim=2 * d_f + 512)

        assert coarse_rel <= 2.0 * composed
        assert fine_rel <= 2.0 * composed

    def test_awgn_dominates_at_35db(self, pipelines):
        """Pipeline output error at 35 dB SNR equals the noise that the
        channelizer passes, measured by running the pipeline on the noise
        alone (pass-through oracle)."""
        pipe = pipelines["pipes"]["iir"]
        stimulus = pipelines["stimulus"]
        seed = 4242
        report = end_to_end(pipe, stimulus, snr_db=35.0, seed=seed)

        noisy = add_awgn(stimulus, 35.0, seed=seed)
        noise = SignalBuffer(
            noisy.samples - stimulus.samples, stimulus.rate_hz, "real"
        )
        subs = coarse_analyze(pipe, noise)
        processed = {
            sub: fine_synthesize(pipe, fine_analyze(pipe, buf))
            for sub, buf in subs.items()
        }
        shortest = min(len(b) for b in processed.values())
        for sub, buf in processed.items():
            processed[sub] = SignalBuffer(buf.samples[:shortest], buf.rate_hz, "complex")
        passed = coarse_synthesize(pipe, processed)
        warm = pipeline_warmup_samples(pipe)
        passed_power = float(np.mean(passed.samples[warm:] ** 2))

        measured = report.mse_over_signal * stimulus.power
        assert abs(10 * math.log10(measured / passed_power)) <= 1.0

    def test_zero_stimulus_short_circuit(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        zero = SignalBuffer(np.zeros(0), pipe.plan.inputs.f_s, "real")
        report = end_to_end(pipe, zero)
        assert report.mse == 0.0 and report.mse_over_signal == 0.0

    def test_too_short_input_rejected(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stim = pipelines["stimulus"]
        needed = pipe.expected_delay_samples() + pipeline_warmup_samples(pipe)
        short = SignalBuffer(stim.samples[:300_000], stim.rate_hz, "real")
        assert len(short) < needed
        with pytest.raises(InvalidSpecError, match=rf"\b300000\b.*\b{needed}\b"):
            end_to_end(pipe, short)

    def test_adc_path_reports_quantization(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stim = pipelines["stimulus"]
        short = SignalBuffer(stim.samples[: 640 * 1280], stim.rate_hz, "real")
        report = end_to_end(pipe, short, adc_bits=12)
        assert report.extras["adc_bits"] == 12
        assert report.mse_over_signal < 1e-4  # 12-bit floor, still small


class TestDelayEstimator:
    def test_known_shift_recovered(self, rng):
        x = rng.standard_normal(4096)
        y = np.concatenate([np.zeros(137), x])
        assert find_delay(x, y) == 137

    @pytest.mark.parametrize(
        "ref_size, out_size, max_lag",
        [
            (200, 300, None),
            (200, 300, 0),
            (200, 300, 17),
            (200, 300, 150),
            (200, 300, 5000),  # clamped to out_size - 1
            (64, 400, 40),  # out_size > ref_size + max_lag
            (300, 120, None),  # out_size < ref_size
            (300, 120, 33),
            (1, 25, None),
        ],
    )
    def test_matches_explicit_correlation(self, ref_size, out_size, max_lag, rng):
        for _ in range(4):
            ref = rng.standard_normal(ref_size)
            out = rng.standard_normal(out_size)
            # np.correlate "full" index i is lag i - (ref_size - 1)
            corr = np.correlate(out, ref, mode="full")[ref_size - 1 :]
            window = out_size if max_lag is None else max_lag + 1
            expected = int(np.argmax(np.abs(corr[:window])))
            assert find_delay(ref, out, max_lag=max_lag) == expected

    @pytest.mark.parametrize("case", ["j_times_real", "complex_both", "complex_ref"])
    def test_complex_input_keeps_imaginary_part(self, case, rng):
        x = rng.standard_normal(2048)
        z = x + 1j * rng.standard_normal(2048)
        ref, tail = {
            "j_times_real": (x, 1j * x),
            "complex_both": (z, z),
            "complex_ref": (z, x),
        }[case]
        out = np.concatenate([np.zeros(37), tail, np.zeros(11)])
        assert find_delay(ref, out) == 37
        assert find_delay(ref, out, max_lag=60) == 37

    @pytest.mark.parametrize(
        "ref_size, out_size, max_lag", [(200, 300, None), (200, 300, 17), (300, 120, 33)]
    )
    def test_complex_matches_explicit_correlation(self, ref_size, out_size, max_lag, rng):
        for _ in range(4):
            ref = rng.standard_normal(ref_size) + 1j * rng.standard_normal(ref_size)
            out = rng.standard_normal(out_size) + 1j * rng.standard_normal(out_size)
            # np.correlate conjugates its second argument
            corr = np.correlate(out, ref, mode="full")[ref_size - 1 :]
            window = out_size if max_lag is None else max_lag + 1
            expected = int(np.argmax(np.abs(corr[:window])))
            assert find_delay(ref, out, max_lag=max_lag) == expected

    def test_empty_lag_window_rejected(self, rng):
        x = rng.standard_normal(64)
        with pytest.raises(InvalidSpecError):
            find_delay(x, np.zeros(0))
        with pytest.raises(InvalidSpecError):
            find_delay(x, x, max_lag=-1)

    def test_insufficient_overlap_rejected(self, rng):
        x = rng.standard_normal(64)
        with pytest.raises(InvalidSpecError):
            aligned_mse(x, x, 60, trim=10)
