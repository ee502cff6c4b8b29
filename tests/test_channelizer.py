"""Two-stage pipeline tests: stage behavior, transparency, impairments."""

import collections
import dataclasses
import hashlib
import math
import os
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from fstack.channelizer import (
    DELAY_SEARCH_SPAN,
    ChannelPlan,
    coarse_analyze,
    coarse_synthesize,
    end_to_end,
    find_delay,
    fine_analyze,
    fine_synthesize,
    aligned_mse,
    impair,
    measure,
    pipeline_warmup_samples,
)
from fstack.config import load_config
from fstack.errors import ConfigError, InvalidSpecError, PlanningError, RateMismatchError
from fstack import channelizer, pipeline, polyphase
from fstack.filter_design import (
    FirPrototype,
    design_fir_equiripple,
    export_coefficients,
    measure_fir,
)
from fstack.frontend import AdcModel, SignalBuffer, adc_quantize, add_awgn
from fstack.pipeline import (
    build_candidate_configs,
    build_channel_plan,
    build_fine_prototype,
    build_pipeline_config,
    build_plan,
    build_stimulus,
)
from fstack.polyphase import matched_cascade_delay
from tests.test_polyphase import on_cpus

SUBBAND_RATE = 64e6


def _fir_pipeline_at(channels, fs_hz, fc_hz):
    """A small FIR-candidate pipeline with 2 * ``channels`` coarse channels and its stimulus."""
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
    return pipe, build_stimulus(cfg, plan, channel_plan, pipe.occupied_subbands)


# the stages of one pass, each from its boundary in ``channelizer``: the
# start, the ``coarse_analyze`` call (the power table included), the
# outer ``run_blocks`` call, its return, the ``find_delay`` call and its
# return (``aligned_mse``)
PASS_STAGES = ("impair", "coarse analysis", "fine stage", "coarse synthesis",
               "delay search", "MSE")


def stage_peaks(monkeypatch, run):
    """Call ``run()``, one pass, under ``tracemalloc``; the peak bytes of each stage.

    A stage's peak counts from the traced memory at the start, so it is
    what the pass holds at that stage's high-water mark.  A boundary is
    crossed only from the stage before it: the ``run_blocks`` call inside
    ``find_delay`` stays in the delay search.
    """
    peaks, at = {}, [0]

    def advance(to):
        if at[0] == to - 1:
            peaks[PASS_STAGES[at[0]]] = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            at[0] = to

    for name, start, end in (("coarse_analyze", 1, None), ("run_blocks", 2, 3),
                             ("find_delay", 4, 5)):
        def staged(*args, _inner=getattr(channelizer, name), _start=start, _end=end,
                   **kwargs):
            advance(_start)
            result = _inner(*args, **kwargs)
            if _end is not None:
                advance(_end)
            return result

        monkeypatch.setattr(channelizer, name, staged)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peaks[PASS_STAGES[at[0]]] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peaks


class TestChannelPlan:
    def test_gmr_grids(self):
        # the config resolves each standard to its grid; build_channel_plan reads the grid alone
        for standard, granularity, n_f in (("gmr1", 31.25e3, 2048), ("gmr2", 50e3, 1280)):
            cfg = load_config(overrides={"fine.standard": standard})
            assert cfg.granularity_hz == granularity
            channel_plan = build_channel_plan(cfg)
            assert channel_plan == ChannelPlan(granularity, SUBBAND_RATE)
            assert channel_plan.channels_per_subband == n_f

    def test_desk_scale_grid(self):
        plan = ChannelPlan(1e6, SUBBAND_RATE)
        assert plan.channels_per_subband == 64

    def test_non_integer_grid_rejected(self):
        with pytest.raises(InvalidSpecError):
            ChannelPlan(3e6, SUBBAND_RATE)

    def test_guardband_cap(self):
        with pytest.raises(InvalidSpecError):
            ChannelPlan(1e6, SUBBAND_RATE, guardband_fraction=0.2)


class TestFinePrototype:
    """Desk-grid fine prototypes: an equiripple base at min(8, N_f) branches, stretched."""

    @pytest.mark.parametrize("n_f, guard", [
        (2, 0.1), (4, 0.1), (8, 0.1), (16, 0.1), (64, 0.1), (8, 0.05), (16, 0.05), (32, 0.05),
    ])
    def test_stretch_meets_spec(self, ref_cfg, n_f, guard):
        channel_plan = ChannelPlan(SUBBAND_RATE / n_f, SUBBAND_RATE, guard)
        proto = build_fine_prototype(ref_cfg, channel_plan)
        spec = proto.spec
        pass_dev, stop_max = measure_fir(proto.coefficients, spec)
        assert pass_dev <= spec.passband_ripple and stop_max <= spec.stopband_ripple
        assert proto.design_report.ok and proto.design_report.length == proto.length
        taps = proto.coefficients
        np.testing.assert_allclose(taps, taps[::-1], rtol=0, atol=1e-13 * np.max(np.abs(taps)))
        n0 = min(8, n_f)
        base = design_fir_equiripple(dataclasses.replace(
            spec, sample_rate_hz=spec.sample_rate_hz * (n0 / n_f), num_branches=n0))
        assert proto.length == base.length // n0 * n_f
        if n_f <= 8:  # designed directly: the stretch changes nothing
            direct = design_fir_equiripple(spec).coefficients
            np.testing.assert_allclose(taps, direct, rtol=0, atol=1e-14 * np.max(np.abs(direct)))


class TestConfig:
    def test_reserved_channels_guarded(self, pipelines):
        # only the plan's sub-bands 1..N/2-1: channels 0 and N/2 are
        # reserved, and channel N-s of the real input is channel s mirrored
        pipe = pipelines["pipes"]["iir"]
        n = pipe.num_coarse_channels
        for sub in (0, n // 2, n - 3, n):
            with pytest.raises(ConfigError, match=rf"\[{sub}\] outside the plan's 1\.\.{n // 2 - 1}$"):
                dataclasses.replace(pipe, occupied_subbands=(1, sub, 2))

    def test_non_integer_subband_rejected(self, pipelines):
        # 3.0 == 3 would pass the range check and fail later as an index
        pipe = pipelines["pipes"]["iir"]
        with pytest.raises(ConfigError, match=r"\[3\.0\] are not integer indices"):
            dataclasses.replace(pipe, occupied_subbands=(1, 3.0))
        assert dataclasses.replace(pipe, occupied_subbands=(np.int64(3),)).occupied_subbands == (3,)

    def test_config_selection_builds_the_stimulus(self, ref_cfg, pipelines):
        # the config's own selection is every plannable sub-band, never "none"
        assert ref_cfg.occupied_subbands == pipelines["plan"].occupied_subbands
        stimulus = build_stimulus(ref_cfg, pipelines["plan"], pipelines["channel_plan"],
                                  ref_cfg.occupied_subbands)
        assert len(stimulus) == 983_040
        assert np.array_equal(stimulus.samples, pipelines["stimulus"].samples)

    def test_channel_count_bookkeeping(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        n_f = pipe.channel_plan.channels_per_subband
        assert pipe.total_fine_channels_occupied == 9 * n_f
        assert pipe.total_fine_channels_nominal == 10 * n_f


class TestCoarseStage:
    def test_zero_input_gives_zero_streams(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stacked = SignalBuffer(np.zeros(20 * 64), pipe.plan.inputs.f_s)
        frames = coarse_analyze(pipe, stacked)
        assert frames.shape == (64, 11)  # channels 0..N/2
        np.testing.assert_array_equal(frames, 0.0)

    def test_rate_mismatch_rejected(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        with pytest.raises(RateMismatchError):
            coarse_analyze(pipe, SignalBuffer(np.zeros(400), 1e6))

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_restack_matches_complex_synthesis(self, pipelines, kind):
        """The half-width Hermitian restack against the full complex synthesis.

        The restack transforms channels 0..N/2 with ``hfft`` and runs
        the branches on real data, where the complex path transforms all
        N channels and filters complex slots; the two agree to rounding.
        """
        pipe = pipelines["pipes"][kind]
        n = pipe.num_coarse_channels
        stacked = pipelines["stimulus"]
        coarse = coarse_analyze(pipe, SignalBuffer(stacked.samples[: n * 4096], stacked.rate_hz))
        half = np.zeros_like(coarse)
        half[:, 1 : n // 2] = coarse[:, 1 : n // 2]  # the sub-bands, as a restack fills them
        frames = np.zeros((4096, n), dtype=complex)
        frames[:, : n // 2 + 1] = half
        frames[:, n // 2 + 1 :] = np.conj(half[:, 1 : n // 2][:, ::-1])
        complex_path = np.real(polyphase.SynthesisBank(pipe.coarse_prototype).process_block(frames))
        restacked = coarse_synthesize(pipe, half).samples
        assert restacked.dtype == float
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
        frames = coarse_analyze(pipe, stacked)
        skip = 40 * matched_cascade_delay(pipe.coarse_prototype) // 20
        powers = {
            sub: np.mean(np.abs(frames[skip:, sub]) ** 2) for sub in pipe.occupied_subbands
        }
        for sub, p in powers.items():
            if sub == 5:
                continue
            assert 10 * math.log10(p / powers[5] + 1e-300) <= -49.0

    def test_round_trip_transparency(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stacked = pipelines["stimulus"]
        back = coarse_synthesize(pipe, coarse_analyze(pipe, stacked))
        delay = matched_cascade_delay(pipe.coarse_prototype)
        trim = 4 * delay
        mse, rel = aligned_mse(stacked.samples, back.samples, delay, trim=trim)
        assert rel <= 1e-5

    def test_single_tone_round_trip_keeps_frequency(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        f_s = pipe.plan.inputs.f_s
        f0 = pipe.plan.centre(3) + 5e6
        t = np.arange(20 * 4096)
        x = SignalBuffer(np.cos(2 * np.pi * f0 / f_s * t), f_s)
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
        sub = SignalBuffer(tone, SUBBAND_RATE)
        channels = fine_analyze(pipe, sub)
        power = np.mean(np.abs(channels[200:]) ** 2, axis=0)
        rel_db = 10 * np.log10(power / power[k] + 1e-300)
        assert np.max(np.delete(rel_db, k)) <= -49.0

    def test_round_trip(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stacked = pipelines["stimulus"]
        sub = SignalBuffer(coarse_analyze(pipe, stacked)[:, 4], pipe.subband_rate_hz)
        rebuilt = fine_synthesize(pipe, fine_analyze(pipe, sub))
        delay = matched_cascade_delay(pipe.fine_prototype)
        mse, rel = aligned_mse(sub.samples, rebuilt.samples, delay, trim=2 * delay + 512)
        assert rel <= 1e-5

    def test_rate_mismatch_rejected(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        with pytest.raises(RateMismatchError):
            fine_analyze(pipe, SignalBuffer(np.zeros(128, complex), 1e6))

    def test_real_stream_gets_every_channel(self, pipelines, rng):
        # a real array is a real-domain buffer now; the fine bank's real
        # path would return channels 0..N_f/2 only
        pipe = pipelines["pipes"]["iir"]
        x = rng.standard_normal(pipe.channel_plan.channels_per_subband * 64)
        channels = fine_analyze(pipe, SignalBuffer(x, SUBBAND_RATE))
        np.testing.assert_array_equal(
            channels, fine_analyze(pipe, SignalBuffer(x.astype(complex), SUBBAND_RATE)))


@pytest.mark.slow
class TestFullScaleSmoke:
    def test_gmr2_fine_grid(self, ref_cfg, pipelines):
        """Full-scale GMR-2 grid: 1280 channels per sub-band, short input."""
        plan = build_channel_plan(load_config(overrides={"fine.standard": "gmr2"}))
        assert plan.channels_per_subband == 1280
        fine = build_fine_prototype(ref_cfg, plan)
        rng = np.random.default_rng(3)
        n_f = 1280
        x = SignalBuffer(
            rng.standard_normal(8 * n_f) + 1j * rng.standard_normal(8 * n_f), SUBBAND_RATE
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
        expected delay plus the warm-up.  The budget keeps at least 2x
        headroom over the measured 2.5-2.6 s (2 vCPUs) of fine design,
        stimulus and pipeline pass.
        """
        start = time.perf_counter()
        cfg = load_config(overrides={"fine.standard": "gmr2", "sim.num_samples": 7_142_400})
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

    def test_default_study_pinned(self, pipelines, float_reports):
        """The default run's designs, delays and relative MSEs, to the last bit.

        A change to the banks' realisation or memory order that keeps these
        keeps the study's output files.
        """
        pipes = pipelines["pipes"]
        assert pipes["fir"].coarse_prototype.length == 860
        assert pipes["iir"].coarse_prototype.sections_per_branch == 14
        assert pipes["iir"].fine_prototype.length == 5312
        assert pipes["fir"].fine_prototype is pipes["iir"].fine_prototype
        pinned = {kind: (report.aligned_delay, report.mse_over_signal)
                  for kind, report in float_reports.items()}
        assert pinned == {"iir": (106_779, 2.8201076618927033e-06),
                          "fir": (107_079, 2.6739037033274734e-06)}

    def test_default_coefficients_pinned(self, pipelines, tmp_path):
        """The sha256 of both exported coarse designs and of the fine taps' bytes.

        ``fstack design`` writes the two files from the same designs.
        """
        pipes = pipelines["pipes"]
        digests = {}
        for kind in ("fir", "iir"):
            path = tmp_path / f"coarse_{kind}.coef"
            export_coefficients(pipes[kind].coarse_prototype, path)
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        fine_taps = pipes["iir"].fine_prototype.coefficients
        digests["fine"] = hashlib.sha256(fine_taps.tobytes()).hexdigest()
        assert digests == {
            "coarse_fir.coef": "8bd9d2e2822dde9e444bf4abdbbcac369c18fe1a26b22605cf43991238fb3d3c",
            "coarse_iir.coef": "7f633c1fe7df449c810ccf9668cd102c330c304a2b8d6c0788903ca738393dfa",
            "fine": "2d46aab36434158ea806859d6eb6c4608829e1c271b5e7a4f5da216d3088b67b",
        }

    @pytest.mark.slow
    def test_gmr_fine_windows_pinned(self):
        """The full-scale GMR-1 and GMR-2 fine windows: 186 368 and 115 200 taps."""
        lengths = {}
        for standard in ("gmr1", "gmr2"):
            cfg = load_config(overrides={"fine.standard": standard})
            lengths[standard] = build_fine_prototype(cfg, build_channel_plan(cfg)).length
        assert lengths == {"gmr1": 186_368, "gmr2": 115_200}

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
        pipe, stimulus = _fir_pipeline_at(channels, fs_hz, fc_hz)
        assert pipe.num_coarse_channels == 2 * channels
        report = end_to_end(pipe, stimulus)
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
            "coarse.prototype": "iir", "coarse.stopband_db": 55,
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

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(4, 31, 2))
    def test_default_mission_at_every_even_n(self, n, request):
        """The default mission at every even N from 4 to 30.

        N = 4, 8, 10, 16 and 20 design both candidates and land on their
        delays inside c08's 1e-5; the config rejects the others before any
        design: the 1 MHz grid does not divide f_s/N, and from N = 28 on B
        no longer fits one coarse channel either (both are listed).  The
        plans of N = 24 and 26 leave no transition band as well, which the
        planner rejects.
        """
        overrides = {"plan.num_coarse_channels": n // 2}
        off_grid = "fine.granularity_hz: granularity 1000000.0 does not divide the sub-band rate"
        both = "plan.bandwidth_hz: .* must fit one coarse channel .*; " + off_grid
        rejected = {6: off_grid, 12: off_grid, 14: off_grid, 18: off_grid, 22: off_grid,
                    24: off_grid, 26: off_grid, 28: both, 30: both}
        if n in rejected:
            with pytest.raises(ConfigError, match=rejected[n]):
                load_config(overrides=overrides)
            if n in (24, 26):
                with pytest.raises(PlanningError, match="infeasible plan"):
                    build_plan(dataclasses.replace(load_config(), num_coarse_channels=n // 2))
            return
        cfg = load_config(overrides=overrides)
        if n == 20:
            pipes = request.getfixturevalue("pipelines")["pipes"]
            reports = request.getfixturevalue("float_reports")
        else:
            plan, channel_plan = build_plan(cfg), build_channel_plan(cfg)
            pipes = build_candidate_configs(cfg, plan, channel_plan)
            stimulus = build_stimulus(cfg, plan, channel_plan, pipes["iir"].occupied_subbands)
            reports = {kind: end_to_end(pipe, stimulus) for kind, pipe in pipes.items()}
        for kind, pipe in pipes.items():
            assert pipe.num_coarse_channels == n
            assert reports[kind].aligned_delay == pipe.expected_delay_samples(), kind
            assert reports[kind].mse_over_signal < 1e-5, kind

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

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_outputs_kept_across_cpu_counts(self, kind, pipelines, float_reports,
                                            monkeypatch):
        """One, two and four usable CPUs give the same restack and report.

        The report's delay, MSE, relative MSE and power table are equal.
        The sub-band cascades and the banks' blocks run on helper threads,
        switching threads as often as they can; the output must not depend
        on which thread ran a block, or in which order.  Each run of the nine
        cascades starts one helper per CPU but the caller's, and none of
        them outlives the pass.
        """
        pipe = pipelines["pipes"][kind]

        def run():
            report = end_to_end(pipe, pipelines["stimulus"], capture_spectra=True)
            return report.extras.pop("spectra")["output"].samples, report

        runs = []
        for cpus in (1, 2, 4):
            result, helpers = on_cpus(monkeypatch, cpus, run)
            assert helpers == cpus - 1
            runs.append(result)
        for out, report in runs:
            assert out.tobytes() == runs[0][0].tobytes()
            assert report == runs[0][1] == float_reports[kind]

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_captured_run_matches_plain_run(self, kind, pipelines, float_reports):
        """Capturing the spectra leaves the delay, the MSEs and the power table as they are.

        The sub-band streams are columns of a second ``coarse_analyze``, after the pass.
        """
        report = end_to_end(pipelines["pipes"][kind], pipelines["stimulus"], capture_spectra=True)
        assert set(report.extras["spectra"]) == {*range(1, 10), "output"}
        plain = float_reports[kind]
        assert report.aligned_delay == plain.aligned_delay
        assert report.mse == plain.mse
        assert report.mse_over_signal == plain.mse_over_signal
        assert report.per_channel_leakage_db == plain.per_channel_leakage_db

    @pytest.mark.parametrize("capture, analyses", [(False, 1), (True, 2)])
    def test_one_coarse_path(self, capture, analyses, pipelines, monkeypatch):
        """A pass runs ``coarse_analyze`` and ``coarse_synthesize`` once each.

        They are the only builders of the coarse banks; capturing the
        spectra adds one ``coarse_analyze``.
        """
        pipe = pipelines["pipes"]["iir"]
        calls, coarse_banks = collections.Counter(), collections.Counter()
        for name in ("coarse_analyze", "coarse_synthesize"):
            def counting(*args, _name=name, _inner=getattr(channelizer, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(channelizer, name, counting)
        for bank in (polyphase.AnalysisBank, polyphase.SynthesisBank):
            def building(prototype, _bank=bank):
                coarse_banks[_bank.__name__] += prototype is pipe.coarse_prototype
                return _bank(prototype)

            monkeypatch.setattr(channelizer, bank.__name__, building)
        end_to_end(pipe, pipelines["stimulus"], capture_spectra=capture)
        assert calls == {"coarse_analyze": analyses, "coarse_synthesize": 1}
        assert coarse_banks == {"AnalysisBank": analyses, "SynthesisBank": 1}

    def test_restack_frames_freed_before_delay_search(self, pipelines, monkeypatch):
        """The restack frames die with ``channelize``, before ``find_delay`` runs."""
        frames_refs, alive = [], []
        restack, search = channelizer.coarse_synthesize, channelizer.find_delay

        def keeping(config, frames):
            frames_refs.append(weakref.ref(frames))
            return restack(config, frames)

        def checking(reference, output, max_lag=None):
            alive.append(frames_refs[-1]() is not None)
            return search(reference, output, max_lag=max_lag)

        monkeypatch.setattr(channelizer, "coarse_synthesize", keeping)
        monkeypatch.setattr(channelizer, "find_delay", checking)
        end_to_end(pipelines["pipes"]["iir"], pipelines["stimulus"])
        assert alive == [False]

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_coarse_frames_freed_before_synthesis_branches(self, kind, pipelines, monkeypatch):
        """The ``coarse_analyze`` array is the restack, and it is dead once the
        coarse synthesis has transformed it, before its branch filters run."""
        pipe = pipelines["pipes"][kind]
        owners, alive = [], []
        analyze = channelizer.coarse_analyze

        def keeping(config, stacked):
            frames = analyze(config, stacked)
            owners.append(weakref.ref(frames if frames.base is None else frames.base))
            return frames

        for family in (polyphase._AllPassFamily, polyphase._FirFamily):
            def checking(self, u, _run=family.run):
                # the coarse analysis filters before ``keeping`` sees its
                # frames; the fine banks are N_f wide
                if owners and u.shape[1] == pipe.num_coarse_channels:
                    alive.append(owners[-1]() is not None)
                return _run(self, u)

            monkeypatch.setattr(family, "run", checking)
        monkeypatch.setattr(channelizer, "coarse_analyze", keeping)
        report = end_to_end(pipe, pipelines["stimulus"])
        assert alive == [False]
        assert report.aligned_delay == pipe.expected_delay_samples()

    @pytest.mark.parametrize("kind", ["iir", "fir", "fir_n14"])
    def test_in_place_restack_equals_coarse_synthesize(self, kind, pipelines):
        """The restack that end_to_end fills from its fine cascades is the
        one coarse_synthesize builds from the same fine outputs, byte for byte.

        At N = 14 the fine output (14 280 rows) is shorter than the coarse
        frames (14 285), so the restack frames take the fine length.
        """
        if kind == "fir_n14":
            pipe, stimulus = _fir_pipeline_at(7, 1400e6, 1650.75e6)
        else:
            pipe, stimulus = pipelines["pipes"][kind], pipelines["stimulus"]
        spectra = end_to_end(pipe, stimulus, capture_spectra=True).extras["spectra"]
        restacked = spectra.pop("output").samples
        processed = {sub: fine_synthesize(pipe, fine_analyze(pipe, buf)).samples
                     for sub, buf in spectra.items()}
        (fine_rows,) = {buf.size for buf in processed.values()}
        (coarse_rows,) = {len(buf) for buf in spectra.values()}
        assert (fine_rows < coarse_rows) == (kind == "fir_n14")
        frames = np.zeros((fine_rows, pipe.num_coarse_channels // 2 + 1), dtype=complex)
        for sub, samples in processed.items():
            frames[:, sub] = samples
        assert restacked.tobytes() == coarse_synthesize(pipe, frames).samples.tobytes()

    @pytest.mark.parametrize("kind, cpus, budget", [
        ("iir", 2, 2.5), ("iir", 4, 3.5), ("iir", 9, 3.5),
        ("fir", 2, 3.5), ("fir", 4, 3.5), ("fir", 9, 3.5),
    ])
    def test_working_set_budget(self, kind, cpus, budget, pipelines, monkeypatch):
        """A warm float pass allocates at most ``budget`` times the stimulus's bytes.

        Every full-length array of the pass lives only as long as its
        stage, and the pass holds one coarse frames array: the restack is
        the analysis array, freed once the synthesis has transformed it,
        and the FIR family filters in place.  Each fine cascade running at
        once adds its own buffers, so the pass runs on ``cpus`` patched
        CPUs whatever the host has.  History, IIR on 2, 4 and 9 CPUs and
        FIR on 2: 2.11x, about 2.2x, 2.7-3.2x and 3.04x with one coarse
        frames array; 3.11x, 3.8x, 4.8-5.5x and 5.14x with a separate
        restack array freed before the delay search; on 2 CPUs, 3.18x and
        5.14x while it lived through the search, 3.21x and 5.14x when it
        was first filled in place, 5.01x and 7.05x when the fine outputs
        and the delay lines were kept.
        """
        pipe, stimulus = pipelines["pipes"][kind], pipelines["stimulus"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        end_to_end(pipe, stimulus)  # warms the tap spectra
        peaks = stage_peaks(monkeypatch, lambda: end_to_end(pipe, stimulus))
        ratios = {stage: peak / stimulus.samples.nbytes for stage, peak in peaks.items()}
        top = max(ratios, key=ratios.get)
        assert ratios[top] <= budget, (
            f"{ratios[top]:.2f}x the stimulus, set by the {top}, against a {budget}x "
            f"budget; by stage: " + ", ".join(f"{s} {r:.2f}x" for s, r in ratios.items()))

    def test_stage_composability(self, pipelines, float_reports):
        """Each stage's own round trip stays within 2x of the composed MSE."""
        pipe = pipelines["pipes"]["iir"]
        stacked = pipelines["stimulus"]
        composed = float_reports["iir"].mse_over_signal

        coarse = coarse_analyze(pipe, stacked)
        back = coarse_synthesize(pipe, coarse)
        d_c = matched_cascade_delay(pipe.coarse_prototype)
        _, coarse_rel = aligned_mse(stacked.samples, back.samples, d_c, trim=4 * d_c)

        sub = SignalBuffer(coarse[:, 4], pipe.subband_rate_hz)
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

        rate = pipe.subband_rate_hz
        noisy = add_awgn(stimulus, 35.0, seed=seed)
        noise = SignalBuffer(noisy.samples - stimulus.samples, stimulus.rate_hz)
        coarse = coarse_analyze(pipe, noise)
        processed = {
            sub: fine_synthesize(pipe, fine_analyze(pipe, SignalBuffer(coarse[:, sub], rate)))
            for sub in pipe.occupied_subbands
        }
        shortest = min(len(b) for b in processed.values())
        frames = np.zeros((shortest, coarse.shape[1]), dtype=complex)
        for sub, buf in processed.items():
            frames[:, sub] = buf.samples[:shortest]
        passed = coarse_synthesize(pipe, frames)
        warm = pipeline_warmup_samples(pipe)
        passed_power = float(np.mean(passed.samples[warm:] ** 2))

        measured = report.mse_over_signal * stimulus.power
        assert abs(10 * math.log10(measured / passed_power)) <= 1.0

    @pytest.mark.parametrize("samples", [0, 1 << 20], ids=["empty", "silent"])
    def test_nothing_to_measure_rejected(self, pipelines, samples):
        pipe = pipelines["pipes"]["iir"]
        zero = SignalBuffer(np.zeros(samples), pipe.plan.inputs.f_s)
        with pytest.raises(InvalidSpecError, match="nothing to measure: the stimulus"):
            end_to_end(pipe, zero, snr_db=40.0, adc_bits=12)

    @pytest.mark.parametrize("scale", [1e-155, 1e-158, 1e-160, 1e-162, 1e-170])
    def test_underflowing_stimulus_rejected(self, pipelines, scale):
        # nonzero samples whose squares underflow: at 1e-162 the stimulus
        # power is positive yet every coarse channel's power is 0; from
        # 1e-155 to 1e-160 the reference power over the compared span is
        # subnormal (4.5e-310 at 1e-155), and a relative MSE taken against
        # it keeps few digits (2.8152e-06 at 1e-158) or none (0 at 1e-160)
        stim = pipelines["stimulus"]
        tiny = SignalBuffer(stim.samples * scale, stim.rate_hz)
        with pytest.raises(InvalidSpecError, match="nothing to measure"):
            end_to_end(pipelines["pipes"]["iir"], tiny)

    def test_small_normal_stimulus_measured(self, pipelines):
        # at 1e-150 the reference power (4.5e-300) is a normal float: the
        # run still reports the default study's delay and relative MSE
        stim = pipelines["stimulus"]
        small = SignalBuffer(stim.samples * 1e-150, stim.rate_hz)
        report = end_to_end(pipelines["pipes"]["iir"], small)
        assert report.aligned_delay == 106_779
        assert report.mse_over_signal == pytest.approx(2.8201076618927033e-06, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [float("-inf"), float("nan")])
    def test_non_finite_snr_rejected(self, pipelines, snr_db):
        # -inf used to count as +inf and run noiseless
        with pytest.raises(InvalidSpecError, match="SNR must be finite or \\+inf"):
            end_to_end(pipelines["pipes"]["iir"], pipelines["stimulus"], snr_db=snr_db)

    def test_silent_compared_span_rejected(self, pipelines):
        # silent after its first 4 000 samples: the delay search still locks
        # on, but the span that aligned_mse compares holds no reference power
        pipe = pipelines["pipes"]["fir"]
        stim = pipelines["stimulus"]
        samples = stim.samples.copy()
        samples[4000:] = 0.0
        with pytest.raises(InvalidSpecError, match="silent over the compared span"):
            end_to_end(pipe, SignalBuffer(samples, stim.rate_hz))

    def test_no_occupied_subband_rejected(self, pipelines):
        # a pipeline of no sub-band has nothing to measure: the config refuses it
        with pytest.raises(ConfigError, match="no occupied sub-band"):
            dataclasses.replace(pipelines["pipes"]["iir"], occupied_subbands=())

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_too_short_input_rejected(self, pipelines, kind):
        # the shortest accepted prefix aligns and meets c08; one sample fewer is refused
        pipe = pipelines["pipes"][kind]
        stim = pipelines["stimulus"]
        needed = pipe.expected_delay_samples() + pipeline_warmup_samples(pipe)
        shortest = end_to_end(pipe, SignalBuffer(stim.samples[:needed], stim.rate_hz))
        assert shortest.aligned_delay == pipe.expected_delay_samples()
        assert shortest.mse_over_signal < 1e-5
        short = SignalBuffer(stim.samples[: needed - 1], stim.rate_hz)
        with pytest.raises(InvalidSpecError, match=rf"\b{needed - 1}\b.*\b{needed}\b"):
            end_to_end(pipe, short)

    def test_adc_path_reports_quantization(self, pipelines):
        pipe = pipelines["pipes"]["iir"]
        stim = pipelines["stimulus"]
        short = SignalBuffer(stim.samples[: 640 * 1280], stim.rate_hz)
        report = end_to_end(pipe, short, adc_bits=12)
        assert report.extras["adc_bits"] == 12
        assert report.mse_over_signal < 1e-4  # 12-bit floor, still small


class TestDelaySearch:
    """end_to_end correlates one reference segment, and still searches."""

    @staticmethod
    def _reference_sizes(monkeypatch):
        sizes = []
        inner = channelizer.find_delay

        def recording(reference, output, max_lag=None):
            sizes.append(len(reference))
            return inner(reference, output, max_lag=max_lag)

        monkeypatch.setattr(channelizer, "find_delay", recording)
        return sizes

    @pytest.mark.parametrize("shift", [37, -37, 70_000])
    def test_shifted_output_found(self, pipelines, shift, monkeypatch):
        """An output moved by k samples aligns at expected + k, also when
        k is wider than the correlated segment."""
        pipe = pipelines["pipes"]["iir"]
        inner = channelizer.coarse_synthesize

        def shifted(config, frames):
            y = inner(config, frames).samples
            y = np.concatenate([np.zeros(shift), y]) if shift > 0 else y[-shift:]
            return SignalBuffer(y, pipe.plan.inputs.f_s)

        monkeypatch.setattr(channelizer, "coarse_synthesize", shifted)
        sizes = self._reference_sizes(monkeypatch)
        report = end_to_end(pipe, pipelines["stimulus"])
        assert report.aligned_delay == pipe.expected_delay_samples() + shift
        assert sizes == [DELAY_SEARCH_SPAN]
        assert report.mse_over_signal <= 1e-5

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_segment_agrees_with_whole_record(self, pipelines, kind, monkeypatch):
        """The segment's peak is the whole record's peak over the same lags."""
        pipe = pipelines["pipes"][kind]
        stimulus = pipelines["stimulus"]
        sizes = self._reference_sizes(monkeypatch)
        report = end_to_end(pipe, stimulus, capture_spectra=True)
        assert sizes == [DELAY_SEARCH_SPAN]
        expected = pipe.expected_delay_samples()
        output = report.extras["spectra"]["output"].samples
        whole = find_delay(stimulus.samples, output, max_lag=2 * expected + 1024)
        assert report.aligned_delay == whole == expected

    def test_record_below_span_correlated_whole(self, monkeypatch):
        """An N = 14 record shorter than the segment takes the whole-record path."""
        cfg = load_config(overrides={
            "plan.num_coarse_channels": 7, "plan.fs_hz": 1400e6,
            "plan.fc_hz": 1650.75e6, "plan.bandwidth_hz": 75e6,
            "coarse.prototype": "iir", "coarse.stopband_db": 55,
            "coarse.passband_ripple_db": 0.01,
            "fine.granularity_hz": 12.5e6, "sim.num_samples": 64_000,
        })
        plan = build_plan(cfg)
        channel_plan = build_channel_plan(cfg)
        pipe = build_pipeline_config(cfg, "iir", plan, channel_plan)
        stimulus = build_stimulus(cfg, plan, channel_plan, pipe.occupied_subbands)
        assert len(stimulus) < DELAY_SEARCH_SPAN
        sizes = self._reference_sizes(monkeypatch)
        report = end_to_end(pipe, stimulus)
        assert sizes == [len(stimulus)]
        assert report.aligned_delay == pipe.expected_delay_samples()

    @pytest.mark.parametrize("gain", [0.0, 1e-3], ids=["zeroed", "scaled"])
    def test_quiet_segment_falls_back_to_whole_record(self, pipelines, gain, monkeypatch):
        """A reference whose first 400 000 samples are silent or faint
        (the segment at the expected delay with them) still aligns."""
        pipe = pipelines["pipes"]["iir"]
        stim = pipelines["stimulus"]
        samples = stim.samples.copy()
        samples[:400_000] *= gain
        sizes = self._reference_sizes(monkeypatch)
        report = end_to_end(pipe, SignalBuffer(samples, stim.rate_hz))
        assert report.aligned_delay == pipe.expected_delay_samples()
        assert sizes == [len(samples)]


class TestMeasure:
    """``measure`` on a reference and a delayed copy with a known added error."""

    @pytest.mark.parametrize("data", ["real", "complex"])
    @pytest.mark.parametrize("size", [200_000, 20_000], ids=["segment", "whole"])
    def test_known_delay_and_error(self, data, size, rng, monkeypatch):
        # unit-magnitude samples and a 1e-3 error on each: any compared
        # span has power 1 and MSE 1e-6, whatever the trim
        lag = 1_234
        if data == "real":
            ref = rng.choice([-1.0, 1.0], size)
            error = 1e-3 * rng.choice([-1.0, 1.0], size)
        else:
            ref = np.exp(2j * np.pi * rng.random(size))
            error = 1e-3 * np.exp(2j * np.pi * rng.random(size))
        out = np.concatenate([np.zeros(lag, ref.dtype), ref + error, np.zeros(500, ref.dtype)])
        sizes = TestDelaySearch._reference_sizes(monkeypatch)
        delay, mse, rel = measure(ref, out, expected_delay=1_200, warmup=3_000)
        assert delay == lag
        assert sizes == [min(size, DELAY_SEARCH_SPAN)]  # the segment, or the whole short record
        assert mse == pytest.approx(1e-6, rel=1e-12, abs=0)
        assert rel == pytest.approx(1e-6, rel=1e-12, abs=0)


class TestImpair:
    @pytest.mark.parametrize("snr_db, adc_bits, keys", [
        (None, None, set()),
        (math.inf, None, set()),
        (30.0, None, {"snr_db"}),
        (None, 12, {"adc_bits", "adc_saturations"}),
        (30.0, 12, {"snr_db", "adc_bits", "adc_saturations"}),
    ], ids=["none", "plus_inf", "awgn", "adc", "awgn_adc"])
    def test_extras_name_the_impairments(self, snr_db, adc_bits, keys, rng):
        stimulus = SignalBuffer(rng.standard_normal(4096), 1e9)
        x, extras = impair(stimulus, adc_bits, snr_db, seed=7)
        assert set(extras) == keys
        assert (x is stimulus) == (not keys)
        assert len(x) == len(stimulus)
        if "snr_db" in keys:
            assert extras["snr_db"] == snr_db
        if adc_bits is not None:
            assert extras["adc_bits"] == adc_bits

    def test_adc_saturations_are_the_quantizers_count(self):
        # 8 spikes of 30 over a +-1 square wave: the full scale, 4x the RMS
        # (6.6), clips exactly the spikes
        samples = np.tile([1.0, -1.0], 2048)
        samples[::512] = 30.0
        stimulus = SignalBuffer(samples, 1e9)
        x, extras = impair(stimulus, 12, None, seed=7)
        scale = 4.0 * math.sqrt(stimulus.power)
        q, saturations = adc_quantize(stimulus, AdcModel(bits=12, full_scale=scale))
        assert extras["adc_saturations"] == saturations == 8
        np.testing.assert_array_equal(x.samples, q.samples)

    @pytest.mark.parametrize("snr_db", [float("-inf"), float("nan")])
    def test_non_finite_snr_rejected(self, snr_db, rng):
        stimulus = SignalBuffer(rng.standard_normal(4096), 1e9)
        with pytest.raises(InvalidSpecError, match="SNR must be finite or \\+inf"):
            impair(stimulus, None, snr_db, seed=7)


class TestDelayEstimator:
    def test_known_shift_recovered(self, rng):
        x = rng.standard_normal(4096)
        y = np.concatenate([np.zeros(137), x])
        assert find_delay(x, y) == 137

    @pytest.mark.parametrize("data", ["real", "complex"])
    def test_lag_kept_across_cpu_counts(self, data, rng, monkeypatch):
        # the two forward transforms are two blocks of one run; the lag is
        # the one a single thread finds
        x = rng.standard_normal(5000)
        if data == "complex":
            x = x + 1j * rng.standard_normal(x.size)
        y = np.concatenate([np.zeros(137), x + 0.5 * rng.standard_normal(x.size)])
        lags = []
        for cpus in (1, 2, 4):
            started = collections.Counter()
            lag, _ = on_cpus(monkeypatch, cpus, lambda: find_delay(x[:3000], y, 600), started)
            assert list(started.values()) == ([1] if cpus > 1 else [])
            lags.append(lag)
        assert lags == [137] * 3

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
