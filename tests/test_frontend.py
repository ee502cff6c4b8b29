"""Front-end tests: stimulus, stacking paths, ADC, AWGN, signal files."""

import math
import types

import numpy as np
import pytest

from fstack import frontend
from fstack.channelizer import ChannelPlan
from fstack.config import load_config
from fstack.errors import InvalidSpecError, StackingError
from fstack.frontend import (
    AdcModel,
    SignalBuffer,
    adc_quantize,
    add_awgn,
    fdm_grid_intervals,
    generate_subband_signal,
    periodogram_db,
    simulate_rf_chain,
    stack_baseband_equivalent,
    stack_fdm_stimulus,
    write_signal,
)
from fstack.pipeline import build_channel_plan
from fstack.stacking import StackingInputs, plan_stacking

DUR = 1 << 13


def loop_masked_noise(n_samples, rate_hz, intervals, rng):
    """Oracle: the stimulus built from a per-band OR over every bin."""
    freqs = np.fft.fftfreq(n_samples, d=1.0 / rate_hz)
    mask = np.zeros(n_samples, dtype=bool)
    for lo, hi in intervals:
        mask |= (freqs >= lo) & (freqs <= hi)
    if not np.any(mask):
        raise InvalidSpecError("stimulus mask is empty; intervals too narrow")
    spectrum = np.zeros(n_samples, dtype=np.complex128)
    k = int(np.count_nonzero(mask))
    spectrum[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = np.fft.ifft(spectrum)
    x /= math.sqrt(np.mean(np.abs(x) ** 2))
    return x


class TestSignalBuffer:
    def test_complex_samples_keep_their_imaginary_part(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        buf = SignalBuffer(x.astype(np.complex64), 1e6)
        assert buf.domain == "complex" and buf.samples.dtype == np.complex128
        np.testing.assert_array_equal(buf.samples.imag, x.astype(np.complex64).imag)
        with pytest.raises(AttributeError):
            buf.domain = "real"

    def test_real_samples_are_float64(self):
        buf = SignalBuffer([1, -2, 3], 1e6)
        assert buf.domain == "real" and buf.samples.dtype == np.float64

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(InvalidSpecError, match="sample rate"):
            SignalBuffer(np.zeros(4), rate)


class TestStimulus:
    def test_seed_determinism(self, table2_plan):
        a = generate_subband_signal(3, table2_plan, DUR, seed=7)
        b = generate_subband_signal(3, table2_plan, DUR, seed=7)
        np.testing.assert_array_equal(a.baseband.samples, b.baseband.samples)

    def test_seeds_decorrelated(self, table2_plan):
        a = generate_subband_signal(3, table2_plan, DUR, seed=1).baseband.samples
        b = generate_subband_signal(3, table2_plan, DUR, seed=2).baseband.samples
        xc = np.abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert xc <= 0.1

    def test_unit_power(self, table2_plan):
        el = generate_subband_signal(5, table2_plan, DUR, seed=3)
        assert el.baseband.power == pytest.approx(1.0, rel=1e-9)

    def test_occupied_bandwidth_bound(self, table2_plan):
        # the element's spectrum is zero, to rounding, outside +-B/2
        el = generate_subband_signal(5, table2_plan, DUR, seed=3)
        freqs = np.fft.fftfreq(DUR, d=1.0 / el.baseband.rate_hz)
        spectrum = np.abs(np.fft.fft(el.baseband.samples))
        outside = np.abs(freqs) > table2_plan.inputs.bandwidth / 2.0
        assert np.any(outside)
        assert np.max(spectrum[outside]) < 1e-12 * np.max(spectrum)

    def test_fdm_profile_respects_grid(self, table2_plan):
        el = generate_subband_signal(
            1, table2_plan, DUR, seed=3, profile="fdm",
            granularity_hz=1e6, guardband_fraction=0.1,
        )
        freqs = np.fft.fftfreq(DUR, d=1.0 / el.baseband.rate_hz)
        spectrum = np.abs(np.fft.fft(el.baseband.samples))
        offset = table2_plan.signed_offset(1)
        # spectral lines must avoid the per-channel guard zones
        distance = np.abs(((freqs + offset) + 0.5e6) % 1e6 - 0.5e6)
        guard = distance > 0.45e6
        assert np.max(spectrum[guard]) < 1e-9 * np.max(spectrum)

    def test_unoccupied_subband_rejected(self, table2_plan):
        with pytest.raises(InvalidSpecError):
            generate_subband_signal(0, table2_plan, DUR, seed=1)


class TestStimulusMask:
    """The sorted-search mask against the per-band loop it replaced."""

    RATE = 1000.0

    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    @pytest.mark.parametrize("nudge", [-1e-9, 0.0, 1e-9])
    def test_edges_on_and_beside_bins(self, n, nudge):
        f = np.fft.fftfreq(n, d=1.0 / self.RATE)
        # inner edges from actual bin values, so 0 nudge lands exactly on a bin
        intervals = [
            (f[3] + nudge, f[9] + nudge),
            (f[-7] - nudge, f[-2] - nudge),
            (f.min() + nudge, f[-(n // 2) + 4] + nudge),  # from the lowest bin
            (f[n // 2 - 6] - nudge, f.max() - nudge),  # up to the highest bin
            (f[12] - nudge, f[12] + nudge),  # one bin, or none when the edges cross
        ]
        args = (n, self.RATE, intervals)
        np.testing.assert_array_equal(
            frontend._masked_noise(*args, np.random.default_rng(5)),
            loop_masked_noise(*args, np.random.default_rng(5)),
        )

    @pytest.mark.parametrize("n", [256, 257])
    def test_overlapping_and_unsorted_bands(self, n):
        intervals = [(120.0, 300.0), (-400.0, -90.5), (100.0, 130.0),
                     (-100.0, -95.0), (250.0, 260.0), (-600.0, 700.0 / 3.0)]
        for bands in (intervals, intervals[::-1], intervals[2:] + intervals[:2]):
            args = (n, self.RATE, bands)
            np.testing.assert_array_equal(
                frontend._masked_noise(*args, np.random.default_rng(11)),
                loop_masked_noise(*args, np.random.default_rng(11)),
            )

    @pytest.mark.parametrize("n", [DUR, DUR + 1])
    def test_noise_profile_band(self, table2_plan, n):
        half_b = table2_plan.inputs.bandwidth / 2.0
        rate = table2_plan.inputs.f_s / table2_plan.inputs.num_channels
        el = generate_subband_signal(3, table2_plan, n, seed=7)
        np.testing.assert_array_equal(
            el.baseband.samples,
            loop_masked_noise(n, rate, [(-half_b, half_b)], np.random.default_rng(7)),
        )

    @pytest.mark.parametrize("n", [64, 65])
    def test_empty_mask_rejected(self, n):
        df = self.RATE / n
        between_bins = [(0.25 * df, 0.75 * df)]
        beyond_nyquist = [(2.0 * self.RATE, 3.0 * self.RATE)]
        for bands in (between_bins, [(9.0, 2.0)], beyond_nyquist, []):
            with pytest.raises(InvalidSpecError, match="mask is empty"):
                frontend._masked_noise(n, self.RATE, bands, np.random.default_rng(0))
            with pytest.raises(InvalidSpecError, match="mask is empty"):
                loop_masked_noise(n, self.RATE, bands, np.random.default_rng(0))

    @pytest.mark.parametrize("standard", ["reference", "gmr1", "gmr2"])
    def test_fdm_stimulus_matches_loop_on_full_grids(self, table2_plan, ref_cfg, standard):
        inp = table2_plan.inputs
        rate = inp.f_s / inp.num_channels
        grid = build_channel_plan(ref_cfg if standard == "reference"
                                  else load_config(overrides={"fine.standard": standard}))
        n = 16 * grid.channels_per_subband + 1
        for sub in table2_plan.occupied_subbands:
            intervals = fdm_grid_intervals(
                table2_plan, sub, grid.granularity_hz, grid.guardband_fraction)
            el = generate_subband_signal(
                sub, table2_plan, n, seed=40 + sub, profile="fdm",
                granularity_hz=grid.granularity_hz,
                guardband_fraction=grid.guardband_fraction,
            )
            np.testing.assert_array_equal(
                el.baseband.samples,
                loop_masked_noise(n, rate, intervals, np.random.default_rng(40 + sub)),
            )


class TestStackingPaths:
    def test_empty_element_list(self, table2_plan):
        buf = stack_baseband_equivalent([], table2_plan)
        assert len(buf) == 0 and buf.domain == "real"

    def test_single_tone_lands_at_centre(self, table2_plan):
        rate = table2_plan.inputs.f_s / table2_plan.inputs.num_channels
        tone = SignalBuffer(np.ones(DUR, dtype=complex), rate)
        element = frontend.ElementSignal(4, tone)
        stacked = stack_baseband_equivalent([element], table2_plan)
        # F_4 sits exactly on a bin of the full-length transform, so a
        # rectangular FFT is leakage-free
        spectrum = np.abs(np.fft.rfft(stacked.samples))
        freqs = np.fft.rfftfreq(len(stacked), d=1.0 / stacked.rate_hz)
        peak_hz = freqs[np.argmax(spectrum)]
        assert peak_hz == pytest.approx(table2_plan.centre(4), abs=1.0)
        mask = np.abs(freqs - table2_plan.centre(4)) > 2e6
        rel_db = 20 * np.log10(np.max(spectrum[mask]) / np.max(spectrum))
        assert rel_db < -100.0

    def test_duplicate_indices_rejected(self, table2_plan):
        el = generate_subband_signal(2, table2_plan, DUR, seed=1)
        with pytest.raises(StackingError):
            stack_baseband_equivalent([el, el], table2_plan)

    @pytest.mark.parametrize("index", [0, -1, 10])
    def test_unoccupied_element_rejected(self, table2_plan, index):
        """Both oracles check occupancy before they read the plan.

        An element of sub-band 0 used to stack at sub-band 9's centre
        (``centres_hz[-1]``), and the RF chain mixed it with ``betas[-1]``.
        """
        rate = table2_plan.inputs.channel_spacing
        elements = [frontend.ElementSignal(n, symmetric_multitone(rate, 256)) for n in (2, index)]
        with pytest.raises(InvalidSpecError, match=f"sub-band {index} is not occupied"):
            stack_baseband_equivalent(elements, table2_plan)
        with pytest.raises(InvalidSpecError, match=f"sub-band {index} is not occupied"):
            simulate_rf_chain(elements, table2_plan, oversample_factor=4)

    def test_mismatched_lengths_rejected(self, table2_plan):
        a = generate_subband_signal(2, table2_plan, DUR, seed=1)
        b = generate_subband_signal(3, table2_plan, DUR // 2, seed=2)
        with pytest.raises(StackingError):
            stack_baseband_equivalent([a, b], table2_plan)

    def test_energy_bookkeeping(self, table2_plan):
        elements = [
            generate_subband_signal(n, table2_plan, DUR, seed=n)
            for n in table2_plan.occupied_subbands
        ]
        stacked = stack_baseband_equivalent(elements, table2_plan)
        expected = sum(e.baseband.power for e in elements) / 2.0
        assert stacked.power == pytest.approx(expected, rel=0.01)

    def test_fold_keeps_bands_in_place(self, table2_plan):
        elements = [
            generate_subband_signal(n, table2_plan, DUR, seed=n)
            for n in table2_plan.occupied_subbands
        ]
        stacked = stack_baseband_equivalent(elements, table2_plan)
        half_b = table2_plan.inputs.bandwidth / 2.0
        freqs, p_db = periodogram_db(stacked)
        # reference floor from regions the plan leaves empty (below the
        # first stacked band and above the last one)
        empty = (freqs < table2_plan.centre(1) - half_b - 2e6) | (
            freqs > table2_plan.centre(9) + half_b + 2e6
        )
        floor = np.median(p_db[empty])
        for n in table2_plan.occupied_subbands:
            centre = table2_plan.centre(n)
            band = (freqs >= centre - half_b) & (freqs <= centre + half_b)
            assert np.median(p_db[band]) > floor + 20.0


def fdm_elements(plan, subbands, element_samples, seed, grid):
    """The seeded FDM elements that stack_fdm_stimulus writes into its spectrum."""
    return [
        generate_subband_signal(
            sub, plan, element_samples, seed=seed + sub, profile="fdm",
            granularity_hz=grid.granularity_hz, guardband_fraction=grid.guardband_fraction,
        )
        for sub in subbands
    ]


class TestFdmStimulus:
    """The one-spectrum FDM stimulus against the per-element stacking path."""

    @pytest.mark.parametrize("standard", ["reference", "gmr2"])
    def test_matches_element_stack_on_whole_bin_grids(self, table2_plan, ref_cfg, standard):
        grid = build_channel_plan(ref_cfg if standard == "reference"
                                  else load_config(overrides={"fine.standard": standard}))
        # 5 120 samples per element put every F_n on a whole 12.5 kHz bin
        fast = stack_fdm_stimulus(table2_plan, table2_plan.occupied_subbands, 5120, 77,
                                  grid.granularity_hz, grid.guardband_fraction)
        slow = stack_baseband_equivalent(
            fdm_elements(table2_plan, table2_plan.occupied_subbands, 5120, 77, grid), table2_plan)
        assert fast.rate_hz == slow.rate_hz and len(fast) == len(slow)
        err = np.linalg.norm(fast.samples - slow.samples) / np.linalg.norm(slow.samples)
        assert err <= 1e-9

    @pytest.mark.parametrize(
        "channels, fs_hz, fc_hz",
        [(7, 1400e6, 1650.75e6), (11, 2200e6, 2170.75e6)],  # the N = 14 and 22 pipeline tests
        ids=["n14", "n22"],
    )
    def test_off_grid_bands_land_on_the_nearest_bin(self, channels, fs_hz, fc_hz):
        inputs = StackingInputs(fs_hz, 10e6, fc_hz, 2, 75e6, 2 * channels)
        plan = plan_stacking(inputs)
        grid = ChannelPlan(12.5e6, inputs.f_s / inputs.num_channels)
        m = 200_000 // inputs.num_channels
        df = inputs.f_s / (m * inputs.num_channels)
        snapped = [round(plan.centre(sub) / df) * df for sub in plan.occupied_subbands]
        for sub, centre in zip(plan.occupied_subbands, snapped):
            assert 0.1 < abs(centre - plan.centre(sub)) / df <= 0.5
        fast = stack_fdm_stimulus(plan, plan.occupied_subbands, m, 5,
                                  grid.granularity_hz, grid.guardband_fraction)
        # the oracle's elements come from the true plan (their grid offsets
        # included); only the stacking centres move to the bins, in a
        # stand-in with the plan's inputs and sub-bands (a FrequencyPlan
        # derives its centres from its LO multiples)
        elements = fdm_elements(plan, plan.occupied_subbands, m, 5, grid)
        snapped_plan = types.SimpleNamespace(
            inputs=inputs, occupied_subbands=plan.occupied_subbands,
            centre=dict(zip(plan.occupied_subbands, snapped)).__getitem__)
        slow = stack_baseband_equivalent(elements, snapped_plan)
        err = np.linalg.norm(fast.samples - slow.samples) / np.linalg.norm(slow.samples)
        assert err <= 1e-9

    def test_empty_subband_list(self, table2_plan):
        buf = stack_fdm_stimulus(table2_plan, (), DUR, 1, 1e6)
        assert len(buf) == 0 and buf.domain == "real"

    def test_no_element_samples_rejected(self, table2_plan):
        # no element samples leave no bin spacing (f_s / 0)
        with pytest.raises(InvalidSpecError, match="element_samples"):
            stack_fdm_stimulus(table2_plan, (1, 2), 0, seed=1, granularity_hz=1e6)

    def test_duplicate_and_unoccupied_subbands_rejected(self, table2_plan):
        with pytest.raises(StackingError):
            stack_fdm_stimulus(table2_plan, (2, 2), DUR, 1, 1e6)
        with pytest.raises(InvalidSpecError):
            stack_fdm_stimulus(table2_plan, (0, 2), DUR, 1, 1e6)


def symmetric_multitone(rate, n_samples):
    """Deterministic stimulus symmetric about its own centre frequency."""
    t = np.arange(n_samples) / rate
    x = np.zeros(n_samples, dtype=complex)
    for f in (2e6, 7e6, 11e6, 19e6):
        x += np.exp(2j * np.pi * f * t) + np.exp(-2j * np.pi * f * t)
    return SignalBuffer(x / np.sqrt(np.mean(np.abs(x) ** 2)), rate)


def band_power_centroid(buf, lo_hz, hi_hz):
    """Power-weighted centre frequency of the band [lo, hi] of ``buf``'s periodogram."""
    freqs, p_db = periodogram_db(buf)
    power = 10.0 ** (p_db / 10.0)
    mask = (freqs >= lo_hz) & (freqs <= hi_hz)
    assert np.any(mask), "empty measurement band"
    return float(np.sum(freqs[mask] * power[mask]) / np.sum(power[mask]))


class TestRfChain:
    @pytest.mark.parametrize("zone", [1, 2])
    def test_centres_match_planner(self, zone):
        from fstack.stacking import StackingInputs, plan_stacking

        inputs = StackingInputs(1280e6, 10e6, 1650.75e6, zone, 48.5e6, 20)
        plan = plan_stacking(inputs)
        rate = inputs.f_s / inputs.num_channels
        elements = [
            frontend.ElementSignal(n, symmetric_multitone(rate, 1 << 12))
            for n in (1, 5, 9)
        ]
        via_rf = simulate_rf_chain(elements, plan, oversample_factor=4)
        via_bb = stack_baseband_equivalent(elements, plan)
        bin_hz = plan.inputs.f_s / frontend.PERIODOGRAM_NFFT
        half_b = plan.inputs.bandwidth / 2.0
        for element in elements:
            centre = plan.centre(element.subband_index)
            got_rf = band_power_centroid(via_rf, centre - half_b, centre + half_b)
            got_bb = band_power_centroid(via_bb, centre - half_b, centre + half_b)
            assert abs(got_rf - centre) <= bin_hz
            assert abs(got_bb - centre) <= bin_hz
            assert abs(got_rf - got_bb) <= bin_hz

    def test_second_zone_fold_inverts(self):
        # a real tone at f_s - 100 MHz sampled at f_s appears at 100 MHz
        f_s = 1280e6
        ovs = 4
        t = np.arange(1 << 14) / (ovs * f_s)
        tone = np.cos(2 * np.pi * (f_s - 100e6) * t)
        sampled = SignalBuffer(tone[::ovs], f_s)
        freqs, p_db = periodogram_db(sampled)  # one 4 096-point segment
        assert abs(freqs[np.argmax(p_db)] - 100e6) < f_s / 4096

    def test_oversample_validation(self, table2_plan):
        with pytest.raises(InvalidSpecError):
            simulate_rf_chain([], table2_plan, oversample_factor=2)

    def test_overlapping_folds_rejected(self, table2_plan):
        # the RF chain folds its bands from the LOs alone; two sub-bands on one
        # LO multiple fold onto one centre, which no FrequencyPlan can hold
        stand_in = types.SimpleNamespace(inputs=table2_plan.inputs, occupied_subbands=(1, 2),
                                         betas=(table2_plan.betas[0],) * 2)
        rate = table2_plan.inputs.channel_spacing
        elements = [frontend.ElementSignal(n, symmetric_multitone(rate, 256)) for n in (1, 2)]
        with pytest.raises(StackingError, match="overlap"):
            simulate_rf_chain(elements, stand_in, oversample_factor=4)


class TestAdc:
    def test_fine_quantization_is_transparent(self, rng):
        x = SignalBuffer(0.5 * rng.standard_normal(1 << 15), 1.0)
        model = AdcModel(bits=24, full_scale=4.0)
        q, _ = adc_quantize(x, model)
        err = q.samples - x.samples
        snr = 10 * np.log10(np.var(x.samples) / np.var(err))
        assert snr >= 120.0

    def test_twelve_bit_sinad(self):
        # full-scale sine, non-coherent frequency
        n = 1 << 16
        t = np.arange(n)
        amp = 1.0 - 2.0 ** -13
        x = SignalBuffer(amp * np.sin(2 * np.pi * 0.01237 * t), 1.0)
        q, _ = adc_quantize(x, AdcModel(bits=12, full_scale=1.0))
        err = q.samples - x.samples
        sinad = 10 * np.log10(np.mean(x.samples ** 2) / np.mean(err ** 2))
        assert abs(sinad - (6.02 * 12 + 1.76)) <= 1.0

    def test_saturation_counted(self, rng):
        x = SignalBuffer(3.0 * rng.standard_normal(4096), 1.0)
        q, saturations = adc_quantize(x, AdcModel(bits=8, full_scale=1.0))
        assert saturations == np.count_nonzero((x.samples >= 1.0) | (x.samples < -1.0)) > 0
        assert np.max(np.abs(q.samples)) <= 1.0

    def test_monotone_map(self, rng):
        x = np.sort(rng.uniform(-2, 2, size=4096))
        q, _ = adc_quantize(SignalBuffer(x, 1.0), AdcModel(bits=6, full_scale=1.0))
        assert np.all(np.diff(q.samples) >= 0.0)

    def test_bits_range_enforced(self):
        with pytest.raises(InvalidSpecError):
            AdcModel(bits=2, full_scale=1.0)

    def test_fractional_bits_rejected(self):
        # a fractional width would only fail later, in adc_quantize's shift
        with pytest.raises(InvalidSpecError, match="integer"):
            AdcModel(bits=12.5)

    def test_nan_full_scale_rejected(self):
        # a NaN full scale would quantize every sample to NaN and count no saturation
        with pytest.raises(InvalidSpecError, match="full_scale"):
            AdcModel(full_scale=math.nan)


class TestAwgn:
    def test_infinite_snr_passthrough(self, rng):
        x = SignalBuffer(rng.standard_normal(1024), 1.0)
        y = add_awgn(x, float("inf"), seed=1)
        np.testing.assert_array_equal(y.samples, x.samples)

    @pytest.mark.parametrize("snr_db", [float("-inf"), float("nan")])
    def test_non_finite_snr_rejected(self, rng, snr_db):
        # only +inf passes the signal through; -inf used to run noiseless
        x = SignalBuffer(rng.standard_normal(1024), 1.0)
        with pytest.raises(InvalidSpecError, match="SNR must be finite or \\+inf"):
            add_awgn(x, snr_db, seed=1)

    def test_achieved_snr(self, rng):
        x = SignalBuffer(rng.standard_normal(1 << 20), 1.0)
        y = add_awgn(x, 35.0, seed=9)
        noise = y.samples - x.samples
        snr = 10 * np.log10(np.mean(x.samples ** 2) / np.mean(noise ** 2))
        assert abs(snr - 35.0) <= 0.2

    def test_seed_repeatability(self, rng):
        x = SignalBuffer(rng.standard_normal(4096), 1.0)
        y1 = add_awgn(x, 20.0, seed=5)
        y2 = add_awgn(x, 20.0, seed=5)
        np.testing.assert_array_equal(y1.samples, y2.samples)

    def test_complex_noise_split(self, rng):
        x = SignalBuffer(rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18), 1.0)
        y = add_awgn(x, 30.0, seed=2)
        noise = y.samples - x.samples
        snr = 10 * np.log10(np.mean(np.abs(x.samples) ** 2) / np.mean(np.abs(noise) ** 2))
        assert abs(snr - 30.0) <= 0.2


def read_sidecar(path):
    """The ``key=value`` lines of the ``.meta`` sidecar ``write_signal`` writes."""
    lines = (path.parent / (path.name + ".meta")).read_text(encoding="utf-8").splitlines()
    return dict(line.partition("=")[::2] for line in lines)


class TestSignalFiles:
    def test_real_round_trip(self, tmp_path, rng):
        buf = SignalBuffer(rng.standard_normal(999), 1280e6)
        path = tmp_path / "sig.f64"
        write_signal(buf, path)
        np.testing.assert_array_equal(np.fromfile(path, dtype="<f8"), buf.samples)
        assert read_sidecar(path) == {"rate_hz": "1280000000", "domain": "real",
                                      "length": "999", "label": "stacked:fdm"}

    def test_complex_round_trip_interleaved(self, tmp_path, rng):
        buf = SignalBuffer(rng.standard_normal(256) + 1j * rng.standard_normal(256), 64e6)
        path = tmp_path / "sig.c128"
        write_signal(buf, path)
        raw = np.fromfile(path, dtype="<f8")
        np.testing.assert_array_equal(raw[0::2], np.real(buf.samples))
        np.testing.assert_array_equal(raw[1::2], np.imag(buf.samples))
        np.testing.assert_array_equal(np.fromfile(path, dtype="<c16"), buf.samples)
        assert read_sidecar(path) == {"rate_hz": "64000000", "domain": "complex",
                                      "length": "256", "label": "stacked:fdm"}
