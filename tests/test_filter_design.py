"""Filter design tests: estimators, equiripple FIR, recursive Nth-band."""

import math

import numpy as np
import pytest
import scipy.signal

from fstack.channelizer import ChannelPlan
from fstack.errors import DesignFailureError, InvalidSpecError, StabilityError
from fstack import filter_design
from fstack.filter_design import (
    AllPassPrototype,
    FirPrototype,
    PrototypeSpec,
    attenuation_to_ripple,
    composite_response,
    design_fir_equiripple,
    design_iir_nthband_alp,
    estimate_fir_length,
    kaiser_taps,
    estimate_iir_sections,
    export_coefficients,
    fir_from_taps,
    measure_fir,
    ripple_pp_db_to_linear,
)
from fstack.config import load_config
from fstack.pipeline import build_coarse_prototype, build_plan
from tests.test_cli import write_mini

TABLE_DF = 6.0 / 1280.0
QUARTER_BAND = PrototypeSpec(1.0, 0.2, 0.3, 0.01, 0.01, 1)  # passes on the 5th length

# alphas of the iir_small fixture designs for N = 4 and N = 8, printed with
# repr() from the fit that stops once its least peak phase error has
# converged (_FIT_RTOL = 1e-3 over _FIT_WINDOW = 10 steps); a change that
# alters the fit's trajectory or its stopping rule moves them
PINNED_SMALL_ALPHAS = {
    4: [
        [
            -0.30163105077948077, -0.015266600748864895-0.32196996813165074j,
            -0.015266600748864895+0.32196996813165074j, 0.5720205821427895,
        ],
        [
            -0.27533842060284797, 0.00955933463154829-0.3014774559825413j,
            0.00955933463154829+0.3014774559825413j, 0.7417420569238472,
        ],
        [
            -0.20992999943608626, 0.03577719884044532-0.23493153311177828j,
            0.03577719884044532+0.23493153311177828j, 0.8767268766348497,
        ],
    ],
    8: [
        [
            -0.263367385596572-0.1798995693426906j, -0.263367385596572+0.1798995693426906j,
            0.07581384334931474-0.33504507552656754j, 0.07581384334931474+0.33504507552656754j,
            0.49517568841048076,
        ],
        [
            -0.2727823778361086-0.19030263339562503j, -0.2727823778361086+0.19030263339562503j,
            0.08884008245431327-0.3510936764550117j, 0.08884008245431327+0.3510936764550117j,
            0.6092043329443264,
        ],
        [
            -0.26490159232234584-0.18945078297258858j, -0.26490159232234584+0.18945078297258858j,
            0.09980571383922471-0.34495684415342165j, 0.09980571383922471+0.34495684415342165j,
            0.6940468970160883,
        ],
        [
            -0.24804461923467547-0.1824124798449983j, -0.24804461923467547+0.1824124798449983j,
            0.1091697647666403-0.3266994896396778j, 0.1091697647666403+0.3266994896396778j,
            0.7655345913933389,
        ],
        [
            -0.22466053404750097-0.17050690329906734j, -0.22466053404750097+0.17050690329906734j,
            0.11653904247533345-0.29877565239687476j, 0.11653904247533345+0.29877565239687476j,
            0.829470359558406,
        ],
        [
            -0.1949116414089765-0.15347687346775388j, -0.1949116414089765+0.15347687346775388j,
            0.12067429088379014-0.2603599332825291j, 0.12067429088379014+0.2603599332825291j,
            0.8887877151158943,
        ],
        [
            -0.15549666504997361-0.12830424478849015j, -0.15549666504997361+0.12830424478849015j,
            0.11747004746111656-0.20518607519791665j, 0.11747004746111656+0.20518607519791665j,
            0.9452375057133249,
        ],
    ],
}

# peak phase errors (rad) of the default design's 19 branch fits, printed with
# repr() when every fit ran all 200 Gauss-Newton steps
FULL_RUN_DEFAULT_PEAKS = (
    0.0007664868925842919,
    0.001295708484121205,
    0.0016343919228522922,
    0.001822068568101083,
    0.0018924857533701568,
    0.0018744630855537972,
    0.0017914636409783107,
    0.001663406138764688,
    0.0015057623696692584,
    0.001331761028930921,
    0.0011515123189791633,
    0.0009723218591998247,
    0.000800341822150717,
    0.0006396332201801222,
    0.000492829477749794,
    0.00036173741875775655,
    0.0002470943324255777,
    0.00014897141124948493,
    6.68920428937103e-05,
)
# the stopped fits may lose at most 1 % on each of those peaks: the guarded
# stopband leakage grows about in proportion to the branch phase errors, so
# 1 % costs at most 20*log10(1.01) = 0.086 dB of the default design's
# 0.43 dB margin over its 66.5 dB spec
STOPPED_PEAK_TOL = 0.01


class TestEstimators:
    def test_fir_reference_point(self):
        assert estimate_fir_length(0.001, 0.001, 0.1) == 33

    def test_fir_clamps_at_one(self):
        # -10 log10(dp*ds) = 15 exactly makes the numerator zero
        ripple = 10.0 ** (-0.75)
        assert estimate_fir_length(ripple, ripple, 0.1) == 1

    def test_fir_table_point_within_twenty_percent(self):
        dp = ripple_pp_db_to_linear(0.0492)
        ds = attenuation_to_ripple(51.42)
        est = estimate_fir_length(dp, ds, TABLE_DF)
        assert 0.8 * 600 <= est <= 1.2 * 600

    def test_fir_rejects_bad_width(self):
        with pytest.raises(InvalidSpecError):
            estimate_fir_length(0.01, 0.01, 0.0)

    def test_iir_reference_point(self):
        # 49.09 dB attenuation: -10 log10(ds) = 24.545
        ds = attenuation_to_ripple(49.09)
        assert abs(estimate_iir_sections(ds, TABLE_DF) - 180) <= 1

    def test_iir_numerator_zero(self):
        assert estimate_iir_sections(0.1, 0.1) == 0  # -10log10(0.1) = 10 exactly

    def test_iir_forty_db_point(self):
        assert estimate_iir_sections(0.1 ** 2, 0.058) == 10

    def test_iir_rejects_bad_width(self):
        with pytest.raises(InvalidSpecError):
            estimate_iir_sections(0.01, -0.1)


class TestSpecValidation:
    def test_rejects_inverted_edges(self):
        with pytest.raises(InvalidSpecError):
            PrototypeSpec(1.0, 0.3, 0.2, 0.01, 0.01, 4)

    def test_rejects_stopband_beyond_nyquist(self):
        with pytest.raises(InvalidSpecError):
            PrototypeSpec(1.0, 0.2, 0.6, 0.01, 0.01, 4)

    def test_rejects_silly_ripples(self):
        with pytest.raises(InvalidSpecError):
            PrototypeSpec(1.0, 0.2, 0.3, 0.0, 0.01, 4)

    @pytest.mark.parametrize("build", [
        lambda: PrototypeSpec(math.nan, 0.2, 0.3, 0.01, 0.01, 4),
        lambda: PrototypeSpec(math.inf, 0.2, 0.3, 0.01, 0.01, 4),
        lambda: PrototypeSpec(1.0, 0.2, 0.3, 0.01, 0.01, 2.5),
        lambda: ChannelPlan(math.nan, 64e6, 0.1),
        lambda: ChannelPlan(1e6, math.inf, 0.1),
    ], ids=["nan_rate", "inf_rate", "fractional_branches", "nan_granularity", "inf_subband_rate"])
    def test_rejects_non_finite_and_non_integer_values(self, build):
        # a NaN or inf rate passes every edge comparison of the spec, and
        # the fine grid's round() would raise ValueError or OverflowError
        with pytest.raises(InvalidSpecError):
            build()


def _failing_remez(*args, **kwargs):
    raise ValueError("exchange did not converge")


class TestFirDesign:
    def test_quarter_band_point(self):
        spec = PrototypeSpec(1.0, 0.2, 0.3, 0.001, 0.001, 1)
        proto = design_fir_equiripple(spec)
        assert 31 <= proto.length <= 37
        rep = proto.design_report
        assert rep.ok_passband and rep.ok_stopband

    def test_looser_quarter_band_point(self):
        spec = PrototypeSpec(1.0, 0.2, 0.3, 0.01, 0.01, 1)
        assert estimate_fir_length(0.01, 0.01, 0.1) == 18
        proto = design_fir_equiripple(spec)
        assert proto.design_report.ok
        assert proto.length <= 24

    def test_table_point_length_and_spec(self, fir20):
        assert abs(fir20.length - 600) <= 60  # within ten percent
        rep = fir20.design_report
        assert rep.ok_passband and rep.ok_stopband
        assert rep.method == "remez"
        assert fir20.length % 20 == 0

    def test_unconstrained_spec_is_tiny(self):
        spec = PrototypeSpec(1.0, 0.2, 0.45, 0.5, 0.5, 1)
        proto = design_fir_equiripple(spec)
        assert proto.length <= 3
        assert proto.design_report.ok

    def test_taps_are_symmetric(self, fir20):
        taps = fir20.coefficients
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-12)

    def test_length_bookkeeping(self, fir20):
        n = fir20.spec.num_branches
        assert fir20.length == n * (fir20.sections_per_branch + 1)

    def test_impossible_spec_reports_failure(self, monkeypatch):
        monkeypatch.setattr(filter_design, "_LENGTH_ATTEMPTS", 3)
        spec = PrototypeSpec(1.0, 0.2, 0.201, 1e-4, 1e-6, 1)
        with pytest.raises(DesignFailureError) as err:
            design_fir_equiripple(spec)
        assert err.value.report is not None

    def test_quarter_band_passes_on_fifth_length(self):
        assert estimate_fir_length(0.01, 0.01, 0.1) == 18
        rep = design_fir_equiripple(QUARTER_BAND).design_report
        assert rep.ok and rep.method == "remez"
        assert rep.length == 22  # 18, 19, 20 and 21 taps miss

    def test_max_attempts_reports_best_length(self, monkeypatch):
        monkeypatch.setattr(filter_design, "_LENGTH_ATTEMPTS", 3)
        with pytest.raises(DesignFailureError, match="within 3 attempts") as err:
            design_fir_equiripple(QUARTER_BAND)
        assert not err.value.report.ok
        assert err.value.report.length == 19  # the best of 18, 19 and 20 taps

    def test_kaiser_fallback_when_remez_raises(self, monkeypatch):
        # design_fir_equiripple imports remez from scipy.signal when it runs
        monkeypatch.setattr(scipy.signal, "remez", _failing_remez)
        proto = design_fir_equiripple(QUARTER_BAND)
        rep = proto.design_report
        assert rep.ok and rep.method == "kaiser"
        np.testing.assert_array_equal(proto.coefficients, kaiser_taps(rep.length, QUARTER_BAND))
        # every shorter window from the estimate on misses the spec
        shorter = [measure_fir(kaiser_taps(n, QUARTER_BAND), QUARTER_BAND)
                   for n in range(18, rep.length)]
        assert all(max(devs) > 0.01 for devs in shorter)


_fit_branch_delay = filter_design._fit_branch_delay
_design_at_order = filter_design._design_iir_at_order


def _fit_failing_below_3_6(order, delay, w_max):
    if delay < 3.6:
        raise DesignFailureError(f"no stable all-pass fit for order={order}, delay={delay:.4f}")
    return _fit_branch_delay(order, delay, w_max)


class TestRecursiveDesign:
    def test_halfband_class_filter(self, monkeypatch):
        # two sections per branch only reach ~29 dB at this transition
        # width, with a correspondingly relaxed phase-linearity bound
        monkeypatch.setattr(filter_design, "_PHASE_LIMIT_DEG", 6.0)
        spec = PrototypeSpec(1.0, 0.2, 0.3, 0.01, attenuation_to_ripple(28.0), 2)
        proto = _design_at_order(spec, 2)
        rep = proto.design_report
        # passband flatness lands at the micro-to-milli dB level
        assert rep.passband_dev_db < 0.02
        assert rep.stopband_atten_db >= 28.0

    def test_table_point(self, iir20):
        rep = iir20.design_report
        assert (iir20.sections_per_branch, iir20.coefficient_count) == (9, 180)
        assert rep.stopband_atten_db >= 49.0
        assert rep.passband_dev_db <= 1e-3  # criterion bound; 140 udB target
        assert rep.phase_dev_deg < 1.0

    def test_single_branch_degenerates(self):
        spec = PrototypeSpec(1.0, 0.2, 0.3, 0.01, 0.01, 1)
        proto = _design_at_order(spec, 3)
        assert proto.alphas.shape[0] == 0
        assert proto.coefficient_count == 3

    def test_stability_margin(self, iir20):
        assert np.max(np.abs(iir20.alphas)) <= 1.0 - 1e-6

    def test_alphas_conjugate_paired(self, iir20):
        # real-coefficient branches: section coefficients close under conjugation
        for row in iir20.alphas:
            sorted_row = np.sort_complex(row)
            np.testing.assert_allclose(
                sorted_row, np.sort_complex(np.conj(row)), atol=1e-9
            )

    def test_branch_denominators_real(self, iir20):
        for n in range(1, iir20.num_branches):
            d = iir20.branch_denominator(n)
            assert d.dtype == np.float64
            assert d[0] == pytest.approx(1.0)

    def test_spike_confinement(self, iir20):
        """Outside the transition-band images the stopband spec holds."""
        spec = iir20.spec
        freqs = np.linspace(0.0, 0.5, 1 << 16)
        mag = np.abs(composite_response(iir20, freqs))
        guarded = filter_design._guarded_stopband_mask(freqs, 20, spec.fp_norm, spec.fa_norm)
        in_spike = (freqs >= spec.fa_norm) & ~guarded
        assert np.max(mag[guarded]) <= spec.stopband_ripple
        # and the spikes genuinely exist inside the guardband images
        assert np.max(mag[in_spike]) > 10.0 * spec.stopband_ripple

    def test_verification_failure_raises_with_report(self, iir20_spec):
        with pytest.raises(DesignFailureError) as err:
            _design_at_order(iir20_spec, 2)  # far too few sections
        assert err.value.report is not None
        assert err.value.report.stopband_atten_db < 49.0

    def test_coefficient_fit_reproduction(self):
        """The empirical coefficient-count fit tracks regenerated designs.

        For points inside the fit's validity envelope, the predicted
        L_IIR lies within +-15% of the smallest coefficient count our
        own designs need to reach the target stopband attenuation (the
        quantity the fit models).
        """
        points = [
            (4, 30.0, 40.0, (1, 2, 3)),
            (8, 20.0, 40.0, (2, 3, 4)),
            (16, 10.0, 50.0, (7, 8, 9, 10)),
        ]
        for n, guard_pct, atten_db, orders in points:
            delta_f = guard_pct / (100.0 * n)
            predicted = estimate_iir_sections(attenuation_to_ripple(atten_db), delta_f)
            fp_norm = (1.0 / n - delta_f) / 2.0
            spec = PrototypeSpec(
                1.0, fp_norm, fp_norm + delta_f, 0.01,
                attenuation_to_ripple(120.0), n,  # never passes; read report
            )
            achieved = None
            for order in orders:
                try:
                    report = _design_at_order(spec, order).design_report
                except DesignFailureError as err:
                    report = err.report
                if report.stopband_atten_db >= atten_db:
                    achieved = n * order
                    break
            assert achieved is not None, f"no design reached {atten_db} dB at N={n}"
            assert abs(predicted - achieved) / achieved <= 0.15, (
                f"N={n}: predicted {predicted}, achieved {achieved}"
            )

    @pytest.mark.parametrize("n", [4, 8])
    def test_fit_trajectory_pinned(self, iir_small, n):
        expected = np.array(PINNED_SMALL_ALPHAS[n])
        np.testing.assert_allclose(iir_small[n].alphas, expected, rtol=1e-10, atol=0)

    def test_branch_fit_failure_reaches_caller(self, iir_small, monkeypatch):
        monkeypatch.setattr(filter_design, "_fit_branch_delay", _fit_failing_below_3_6)
        # N = 4, four sections: delays 3.75, 3.5 and 3.25; the first failure in
        # branch order is reported
        with pytest.raises(DesignFailureError, match=r"order=4, delay=3\.5000$"):
            _design_at_order(iir_small[4].spec, 4)

    def test_branch_errors_belong_to_returned_denominators(self, ref_cfg, monkeypatch):
        # the fit carries each iterate's phase error along instead of
        # recomputing it: the reported peak must still be the error of the
        # denominator it returns, evaluated afresh on the fit's grid
        fits = []

        def recording_fit(order, delay, w_max):
            fits.append((order, delay, w_max, *_fit_branch_delay(order, delay, w_max)))
            return fits[-1][3:]

        monkeypatch.setattr(filter_design, "_fit_branch_delay", recording_fit)
        proto = build_coarse_prototype(ref_cfg, build_plan(ref_cfg), "iir")
        assert len(fits) == proto.num_branches - 1 == 19
        assert proto.design_report.branch_phase_err_rad == tuple(fit[4] for fit in fits)
        assert proto.design_report.branch_fit_steps == tuple(fit[5] for fit in fits)
        for order, delay, w_max, d, peak, _ in fits:
            w = np.linspace(1e-9, w_max, 1024)
            kernel = np.exp(-1j * np.outer(w, np.arange(1, order + 1)))
            rot = np.exp(-1j * 0.5 * (delay - order) * w)
            err, _ = filter_design._branch_phase_error(d, kernel, rot)
            assert peak == np.abs(err).max()

    def test_stopped_fits_keep_full_run_peaks(self, pipelines):
        rep = pipelines["pipes"]["iir"].coarse_prototype.design_report
        assert len(rep.branch_phase_err_rad) == len(FULL_RUN_DEFAULT_PEAKS) == 19
        for got, full in zip(rep.branch_phase_err_rad, FULL_RUN_DEFAULT_PEAKS):
            assert got <= (1.0 + STOPPED_PEAK_TOL) * full
        assert max(rep.branch_fit_steps) < filter_design._FIT_MAX_STEPS

    def test_stalled_fit_returns_its_seed(self, monkeypatch):
        # the first branch of the N = 4 fixture: order 4, delay 3.75, w_max 0.8*pi
        args = (4, 3.75, 2.0 * np.pi * 4 * 0.1)
        with monkeypatch.context() as m:
            m.setattr(filter_design, "_FIT_MAX_STEPS", 0)
            seed, seed_peak, _ = _fit_branch_delay(*args)
        calls = []

        def singular_solve(a, b):
            calls.append(a)
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(filter_design.np.linalg, "solve", singular_solve)
        d, peak, steps = _fit_branch_delay(*args)
        assert np.array_equal(d, seed) and peak == seed_peak
        assert steps <= 11 and len(calls) == 15 * steps


def _record_orders(monkeypatch):
    """Orders the search tries from now on, in order."""
    tried = []

    def recording(spec, order):
        tried.append(order)
        return _design_at_order(spec, order)

    monkeypatch.setattr(filter_design, "_design_iir_at_order", recording)
    return tried


class TestOrderSearch:
    """design_iir_nthband_alp sizes the design from its spec alone."""

    def test_operating_points_take_one_attempt(self, pipelines, iir20, monkeypatch):
        # the default (14 sections) and the reference (9 sections) come out of
        # the estimate's order, so the search designs each once, and the
        # design is the fixed-order one bit for bit
        default = pipelines["pipes"]["iir"].coarse_prototype
        tried = _record_orders(monkeypatch)
        for searched, order in ((default, 14), (iir20, 9)):
            tried.clear()
            again = design_iir_nthband_alp(searched.spec)
            assert tried == [order] == [searched.sections_per_branch]
            assert np.array_equal(again.alphas, searched.alphas)

    def test_undershooting_estimate_steps_up(self, iir_small, monkeypatch):
        spec = iir_small[8].spec
        assert filter_design.estimate_iir_order(spec.stopband_ripple, spec.delta_f, 8) == 3
        tried = _record_orders(monkeypatch)
        proto = design_iir_nthband_alp(spec)
        assert tried == [3, 4]
        assert proto.sections_per_branch == 4 and proto.design_report.ok

    def test_fit_failure_moves_to_next_order(self, iir_small, monkeypatch):
        def failing_at_4(order, delay, w_max):
            if order == 4:
                raise DesignFailureError(f"no stable all-pass fit for order={order}")
            return _fit_branch_delay(order, delay, w_max)

        monkeypatch.setattr(filter_design, "_fit_branch_delay", failing_at_4)
        # the estimate's order, 4, would pass
        proto = design_iir_nthband_alp(iir_small[4].spec)
        assert proto.sections_per_branch == 5 and proto.design_report.ok

    def test_no_passing_order_raises_with_report(self, iir_small, monkeypatch):
        monkeypatch.setattr(filter_design, "_ORDER_ATTEMPTS", 1)
        with pytest.raises(DesignFailureError, match="at 3-3 sections per branch") as err:
            design_iir_nthband_alp(iir_small[8].spec)
        report = err.value.report
        assert report is not None and not report.ok
        assert len(report.branch_fit_steps) == 7

    def test_search_stops_when_an_order_does_not_improve(self, tmp_path, monkeypatch):
        # beyond the fit's reach: at 400 dB the mini spec's guarded stopband
        # falls from order 45 to 46 (about 197 to 192 dB), so the search ends there
        cfg = load_config(write_mini(tmp_path, **{"stopband_db = 50": "stopband_db = 400"}))
        tried = _record_orders(monkeypatch)
        with pytest.raises(DesignFailureError, match="at 45-46 sections per branch") as err:
            build_coarse_prototype(cfg, build_plan(cfg), "iir")
        assert tried == [45, 46]
        # the better of the two reports, order 45's, is attached
        assert err.value.report.stopband_atten_db == pytest.approx(197.1, abs=0.05)

    def test_no_stable_fit_raises_without_report(self, iir_small, monkeypatch):
        def no_fit(order, delay, w_max):
            raise DesignFailureError(f"no stable all-pass fit for order={order}")

        monkeypatch.setattr(filter_design, "_fit_branch_delay", no_fit)
        with pytest.raises(DesignFailureError, match=r"at 4-11 sections per branch$") as err:
            design_iir_nthband_alp(iir_small[4].spec)
        assert err.value.report is None


def explicit_branch_response(proto, branch, w_dec):
    """Oracle: branch response from the explicit exp(-j*outer(w, m)) sum."""
    n_br = proto.num_branches
    delay = np.exp(-1j * w_dec * proto.sections_per_branch)
    if branch == 0:
        return delay / n_br
    d = proto.branch_denominator(branch)
    m = np.arange(1, d.size)
    dw = d[0] + (np.exp(-1j * np.outer(w_dec, m)) * d[1:]).sum(axis=1)
    return delay * np.conj(dw) / dw / n_br


def random_stable_alphas(order, rng):
    """Section coefficients of a random stable real denominator of ``order``."""
    pairs = order // 2
    radius = rng.uniform(0.05, 0.95, pairs)
    angle = rng.uniform(0.0, np.pi, pairs)
    upper = radius * np.exp(1j * angle)
    real = rng.uniform(-0.95, 0.95, order - 2 * pairs)
    return np.concatenate([upper, np.conj(upper), real])


def explicit_composite_response(proto, freqs):
    """Oracle: the per-branch sum, each branch with its own delay and exponentials."""
    w_full = 2.0 * np.pi * np.asarray(freqs)
    w_dec = proto.num_branches * w_full
    return sum(np.exp(-1j * w_full * n) * explicit_branch_response(proto, n, w_dec)
               for n in range(proto.num_branches))


class TestCompositeResponse:
    FREQS = np.linspace(0.0, 0.5, 16385)

    @pytest.mark.parametrize("order", [1, 2, 9, 14])
    def test_random_prototype_matches_per_branch_sum(self, order, rng):
        # the Horner evaluation of random stable denominators; at N = 3 the
        # grid reaches 3*pi at the decimated rate.  The bound is 1e-12
        # relative to each branch's 1/N, summed over the N branches
        spec = PrototypeSpec(1.0, 0.1, 0.2, 0.01, 0.01, 3)
        alphas = np.stack([random_stable_alphas(order, rng) for _ in range(2)])
        proto = AllPassPrototype(alphas, spec)
        np.testing.assert_allclose(composite_response(proto, self.FREQS),
                                   explicit_composite_response(proto, self.FREQS),
                                   rtol=0, atol=1e-12)

    def test_iir20_matches_per_branch_sum(self, iir20):
        np.testing.assert_allclose(composite_response(iir20, self.FREQS),
                                   explicit_composite_response(iir20, self.FREQS),
                                   rtol=0, atol=1e-13)

    def test_reference_design_matches_per_branch_sum(self, pipelines):
        proto = pipelines["pipes"]["iir"].coarse_prototype
        assert proto.sections_per_branch == 14
        np.testing.assert_allclose(composite_response(proto, self.FREQS),
                                   explicit_composite_response(proto, self.FREQS),
                                   rtol=0, atol=1e-13)


class TestStabilityTest:
    def test_order_zero_is_stable(self):
        assert filter_design._stable(np.zeros(0))


class TestResponses:
    def test_unit_tap_is_flat(self):
        h = composite_response(fir_from_taps([1.0], 1), np.linspace(0.0, 0.5, 256))
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.angle(h), 0.0, atol=1e-12)

    def test_recursive_dc_gain(self, iir20):
        h = composite_response(iir20, np.array([0.0]))
        assert abs(20.0 * math.log10(abs(h[0]))) < 1e-9 * 20  # coherent sum at DC

    def test_channel_centre_image_attenuated(self, iir20):
        # k/N images sit in the guarded stopband
        h = composite_response(iir20, np.array([1.0 / 20.0]))
        assert 20.0 * math.log10(abs(h[0])) <= -49.0

    def test_transition_image_carries_spike(self, iir20):
        # midway between channel centres the recursive filter spikes;
        # that is exactly what the plan's guardbands are for
        h = composite_response(iir20, np.array([1.5 / 20.0]))
        assert 20.0 * math.log10(abs(h[0])) > -20.0


def read_coefficient_file(path):
    """(header, body lines) of a coefficient file: '# key=value' lines, then the rest."""
    header, body = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            header[key.strip()] = val.strip()
        else:
            body.append(line)
    return header, body


class TestCoefficientFiles:
    def test_fir_round_trip(self, tmp_path, fir20):
        path = tmp_path / "fir.coef"
        export_coefficients(fir20, path)
        header, body = read_coefficient_file(path)
        assert (header["kind"], header["N"]) == ("fir", "20")
        # the FIR's sections per branch: ceil(L/N) - 1
        assert header["n_fos"] == str(math.ceil(fir20.length / 20) - 1)
        np.testing.assert_array_equal(np.array([float(tap) for tap in body]),
                                      fir20.coefficients)

    def test_recursive_round_trip(self, tmp_path, iir20):
        path = tmp_path / "iir.coef"
        export_coefficients(iir20, path)
        header, body = read_coefficient_file(path)
        assert (header["kind"], header["N"], header["n_fos"]) == ("iir", "20", "9")
        alphas = np.full(iir20.alphas.shape, np.nan, dtype=np.complex128)
        for line in body:
            branch, section, re, im = line.split(",")
            alphas[int(branch) - 1, int(section)] = complex(float(re), float(im))
        np.testing.assert_array_equal(alphas, iir20.alphas)

    def test_one_spec_designs_both_kinds(self, tmp_path):
        # the spec names no kind: the designer picks it, the class records it
        spec = PrototypeSpec(1.0, 0.1, 0.15, 0.01, 0.01, 4)
        for design, cls, kind in [(design_fir_equiripple, FirPrototype, "fir"),
                                  (design_iir_nthband_alp, AllPassPrototype, "iir")]:
            proto = design(spec)
            assert type(proto) is cls and proto.spec is spec
            export_coefficients(proto, tmp_path / f"{kind}.coef")
            assert read_coefficient_file(tmp_path / f"{kind}.coef")[0]["kind"] == kind

    # a NaN coefficient compares False both ways, so it must fail a "< 1" test
    @pytest.mark.parametrize("alpha", [1.0 + 0j, np.nan, complex(np.nan, 0.1)])
    def test_unstable_prototype_constructor(self, alpha):
        spec = PrototypeSpec(1.0, 0.1, 0.15, 0.01, 0.01, 2)
        with pytest.raises(StabilityError):
            AllPassPrototype(np.array([[alpha]]), spec)

    @pytest.mark.parametrize("row", [[0.3 + 0.2j, 0.1], [0.3 + 0.2j, 0.3 - 0.2000001j]])
    def test_unpaired_complex_section_rejected(self, row):
        # (a + z^-1)/(1 + a z^-1) is all-pass only for real a, or next to conj(a)
        spec = PrototypeSpec(1.0, 0.1, 0.15, 0.01, 0.01, 2)
        with pytest.raises(InvalidSpecError, match="no exact conjugate"):
            AllPassPrototype(np.array([row]), spec)
        AllPassPrototype(np.array([[0.3 + 0.2j, 0.3 - 0.2j]]), spec)


class TestBookkeepingInvariants:
    def test_recursive_counts(self, iir20, iir_small):
        for proto in [iir20, *iir_small.values()]:
            assert proto.coefficient_count == proto.num_branches * proto.sections_per_branch

    def test_fir_counts(self, fir20, fir_small):
        for proto in [fir20, *fir_small.values()]:
            n = proto.spec.num_branches
            assert proto.length == n * (proto.sections_per_branch + 1)

    def test_branches_and_order_come_from_inputs(self):
        spec = PrototypeSpec(1.0, 0.02, 0.105, 0.01, 0.01, 8)
        proto = AllPassPrototype(np.full((7, 2), 0.1 + 0j), spec)
        assert (proto.num_branches, proto.sections_per_branch) == (8, 2)
        # three rows on an N = 8 spec would leave the bank four branches
        # of memory that no alpha ever filled
        with pytest.raises(InvalidSpecError, match=r"3 rows; N = 8 needs N - 1 = 7"):
            AllPassPrototype(np.full((3, 2), 0.1 + 0j), spec)
