"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and measured values.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from scipy.fft import fft, hfft, ifft, ihfft

from fstack import complexity, frontend
from fstack.channelizer import awgn_sweep
from fstack.filter_design import (
    attenuation_to_ripple,
    estimate_fir_length,
    estimate_iir_sections,
    measure_fir,
    ripple_pp_db_to_linear,
)
from fstack.polyphase import (
    AnalysisBank,
    direct_channelize_oracle,
    prototype_impulse_response,
)
from fstack.stacking import StackingInputs, guardband_percentage, plan_stacking

pytestmark = pytest.mark.acceptance

TABLE_DF = 6.0 / 1280.0


class Gate:
    """Collects the verdict line for one criterion and enforces it."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.t0 = time.time()
        self.details = []

    def note(self, text):
        self.details.append(text)

    def finish(self, passed):
        elapsed = time.time() - self.t0
        verdict = "PASS" if passed and elapsed < self.budget_s else "FAIL"
        detail = "; ".join(self.details)
        print(
            f"ACCEPTANCE {self.number:2d} {verdict} [{elapsed:7.2f}s / "
            f"{self.budget_s:g}s] {self.title}: {detail}"
        )
        assert passed, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget_s, f"criterion {self.number} over budget"


def test_c01_stacking_plan_reproduction():
    gate = Gate(1, "stacking framework reproduces the reference plan", 1.0)
    inputs = StackingInputs(1280e6, 10e6, 1650.75e6, 2, 48.5e6, 20)
    plan = plan_stacking(inputs)
    ok = plan.f_p == pytest.approx(29e6, abs=1e-3) and plan.f_a == pytest.approx(
        35e6, abs=1e-3
    )
    gate.note(f"f_p={plan.f_p/1e6:g} MHz, f_a={plan.f_a/1e6:g} MHz")

    # independent exhaustive search for every offset
    shift = inputs.f_c - plan.rho * inputs.f_s
    for i, n in enumerate(plan.occupied_subbands):
        target = n * inputs.f_s / inputs.num_channels
        best = min(
            abs(plan.sign * (beta * inputs.f_o - shift) - target)
            for beta in range(1, 200)
            if 0 <= plan.sign * (beta * inputs.f_o - shift) <= inputs.f_s / 2
        )
        ok = ok and plan.offsets_hz[i] == pytest.approx(best, abs=1e-6)
    gate.note("offsets match exhaustive search")
    gate.finish(ok)


def test_c02_recursive_length_estimate():
    gate = Gate(2, "recursive coefficient-count estimate", 1.0)
    got = estimate_iir_sections(attenuation_to_ripple(49.09), TABLE_DF)
    gate.note(f"L_IIR estimate {got} (expect 180 +- 1)")
    gate.finish(abs(got - 180) <= 1)


def test_c03_fir_length_and_design(fir20):
    gate = Gate(3, "FIR length estimate and verified design", 120.0)
    dp = ripple_pp_db_to_linear(0.0492)
    ds = attenuation_to_ripple(51.42)
    est = estimate_fir_length(dp, ds, TABLE_DF)
    ok = 480 <= est <= 720
    gate.note(f"estimate {est} taps (600 +- 20%)")
    pass_dev, stop_max = measure_fir(fir20.coefficients, fir20.spec)
    ok = ok and 540 <= fir20.length <= 660
    ok = ok and pass_dev <= fir20.spec.passband_ripple
    ok = ok and stop_max <= fir20.spec.stopband_ripple
    gate.note(
        f"designed {fir20.length} taps, pass_dev {pass_dev:.3e}, "
        f"stop {-20*math.log10(stop_max):.2f} dB"
    )
    gate.finish(ok)


def test_c04_recursive_prototype_quality(iir20):
    gate = Gate(4, "recursive prototype meets reference quality", 300.0)
    rep = iir20.design_report
    ok = rep.stopband_atten_db >= 49.0
    ok = ok and rep.passband_dev_db <= 1e-3
    ok = ok and rep.phase_dev_deg < 1.0
    gate.note(
        f"guarded stopband {rep.stopband_atten_db:.2f} dB, passband "
        f"{rep.passband_dev_db*1e6:.0f} microdB, phase {rep.phase_dev_deg:.3f} deg"
    )
    gate.finish(ok)


def test_c05_bank_matches_direct_oracle(iir20, fir20, iir_small, fir_small):
    gate = Gate(5, "analysis bank equals the direct channelizer oracle", 60.0)
    rng = np.random.default_rng(977)
    x_full = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    worst = 0.0
    for n in (2, 4, 8, 20):
        protos = (
            iir20 if n == 20 else iir_small[n],
            fir20 if n == 20 else fir_small[n],
        )
        x = x_full[: (4096 // n) * n]
        for proto in protos:
            frames = AnalysisBank(proto).process_block(x)
            response = prototype_impulse_response(proto, min_length=x.size)
            for ch in range(n):
                oracle = direct_channelize_oracle(response, n, x, ch)
                err = np.max(np.abs(frames[:, ch] - oracle)) / np.max(np.abs(oracle))
                worst = max(worst, err)
    gate.note(f"worst relative deviation {worst:.3e} (bound 1e-10)")
    gate.finish(worst < 1e-10)


def test_c06_counters_equal_cost_model():
    gate = Gate(6, "operation counters equal the closed-form model", 10.0)
    from fstack.filter_design import AllPassPrototype, PrototypeSpec, fir_from_taps

    rng = np.random.default_rng(3)
    ok = True
    for n in (4, 16, 64):
        frames = 29
        l_fir = 6 * n
        bank = AnalysisBank(fir_from_taps(rng.standard_normal(l_fir), n))
        bank.process_block(rng.standard_normal(frames * n))
        a1, p1 = complexity.fir_candidate_cost(n, l_fir)
        ok = ok and bank.counters.real_adds == frames * a1
        ok = ok and bank.counters.real_mults == frames * p1

        spec = PrototypeSpec(1.0, 0.4 / n, 0.6 / n, 0.01, 0.01, n)
        bank = AnalysisBank(AllPassPrototype(np.full((n - 1, 4), 0.02 + 0j), spec))
        bank.process_block(rng.standard_normal(frames * n))
        a2, p2 = complexity.iir_candidate_cost(n, 4 * n)
        ok = ok and bank.counters.real_adds == frames * a2
        ok = ok and bank.counters.real_mults == frames * p2
    gate.note("exact equality for N in {4,16,64}, both kinds")

    rows = complexity.sweep(ripple_pp_db_to_linear(0.1), attenuation_to_ripple(50.0))
    ok = ok and all(r.a2 < r.a1 and r.p2 < r.p1 for r in rows)
    gate.note("sweep rows all favour the recursive candidate")
    gate.finish(ok)


def test_c07_fold_algebra_cross_check():
    gate = Gate(7, "RF-chain and baseband stacking agree with the plan", 120.0)
    from tests.test_frontend import band_power_centroid, symmetric_multitone

    ok = True
    worst_bins = 0.0
    for zone in (1, 2):
        inputs = StackingInputs(1280e6, 10e6, 1650.75e6, zone, 48.5e6, 20)
        plan = plan_stacking(inputs)
        rate = inputs.f_s / inputs.num_channels
        elements = [
            frontend.ElementSignal(n, symmetric_multitone(rate, 1 << 12))
            for n in plan.occupied_subbands
        ]
        bin_hz = inputs.f_s / frontend.PERIODOGRAM_NFFT
        half_b = inputs.bandwidth / 2.0
        for path, buf in (
            ("rf", frontend.simulate_rf_chain(elements, plan, oversample_factor=4)),
            ("baseband", frontend.stack_baseband_equivalent(elements, plan)),
        ):
            for element in elements:
                centre = plan.centre(element.subband_index)
                got = band_power_centroid(buf, centre - half_b, centre + half_b)
                worst_bins = max(worst_bins, abs(got - centre) / bin_hz)
                ok = ok and abs(got - centre) <= bin_hz
    gate.note(f"zones 1 and 2, both paths; worst offset {worst_bins:.3f} bins")
    gate.finish(ok)


def test_c08_end_to_end_transparency(float_reports):
    gate = Gate(8, "two-stage float transparency, both candidates", 300.0)
    values = {k: rep.mse_over_signal for k, rep in float_reports.items()}
    ok = all(v <= 1e-5 for v in values.values())
    ratio = max(values.values()) / min(values.values())
    ok = ok and ratio <= 2.0
    gate.note(
        f"relative MSE iir {values['iir']:.3e}, fir {values['fir']:.3e}, "
        f"ratio {ratio:.2f}"
    )
    gate.finish(ok)


def test_c09_awgn_sweep(pipelines):
    gate = Gate(9, "AWGN sweep monotone with matched candidates", 600.0)
    rows = awgn_sweep(
        pipelines["pipes"], pipelines["stimulus"], (35.0, 45.0, 55.0, 65.0, 75.0),
        seed=1234,
    )
    ok = True
    prev = {"iir": np.inf, "fir": np.inf}
    max_gap = 0.0
    for snr_db, point in rows:
        for kind in ("iir", "fir"):
            ok = ok and point[kind] <= prev[kind] * (1.0 + 1e-9)
        if snr_db >= 45.0:
            gap = abs(10 * math.log10(point["iir"] / point["fir"]))
            max_gap = max(max_gap, gap)
            ok = ok and gap <= 1.0
        prev = point
    at35 = rows[0][1]
    gate.note(
        f"at 35 dB: iir {at35['iir']:.3e}, fir {at35['fir']:.3e} (recorded); "
        f"max gap above 45 dB {max_gap:.2f} dB"
    )
    gate.finish(ok)


def test_c10_guardband_budget():
    gate = Gate(10, "guardband percentage formula", 1.0)
    ok = guardband_percentage(TABLE_DF, 20) == pytest.approx(9.375, abs=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 80))
        df = float(rng.uniform(1e-5, 1.0 / n))
        scale = float(rng.uniform(0.1, 1.0))
        ok = ok and guardband_percentage(df * scale, n) == pytest.approx(
            scale * guardband_percentage(df, n), rel=1e-12
        )
    gate.note("9.375% at the reference point; linear in width and channels")
    gate.finish(ok)


def test_c11_transform_core():
    gate = Gate(11, "transform core at the channelizer sizes", 60.0)
    rng = np.random.default_rng(55)
    worst = 0.0
    for n in (20, 1280, 2048):  # even: the half spectrum ends on the Nyquist bin
        k = np.arange(n)
        kernel = np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = rng.standard_normal(n)
        # the banks' calls: fft and ifft on complex data, ihfft on the real
        # input (channels 0..n/2 of its ifft) and hfft back to real
        spectrum, half = fft(x), ihfft(r)
        direct, half_direct = kernel @ x, np.conj(kernel[: n // 2 + 1] @ r) / n
        weights = np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0]  # bins 1..n/2-1 stand for two
        errors = [
            np.max(np.abs(ifft(spectrum) - x)),  # round trips
            np.max(np.abs(hfft(half, n) - r)),
            abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(spectrum) ** 2) / n)  # Parseval
            / np.sum(np.abs(x) ** 2),
            abs(np.sum(r**2) - n * np.sum(weights * np.abs(half) ** 2)) / np.sum(r**2),
            np.max(np.abs(spectrum - direct)) / np.max(np.abs(direct)),  # DFT kernel
            np.max(np.abs(half - half_direct)) / np.max(np.abs(half_direct)),
        ]
        worst = max(worst, *errors)
    gate.note(f"scipy.fft fft/ifft and ihfft/hfft at sizes 20/1280/2048: round trip, "
              f"Parseval, DFT kernel (worst {worst:.2e})")
    gate.finish(worst < 1e-10)
