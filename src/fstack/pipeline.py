"""Pipeline construction from a run configuration.

Builds the stacking plan, both coarse prototype candidates, the fine
channel grid and prototype, the pipeline config and the stacked FDM
stimulus.  The command-line front end, the tests and the benchmark build
their pipelines through these functions.
"""

import dataclasses
import math

import numpy as np

from . import frontend
from .channelizer import ChannelPlan, ChanneliserConfig
from .errors import DesignFailureError
from .filter_design import (
    FirPrototype,
    PrototypeSpec,
    attenuation_to_ripple,
    check_fir,
    design_fir_equiripple,
    design_iir_nthband_alp,
    estimate_fir_length,
    kaiser_taps,
    measure_fir,
    ripple_pp_db_to_linear,
)
from .stacking import StackingInputs, plan_stacking

# Fine prototype targets.  Reconstruction error of a maximally decimated
# bank scales like N * stopband_ripple^2 (stopband leakage aggregates
# across the branch responses), so the two-stage transparency budget of
# 1e-5 forces roughly 70 dB at N_f = 64 regardless of how sparsely the
# user channels are occupied.
FINE_STOPBAND_DB = 70.0
FINE_PASSBAND_RIPPLE = 2e-4
# above this estimated length (full-scale grids) the fine prototype is a Kaiser
# window: all N_f - 1 stopband aliases land on each channel, and those of a flat
# equiripple stopband add up (5.2e-7 at GMR-2 against the 7e-8 fine-stage check)
FINE_REMEZ_LIMIT = 8192


def build_plan(cfg):
    inputs = StackingInputs(
        f_s=cfg.fs_hz,
        f_o=cfg.fo_hz,
        f_c=cfg.fc_hz,
        nyquist_zone=cfg.nyquist_zone,
        bandwidth=cfg.bandwidth_hz,
        num_channels=2 * cfg.num_coarse_channels,
    )
    return plan_stacking(inputs)


def _coarse_spec(cfg, plan, kind):
    """Coarse prototype spec; ``kind`` "fir" takes the FIR candidate's stopband."""
    stop_db = cfg.fir_stopband_db if kind == "fir" else cfg.stopband_db
    return PrototypeSpec(
        sample_rate_hz=cfg.fs_hz,
        passband_edge_hz=plan.f_p,
        stopband_edge_hz=plan.f_a,
        passband_ripple=ripple_pp_db_to_linear(cfg.passband_ripple_db),
        stopband_ripple=attenuation_to_ripple(stop_db),
        num_branches=plan.inputs.num_channels,
    )


def build_coarse_prototype(cfg, plan, kind):
    spec = _coarse_spec(cfg, plan, kind)
    if kind == "fir":
        return design_fir_equiripple(spec)
    return design_iir_nthband_alp(spec)


def build_channel_plan(cfg):
    """Fine grid of ``granularity_hz`` (the config resolves the GMR grids)."""
    subband_rate = cfg.fs_hz / (2 * cfg.num_coarse_channels)
    return ChannelPlan(cfg.granularity_hz, subband_rate, cfg.guardband_fraction)


def build_fine_prototype(cfg, channel_plan):
    """Fine-stage prototype: stopband at the channel edge.

    The spec does not change with N_f (f_p * N_f, f_a * N_f and the
    ripples), so desk grids stretch an equiripple design at N0 = min(8, N_f)
    branches, K taps per branch, to K * N_f taps; stretched down from 8,
    N_f = 2, 4 and 7 miss the spec.  Full-scale grids take the shortest
    Kaiser window that passes.
    """
    n_f = channel_plan.channels_per_subband
    rate = channel_plan.subband_rate_hz
    guard = channel_plan.guardband_fraction
    spec = PrototypeSpec(
        sample_rate_hz=rate,
        passband_edge_hz=(1.0 - guard) * 0.5 * rate / n_f,
        stopband_edge_hz=0.5 * rate / n_f,
        passband_ripple=FINE_PASSBAND_RIPPLE,
        stopband_ripple=attenuation_to_ripple(FINE_STOPBAND_DB),
        num_branches=n_f,
    )
    est = estimate_fir_length(spec.passband_ripple, spec.stopband_ripple, spec.delta_f)
    if est > FINE_REMEZ_LIMIT:
        length = n_f * math.ceil(est / n_f)
        for _ in range(64):
            taps = kaiser_taps(length, spec)
            pass_dev, stop_max = measure_fir(taps, spec, grid_mult=4)
            if pass_dev <= spec.passband_ripple and stop_max <= spec.stopband_ripple:
                return FirPrototype(taps, spec)
            length += n_f
        raise DesignFailureError("windowed fine prototype did not meet spec")
    n0 = min(8, n_f)
    base = design_fir_equiripple(
        dataclasses.replace(spec, sample_rate_hz=rate * (n0 / n_f), num_branches=n0))
    # the base's zero-phase amplitude at its rfft bins, on the first bins of a
    # K * N_f point spectrum with linear phase (irfft pads the rest with zeros)
    size, length = base.length, base.length // n0 * n_f
    k = np.arange(size // 2 + 1)
    amplitude = (np.fft.rfft(base.coefficients) * np.exp(1j * np.pi * k * (size - 1) / size)).real
    taps = np.fft.irfft(amplitude * np.exp(-1j * np.pi * k * (length - 1) / length), length)
    check = check_fir(taps, spec, base.design_report.method)
    if not check.ok:
        raise DesignFailureError("stretched fine prototype did not meet spec", report=check)
    return FirPrototype(taps, spec, design_report=check)


def build_pipeline_config(cfg, kind, plan, channel_plan):
    coarse = build_coarse_prototype(cfg, plan, kind)
    fine = build_fine_prototype(cfg, channel_plan)
    return ChanneliserConfig(
        plan=plan,
        coarse_prototype=coarse,
        fine_prototype=fine,
        channel_plan=channel_plan,
        occupied_subbands=cfg.occupied_subbands,
    )


def build_candidate_configs(cfg, plan, channel_plan):
    """Pipeline configs of both coarse candidates, keyed "iir" and "fir".

    They share one fine prototype, so the fine design (and its cached
    tap spectrum) is made once.
    """
    iir = build_pipeline_config(cfg, "iir", plan, channel_plan)
    fir = dataclasses.replace(iir, coarse_prototype=build_coarse_prototype(cfg, plan, "fir"))
    return {"iir": iir, "fir": fir}


def build_stimulus(cfg, plan, channel_plan, occupied):
    return frontend.stack_fdm_stimulus(
        plan,
        occupied,
        cfg.num_samples // plan.inputs.num_channels,
        seed=cfg.seed,
        granularity_hz=channel_plan.granularity_hz,
        guardband_fraction=channel_plan.guardband_fraction,
    )
