"""Shared fixtures: reference plan, designed prototypes, built pipelines.

Designs are deterministic, so session scope just avoids re-running the
optimizers for every test module.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import settings

from fstack.channelizer import end_to_end
from fstack.config import load_config
from fstack.filter_design import (
    PrototypeSpec,
    attenuation_to_ripple,
    design_fir_equiripple,
    design_iir_nthband_alp,
    ripple_pp_db_to_linear,
)
from fstack.pipeline import (
    build_candidate_configs,
    build_channel_plan,
    build_plan,
    build_stimulus,
)
from fstack.stacking import StackingInputs, plan_stacking

REF_FS = 1280e6
REF_FO = 10e6
REF_FC = 1650.75e6
REF_B = 48.5e6
REF_N = 20

# property tests draw the same examples on every run, with no deadline
settings.register_profile("fstack", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("fstack")


@pytest.fixture(scope="session")
def table2_inputs():
    return StackingInputs(
        f_s=REF_FS, f_o=REF_FO, f_c=REF_FC, nyquist_zone=2,
        bandwidth=REF_B, num_channels=REF_N,
    )


@pytest.fixture(scope="session")
def table2_plan(table2_inputs):
    return plan_stacking(table2_inputs)


@pytest.fixture(scope="session")
def iir20_spec():
    return PrototypeSpec(
        sample_rate_hz=REF_FS,
        passband_edge_hz=29e6,
        stopband_edge_hz=35e6,
        passband_ripple=ripple_pp_db_to_linear(0.0492),
        stopband_ripple=attenuation_to_ripple(49.09),
        num_branches=REF_N,
        kind="iir",
    )


@pytest.fixture(scope="session")
def iir20(iir20_spec):
    """Reference-grade recursive prototype: N=20, 9 sections per branch."""
    return design_iir_nthband_alp(iir20_spec, 9)


@pytest.fixture(scope="session")
def fir20():
    """Reference-grade equiripple prototype: 51.42 dB / 0.0492 dB."""
    spec = PrototypeSpec(
        sample_rate_hz=REF_FS,
        passband_edge_hz=29e6,
        stopband_edge_hz=35e6,
        passband_ripple=ripple_pp_db_to_linear(0.0492),
        stopband_ripple=attenuation_to_ripple(51.42),
        num_branches=REF_N,
        kind="fir",
    )
    return design_fir_equiripple(spec)


def _small_iir(num_branches, n_fos, fp_norm, stop_db, phase_limit_deg=1.0):
    spec = PrototypeSpec(
        sample_rate_hz=1.0,
        passband_edge_hz=fp_norm,
        stopband_edge_hz=1.0 / num_branches - fp_norm,
        passband_ripple=0.01,
        stopband_ripple=attenuation_to_ripple(stop_db),
        num_branches=num_branches,
        kind="iir",
    )
    return design_iir_nthband_alp(spec, n_fos, phase_limit_deg=phase_limit_deg)


@pytest.fixture(scope="session")
def iir_small():
    """Quick recursive designs for the small bank sizes used in oracle tests.

    The 2-branch case is a deliberately loose half-band-class design, so
    its almost-linear-phase deviation is allowed a few degrees.
    """
    return {
        2: _small_iir(2, 2, 0.2, 28.0, phase_limit_deg=6.0),
        4: _small_iir(4, 4, 0.1, 45.0),
        8: _small_iir(8, 5, 0.05, 42.0),
    }


def _small_fir(num_branches, fp_norm, stop_db=40.0):
    spec = PrototypeSpec(
        sample_rate_hz=1.0,
        passband_edge_hz=fp_norm,
        stopband_edge_hz=1.0 / num_branches - fp_norm,
        passband_ripple=0.01,
        stopband_ripple=attenuation_to_ripple(stop_db),
        num_branches=num_branches,
        kind="fir",
    )
    return design_fir_equiripple(spec)


@pytest.fixture(scope="session")
def fir_small():
    return {2: _small_fir(2, 0.2), 4: _small_fir(4, 0.1), 8: _small_fir(8, 0.05)}


@pytest.fixture(scope="session")
def ref_cfg():
    return load_config()


@pytest.fixture(scope="session")
def pipelines(ref_cfg):
    """Both candidate pipelines plus the nine-sub-band FDM stimulus."""
    plan = build_plan(ref_cfg)
    channel_plan = build_channel_plan(ref_cfg)
    pipes = build_candidate_configs(ref_cfg, plan, channel_plan)
    stimulus = build_stimulus(
        ref_cfg, plan, channel_plan, pipes["iir"].occupied_subbands
    )
    return {"plan": plan, "channel_plan": channel_plan,
            "pipes": pipes, "stimulus": stimulus}


@pytest.fixture(scope="session")
def float_reports(pipelines):
    """Float-path end-to-end reports for both candidates (no impairments)."""
    return {
        kind: end_to_end(pipe, pipelines["stimulus"])
        for kind, pipe in pipelines["pipes"].items()
    }


@pytest.fixture(autouse=True)
def no_live_child_processes():
    """Fail any test that leaves a live child process behind."""
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"live child processes after the test: {leaked}"


@pytest.fixture()
def rng():
    return np.random.default_rng(20240813)
