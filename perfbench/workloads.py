"""The three benchmark workloads: set-up, one op, and the check of each op.

Each workload is a closed loop with one client: the runner calls ``op``
back to back and ``check`` on every result.  The workload seed feeds only
the stimulus generators and ``add_awgn``; the designs do not depend on it.

ref_iir    default config, N = 20 recursive coarse prototype (280
           coefficients), desk-scale N_f = 64 fine grid (5 568-tap Remez
           prototype), nine FDM sub-bands of 983 040 real samples.  One op
           is one float-path ``end_to_end`` pass: the ``fstack run`` study.
sweep_fir  the same plan, stimulus and fine prototype with the 860-tap FIR
           coarse candidate.  One op is ``awgn_sweep`` over the CLI's five
           SNRs (five passes).  No all-pass branch and no IIR design run
           here, so an all-pass or IIR-fit change must show no effect.
gmr2_fine  full-scale GMR-2 fine grid (N_f = 1 280, 115 200-tap Kaiser
           prototype).  One op is ``fine_analyze`` plus ``fine_synthesize``
           on nine sub-band-rate FDM streams: the 1 280-branch loop and the
           1 280-point transform, with the coarse stage and the Remez and
           IIR designs out of the way.
"""

import math

import api

fs = api.Fstack()

REL_MSE_BUDGET = 1e-5  # c08 transparency budget of one float pass
SWEEP_SNRS_DB = (35.0, 45.0, 55.0, 65.0, 75.0)  # the CLI's sweep points
MONOTONE_SLACK = 1e-9  # c09: relative MSE may not rise with SNR beyond this
# gmr2_fine: the worst stream reaches about 6.7e-9 (-81.8 dB) at the seed
# commit over seeds 1-5 and 1234; the check allows ten times that
GMR2_REL_MSE_BOUND = 7e-8
# samples each gmr2_fine stream is compared over, past the warm-up that
# the trim by the fine cascade delay removes
GMR2_COMPARED_SPAN = 1 << 15


def _quality_db(rel_mse):
    """-10 log10 of a relative MSE: the error floor below the signal, in dB."""
    return -10.0 * math.log10(rel_mse) if rel_mse > 0 else math.inf


class Workload:
    """Set-up state of one run; ``setup`` may be called again to re-time it."""

    name = None
    coarse_kind = None
    fine_standard = "custom"
    setup_repeats = 2  # set-up is timed this often per untraced run; median reported

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer

    def _design(self):
        """Plan, both prototypes and the pipeline config, with set-up spans."""
        cfg = fs.load_config(None, {"sim.seed": self.seed, "fine.standard": self.fine_standard})
        cfg.full_scale_fine = self.fine_standard != "custom"
        span = self.tracer.span
        with span("setup.plan"):
            plan = fs.plan_stacking(fs.StackingInputs(
                f_s=cfg.fs_hz, f_o=cfg.fo_hz, f_c=cfg.fc_hz, nyquist_zone=cfg.nyquist_zone,
                bandwidth=cfg.bandwidth_hz, num_channels=2 * cfg.num_coarse_channels))
        channel_plan = fs.build_channel_plan(cfg)
        with span("setup.coarse_design"):
            self.coarse = fs.build_coarse_prototype(cfg, plan, self.coarse_kind)
        with span("setup.fine_design"):
            self.fine = fs.build_fine_prototype(cfg, channel_plan)
        self.pipeline = fs.ChanneliserConfig(
            plan=plan, coarse_prototype=self.coarse, fine_prototype=self.fine,
            channel_plan=channel_plan, occupied_subbands=cfg.occupied_subbands)
        return cfg, plan, channel_plan

    def layer_info(self):
        """Set-up facts the per-layer metrics need."""
        spec = self.fine.spec
        n_f = spec.num_branches
        est = fs.estimate_fir_length(spec.passband_ripple, spec.stopband_ripple, spec.delta_f)
        first = n_f * math.ceil(max(est, 2) / n_f)
        return {
            "coarse_kind": self.coarse_kind,
            "coarse_size": (self.coarse.coefficient_count if self.coarse_kind == "iir"
                            else self.coarse.length),
            "coarse_branches": self.pipeline.num_coarse_channels,
            "fine_fir_taps": self.fine.length,
            "fine_fir_attempts": (self.fine.length - first) // n_f + 1,
            "samples_per_op": self.samples_per_op,
        }


class RefIir(Workload):
    name = "ref_iir"
    coarse_kind = "iir"

    def setup(self):
        cfg, plan, channel_plan = self._design()
        with self.tracer.span("setup.stimulus"):
            self.stimulus = fs.build_stimulus(
                cfg, plan, channel_plan, self.pipeline.occupied_subbands)
        self.samples_per_op = len(self.stimulus)

    def op(self):
        return fs.end_to_end(self.pipeline, self.stimulus)

    def check(self, report):
        expected = self.pipeline.expected_delay_samples()
        errors = []
        if report.aligned_delay != expected:
            errors.append(f"aligned delay {report.aligned_delay} != expected {expected}")
        if not 0.0 < report.mse_over_signal <= REL_MSE_BUDGET:
            errors.append(f"relative MSE {report.mse_over_signal:.3e} outside (0, {REL_MSE_BUDGET}]")
        return errors, _quality_db(report.mse_over_signal)


class SweepFir(RefIir):
    name = "sweep_fir"
    coarse_kind = "fir"

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.reports = []
        self._observe_end_to_end()

    def _observe_end_to_end(self):
        # awgn_sweep returns only the relative MSE of each point; keep the
        # report of every end_to_end pass so each aligned delay is checked
        inner = fs.end_to_end
        reports = self.reports

        def observed(*args, **kwargs):
            report = inner(*args, **kwargs)
            reports.append(report)
            return report

        api.rebind(inner, observed)

    def setup(self):
        super().setup()
        self.samples_per_op = len(SWEEP_SNRS_DB) * len(self.stimulus)

    def op(self):
        self.reports.clear()
        rows = fs.awgn_sweep({"fir": self.pipeline}, self.stimulus, SWEEP_SNRS_DB,
                             seed=self.seed)
        return rows, list(self.reports)

    def check(self, result):
        rows, reports = result
        expected = self.pipeline.expected_delay_samples()
        errors = []
        if len(reports) != len(SWEEP_SNRS_DB):
            errors.append(f"saw {len(reports)} end_to_end passes, expected {len(SWEEP_SNRS_DB)}")
        for snr_db, report in zip(SWEEP_SNRS_DB, reports):
            if report.aligned_delay != expected:
                errors.append(f"{snr_db} dB: aligned delay {report.aligned_delay} != {expected}")
        rel = [(snr_db, point["fir"]) for snr_db, point in rows]
        if [snr_db for snr_db, _ in rel] != list(SWEEP_SNRS_DB):
            errors.append(f"sweep points {[snr_db for snr_db, _ in rel]} != {list(SWEEP_SNRS_DB)}")
        for (lo_snr, lo), (hi_snr, hi) in zip(rel, rel[1:]):
            if hi > lo * (1.0 + MONOTONE_SLACK):
                errors.append(f"relative MSE rises from {lo:.3e} at {lo_snr} dB to {hi:.3e} at {hi_snr} dB")
        return errors, _quality_db(rel[-1][1]) if rel else math.nan


class Gmr2Fine(Workload):
    name = "gmr2_fine"
    coarse_kind = "fir"  # the pipeline config needs a coarse prototype; the op never runs it
    fine_standard = "gmr2"

    def setup(self):
        _, plan, channel_plan = self._design()
        self.delay = fs.matched_cascade_delay(self.fine)
        n_f = channel_plan.channels_per_subband
        # trimming by the delay on both sides puts the compared span past
        # twice the cascade delay, where the cascade is in steady state
        length = n_f * math.ceil((3 * self.delay + GMR2_COMPARED_SPAN) / n_f)
        with self.tracer.span("setup.stimulus"):
            self.streams = [
                fs.generate_subband_signal(
                    sub, plan, length, seed=self.seed + sub, profile="fdm",
                    granularity_hz=channel_plan.granularity_hz,
                    guardband_fraction=channel_plan.guardband_fraction,
                ).baseband
                for sub in self.pipeline.occupied_subbands
            ]
        self.samples_per_op = len(self.streams) * length

    def op(self):
        return [fs.fine_synthesize(self.pipeline, fs.fine_analyze(self.pipeline, stream))
                for stream in self.streams]

    def check(self, outputs):
        # aligned_mse at the exact cascade delay; find_delay would drop the
        # imaginary part of these complex streams
        errors, worst = [], 0.0
        for sub, stream, out in zip(self.pipeline.occupied_subbands, self.streams, outputs):
            _, rel = fs.aligned_mse(stream.samples, out.samples, self.delay, trim=self.delay)
            if not 0.0 < rel <= GMR2_REL_MSE_BOUND:
                errors.append(f"sub-band {sub}: relative MSE {rel:.3e} outside (0, {GMR2_REL_MSE_BOUND}]")
            worst = max(worst, rel)
        return errors, _quality_db(worst)


WORKLOADS = {cls.name: cls for cls in (RefIir, SweepFir, Gmr2Fine)}
