"""Command-line front end.

Commands: plan | design | estimate | stack | run | sweep.  Every command
reads the same INI config (defaults are the reference narrowband MSS
scenario) and writes CSV/text artifacts into the output directory.
Outputs are deterministic for a fixed config and seed.

Exit codes: 0 success, 2 config error, 3 design failure, 4 runtime error.
"""

import argparse
import csv
import math
import os
import sys

from . import complexity, frontend
from .channelizer import awgn_sweep, end_to_end
from .config import load_config
from .errors import ConfigError, DesignFailureError, FstackError
from .filter_design import attenuation_to_ripple, export_coefficients, ripple_pp_db_to_linear
from .pipeline import (
    build_candidate_configs,
    build_channel_plan,
    build_coarse_prototype,
    build_pipeline_config,
    build_plan,
    build_stimulus,
)
from .stacking import RESERVED_NOTE


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _write_spectrum_csv(path, buf):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "power_db"])
        freqs, power_db = frontend.periodogram_db(buf)
        for f, p in zip(freqs, power_db):
            writer.writerow([repr(float(f)), f"{p:.6f}"])


# ---------------------------------------------------------------------------
# commands


def cmd_plan(cfg, out_dir):
    plan = build_plan(cfg)
    plan.to_csv(os.path.join(out_dir, "plan.csv"))
    # a FrequencyPlan cannot be built with a band outside its passband
    # window, so every margin is >= 0 and the check always passes
    lines = [plan.to_text(), f"plan check: pass ({RESERVED_NOTE})"]
    lines += [f"  n={n:2d} margin={m:.6g} Hz ok"
              for n, m in zip(plan.occupied_subbands, plan.margins_hz)]
    text = "\n".join(lines)
    _write_text(os.path.join(out_dir, "plan_report.txt"), text)
    print(text)
    return 0


def cmd_design(cfg, out_dir):
    plan = build_plan(cfg)
    lines = [f"prototype design for f_p={plan.f_p:.6g} Hz, f_a={plan.f_a:.6g} Hz"]
    fir = build_coarse_prototype(cfg, plan, "fir")
    export_coefficients(fir, os.path.join(out_dir, "coarse_fir.coef"))
    rep = fir.design_report
    lines += [
        "candidate 1 (equiripple FIR):",
        f"  length            : {fir.length} taps ({rep.method})",
        f"  passband deviation: {rep.passband_dev:.6g} "
        f"({20*math.log10(1+rep.passband_dev):.4f} dB) vs {fir.spec.passband_ripple:.6g}",
        f"  stopband peak     : {rep.stopband_max:.6g} "
        f"({-20*math.log10(rep.stopband_max):.2f} dB) vs {fir.spec.stopband_ripple:.6g}",
    ]
    iir = build_coarse_prototype(cfg, plan, "iir")
    export_coefficients(iir, os.path.join(out_dir, "coarse_iir.coef"))
    rep = iir.design_report
    lines += [
        "candidate 2 (Nth-band all-pass recursive, almost linear phase):",
        f"  coefficients      : {iir.coefficient_count} "
        f"({iir.num_branches} branches x {iir.sections_per_branch} sections)",
        f"  branch fits       : {iir.sections_per_branch} sections per branch, "
        f"{min(rep.branch_fit_steps)}-{max(rep.branch_fit_steps)} Gauss-Newton steps",
        f"  passband deviation: {rep.passband_dev_db*1e6:.1f} microdB",
        f"  guarded stopband  : {rep.stopband_atten_db:.2f} dB "
        f"(spec {cfg.stopband_db} dB)",
        f"  phase deviation   : {rep.phase_dev_deg:.4f} deg from linear",
        f"  worst spike level : {rep.spike_max_db:.2f} dB (inside guardbands)",
    ]
    text = "\n".join(lines)
    _write_text(os.path.join(out_dir, "design_report.txt"), text)
    print(text)
    return 0


def cmd_estimate(cfg, out_dir):
    reports = complexity.sweep(
        passband_ripple=ripple_pp_db_to_linear(cfg.passband_ripple_db),
        stopband_ripple=attenuation_to_ripple(cfg.stopband_db),
    )
    path = os.path.join(out_dir, "complexity.csv")
    complexity.write_csv(reports, path)
    print(f"wrote {path} ({len(reports)} rows)")
    return 0


def cmd_stack(cfg, out_dir):
    plan = build_plan(cfg)
    channel_plan = build_channel_plan(cfg)
    stacked = build_stimulus(cfg, plan, channel_plan, cfg.occupied_subbands)
    path = os.path.join(out_dir, "stacked.f64")
    frontend.write_signal(stacked, path)
    _write_spectrum_csv(os.path.join(out_dir, "stacked_spectrum.csv"), stacked)
    print(f"wrote {path} ({len(stacked)} samples at {stacked.rate_hz:.6g} Hz)")
    return 0


def cmd_run(cfg, out_dir):
    plan = build_plan(cfg)
    channel_plan = build_channel_plan(cfg)
    pipeline = build_pipeline_config(cfg, cfg.coarse_kind, plan, channel_plan)
    stimulus = build_stimulus(cfg, plan, channel_plan, pipeline.occupied_subbands)
    _write_spectrum_csv(os.path.join(out_dir, "input_spectrum.csv"), stimulus)
    report = end_to_end(
        pipeline, stimulus, adc_bits=cfg.adc_bits, snr_db=cfg.snr_db, seed=cfg.seed,
        capture_spectra=True,
    )
    spectra = report.extras.pop("spectra", {})
    for key, buf in spectra.items():
        name = f"subband_{key}_spectrum.csv" if isinstance(key, int) else f"{key}_spectrum.csv"
        _write_spectrum_csv(os.path.join(out_dir, name), buf)
    text = report.to_text()
    _write_text(os.path.join(out_dir, "metrics.txt"), text)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["aligned_delay_samples", "mse", "mse_over_signal"])
        writer.writerow([report.aligned_delay, repr(report.mse), repr(report.mse_over_signal)])
    print(text)
    return 0


def cmd_sweep(cfg, out_dir):
    plan = build_plan(cfg)
    channel_plan = build_channel_plan(cfg)
    configs = build_candidate_configs(cfg, plan, channel_plan)
    stimulus = build_stimulus(cfg, plan, channel_plan,
                              configs["iir"].occupied_subbands)
    snr_list = (35.0, 45.0, 55.0, 65.0, 75.0)
    rows = awgn_sweep(configs, stimulus, snr_list, seed=cfg.seed)
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "mse_rel_db_iir", "mse_rel_db_fir"])
        for snr_db, point in rows:
            writer.writerow([
                repr(float(snr_db)),
                f"{10*math.log10(max(point['iir'], 1e-300)):.4f}",
                f"{10*math.log10(max(point['fir'], 1e-300)):.4f}",
            ])
    for snr_db, point in rows:
        print(
            f"snr {snr_db:5.1f} dB: iir {point['iir']:.3e}, fir {point['fir']:.3e}"
        )
    print(f"wrote {path}")
    return 0


COMMANDS = {
    "plan": cmd_plan,
    "design": cmd_design,
    "estimate": cmd_estimate,
    "stack": cmd_stack,
    "run": cmd_run,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fstack",
        description="frequency-stacking planner and two-stage channelizer tools",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="INI config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override sim.seed")
    args = parser.parse_args(argv)

    try:
        overrides = {}
        if args.seed is not None:
            overrides["sim.seed"] = args.seed
        if args.out is not None:
            overrides["io.output_dir"] = args.out
        cfg = load_config(args.config, overrides)
        out_dir = cfg.output_dir
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DesignFailureError as exc:
        print(f"error: design: {exc}", file=sys.stderr)
        return 3
    except (FstackError, OSError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
