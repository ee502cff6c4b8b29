"""Frequency-stacking planner.

Given the ADC rate, the master oscillator, the RF centre of the mobile
allocation and the Nyquist zone to sample in, choose one integer LO
multiple per sub-band so that every stacked sub-band lands as close as
possible to its channel centre, then derive the prototype filter band
edges from the largest residual offset.

All mixing frequencies must be integer multiples of the master
oscillator (the LOs are phase-locked to it), which is why the stacked
sub-bands are generally *not* uniformly spaced: each one is off its
channel centre by an offset bounded by half the oscillator step.
"""

import csv
import math
import numbers
from dataclasses import dataclass

from .errors import PlanningError

RESERVED_NOTE = "channels 0 (DC) and N/2 (Nyquist) are reserved empty"


@dataclass(frozen=True)
class StackingInputs:
    """Inputs of the planning step; N = 2*N_c coarse channels over [-fs/2, fs/2)."""

    f_s: float  # ADC sample rate, Hz
    f_o: float  # master oscillator, Hz
    f_c: float  # RF centre of each mobile sub-band, Hz
    nyquist_zone: int
    bandwidth: float  # occupied bandwidth B of one sub-band, Hz
    num_channels: int  # N, even

    def __post_init__(self):
        for name in ("f_s", "f_o", "f_c", "bandwidth"):
            if not math.isfinite(getattr(self, name)):
                raise PlanningError(f"{name} must be finite, got {getattr(self, name)}")
        if self.f_s <= 0 or self.f_o <= 0:
            raise PlanningError("f_s and f_o must be positive")
        for name in ("nyquist_zone", "num_channels"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise PlanningError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.nyquist_zone < 1:
            raise PlanningError("Nyquist zone must be >= 1")
        n = self.num_channels
        if n < 4 or n % 2:
            raise PlanningError(f"N must be even and >= 4, got {n}")
        if not 0 < self.bandwidth < self.f_s / n:
            raise PlanningError(
                f"sub-band bandwidth {self.bandwidth} must fit one coarse channel "
                f"({self.f_s / n})"
            )

    @property
    def channel_spacing(self):
        return self.f_s / self.num_channels


@dataclass(frozen=True)
class FrequencyPlan:
    """Solved stacking plan: LO multiples, stacked centres and band edges."""

    inputs: StackingInputs
    rho: int
    sign: int
    betas: tuple  # beta_n for n = 1..N/2-1
    centres_hz: tuple  # F_n
    signed_offsets_hz: tuple  # F_n - n*fs/N
    f_p: float
    f_a: float

    @property
    def offsets_hz(self):
        """|F_n - n*fs/N| per occupied sub-band."""
        return tuple(abs(s) for s in self.signed_offsets_hz)

    @property
    def guardband_pct(self):
        df = (self.f_a - self.f_p) / self.inputs.f_s
        return guardband_percentage(df, self.inputs.num_channels)

    @property
    def occupied_subbands(self):
        return tuple(range(1, self.inputs.num_channels // 2))

    def centre(self, n):
        return self.centres_hz[n - 1]

    def signed_offset(self, n):
        return self.signed_offsets_hz[n - 1]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "beta_n", "F_n_hz", "phi_n_hz"])
            for i, n in enumerate(self.occupied_subbands):
                writer.writerow(
                    [n, self.betas[i], repr(self.centres_hz[i]), repr(self.offsets_hz[i])]
                )

    def to_text(self):
        inp = self.inputs
        lines = [
            "frequency stacking plan",
            f"  f_s = {inp.f_s:.6g} Hz, f_o = {inp.f_o:.6g} Hz, f_c = {inp.f_c:.6g} Hz",
            f"  zone = {inp.nyquist_zone} (rho = {self.rho}, s = {self.sign:+d}), "
            f"B = {inp.bandwidth:.6g} Hz, N = {inp.num_channels}",
            f"  fp_hz={self.f_p:.10g} fa_hz={self.f_a:.10g} "
            f"guardband_pct={self.guardband_pct:.6g}",
            f"  {RESERVED_NOTE}",
        ]
        for i, n in enumerate(self.occupied_subbands):
            lines.append(
                f"  n={n:2d}  beta={self.betas[i]:6d}  LO={self.betas[i] * inp.f_o:.6g} Hz"
                f"  F_n={self.centres_hz[i]:.6g} Hz  phi_n={self.offsets_hz[i]:.6g} Hz"
            )
        return "\n".join(lines)


def zone_fold_parameters(nyquist_zone):
    """rho and the inversion sign s for a given Nyquist zone.

    The sign argument 2*rho - zone + 1/2 is always a half-integer, so s
    never degenerates to zero; even zones sample with spectral inversion.
    """
    rho = nyquist_zone // 2
    arg = 2 * rho - nyquist_zone + 0.5
    return rho, (1 if arg > 0 else -1)


def _best_beta(target, f_o, sign, shift, f_s):
    """Smallest positive integer LO multiple minimising |F_n - target|.

    Candidates are restricted to F_n inside [0, fs/2]; anything outside
    cannot hold a stacked sub-band.  Ties break toward the smaller
    multiple so lower mixer frequencies are preferred.
    """
    # F = sign * (beta*f_o - shift); invert for the beta window
    if sign > 0:
        lo, hi = shift, shift + f_s / 2.0
    else:
        lo, hi = shift - f_s / 2.0, shift
    b_min = max(1, math.ceil(lo / f_o - 1e-9))
    b_max = math.floor(hi / f_o + 1e-9)
    if b_max < b_min:
        return None
    best = None
    for beta in range(b_min, b_max + 1):
        f_n = sign * (beta * f_o - shift)
        err = abs(f_n - target)
        if best is None or err < best[0] - 1e-12:
            best = (err, beta, f_n)
    return best


def plan_stacking(inputs):
    """Run the stacking framework and return the solved FrequencyPlan."""
    rho, sign = zone_fold_parameters(inputs.nyquist_zone)
    shift = inputs.f_c - rho * inputs.f_s
    spacing = inputs.channel_spacing

    betas, centres, signed = [], [], []
    for n in range(1, inputs.num_channels // 2):
        target = n * spacing
        best = _best_beta(target, inputs.f_o, sign, shift, inputs.f_s)
        if best is None:
            raise PlanningError(
                f"no LO multiple places sub-band n={n} inside [0, fs/2]"
            )
        _, beta, f_n = best
        lo_edge = f_n - inputs.bandwidth / 2.0
        hi_edge = f_n + inputs.bandwidth / 2.0
        if lo_edge < 0.0 or hi_edge > inputs.f_s / 2.0:
            raise PlanningError(
                f"stacked sub-band n={n} ([{lo_edge:.6g}, {hi_edge:.6g}] Hz) "
                f"falls outside the first Nyquist image"
            )
        betas.append(beta)
        centres.append(f_n)
        signed.append(f_n - target)

    offsets = [abs(s) for s in signed]
    f_p = max(offsets) + inputs.bandwidth / 2.0
    f_a = spacing - f_p
    if f_a <= f_p:
        worst = 1 + int(max(range(len(offsets)), key=offsets.__getitem__))
        raise PlanningError(
            f"infeasible plan: f_a = {f_a:.6g} <= f_p = {f_p:.6g} Hz "
            f"(largest offset at n={worst}); reduce B or refine f_o"
        )
    return FrequencyPlan(
        inputs=inputs,
        rho=rho,
        sign=sign,
        betas=tuple(betas),
        centres_hz=tuple(centres),
        signed_offsets_hz=tuple(signed),
        f_p=f_p,
        f_a=f_a,
    )


def guardband_percentage(delta_f, num_channels):
    """Fraction of the ADC bandwidth spent on guardbands, as a percent."""
    if num_channels < 1:
        raise PlanningError(f"channel count must be >= 1, got {num_channels}")
    if not 0.0 < delta_f <= 1.0 / num_channels:
        raise PlanningError(
            f"normalized transition width must lie in (0, 1/N], got {delta_f}"
        )
    return delta_f * num_channels * 100.0


@dataclass(frozen=True)
class PlanCheck:
    """validate_plan output: per-sub-band margins against the passband edges."""

    ok: bool
    margins_hz: tuple  # f_p - (phi_n + B/2) per occupied n
    failures: tuple  # offending n
    reserved_empty: bool  # no sub-band placed on DC / Nyquist channels

    def to_text(self):
        lines = [f"plan check: {'pass' if self.ok else 'FAIL'} ({RESERVED_NOTE})"]
        for i, m in enumerate(self.margins_hz, start=1):
            status = "ok" if m >= 0 else "VIOLATION"
            lines.append(f"  n={i:2d} margin={m:.6g} Hz {status}")
        return "\n".join(lines)


def validate_plan(plan):
    """Check every stacked band sits inside its channel's passband window.

    Report-only: returns margins rather than raising, so a caller can
    inspect how tight the plan is (the worst sub-bands have zero margin
    by construction).
    """
    f_p = plan.f_p
    inp = plan.inputs
    half_b = inp.bandwidth / 2.0
    margins, failures = [], []
    for i, n in enumerate(plan.occupied_subbands):
        margin = f_p - (plan.offsets_hz[i] + half_b)
        margins.append(margin)
        if margin < -1e-9:
            failures.append(n)
    reserved_empty = all(
        abs(c - 0.0) > f_p and abs(c - inp.f_s / 2.0) > f_p for c in plan.centres_hz
    ) and 0 not in plan.occupied_subbands and inp.num_channels // 2 not in plan.occupied_subbands
    return PlanCheck(
        ok=not failures,
        margins_hz=tuple(margins),
        failures=tuple(failures),
        reserved_empty=reserved_empty,
    )
