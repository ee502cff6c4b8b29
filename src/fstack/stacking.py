"""Frequency-stacking planner.

Given the ADC rate, the master oscillator, the RF centre of the mobile
allocation and the Nyquist zone to sample in, choose one integer LO
multiple per sub-band so that every stacked sub-band lands as close as
possible to its channel centre.  A plan is its inputs and those
multiples; the stacked centres, their offsets and the prototype filter
band edges are derived from them.

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
    """Stacking plan: the inputs and one LO multiple beta_n per sub-band.

    A plan whose bands leave [0, fs/2] or whose edges leave no
    transition band (f_a <= f_p) cannot be built.
    """

    inputs: StackingInputs
    betas: tuple  # beta_n for n = 1..N/2-1

    def __post_init__(self):
        n_sub = self.inputs.num_channels // 2 - 1
        if len(self.betas) != n_sub or not all(
                isinstance(b, numbers.Integral) for b in self.betas):
            raise PlanningError(
                f"a plan needs one integer LO multiple per sub-band ({n_sub}), "
                f"got {self.betas!r}"
            )
        half_b = self.inputs.bandwidth / 2.0
        for n, f_n in zip(self.occupied_subbands, self.centres_hz):
            lo_edge, hi_edge = f_n - half_b, f_n + half_b
            if lo_edge < 0.0 or hi_edge > self.inputs.f_s / 2.0:
                raise PlanningError(
                    f"stacked sub-band n={n} ([{lo_edge:.6g}, {hi_edge:.6g}] Hz) "
                    f"falls outside the first Nyquist image"
                )
        f_p, f_a = self.f_p, self.f_a
        if f_a <= f_p:
            offsets = self.offsets_hz
            worst = 1 + offsets.index(max(offsets))
            raise PlanningError(
                f"infeasible plan: f_a = {f_a:.6g} <= f_p = {f_p:.6g} Hz "
                f"(largest offset at n={worst}); reduce B or refine f_o"
            )

    @property
    def rho(self):
        return zone_fold_parameters(self.inputs.nyquist_zone)[0]

    @property
    def sign(self):
        return zone_fold_parameters(self.inputs.nyquist_zone)[1]

    @property
    def centres_hz(self):
        """Stacked centre F_n = s * (beta_n * f_o - (f_c - rho * f_s)) per sub-band."""
        inp = self.inputs
        shift = inp.f_c - self.rho * inp.f_s
        return tuple(self.sign * (beta * inp.f_o - shift) for beta in self.betas)

    @property
    def signed_offsets_hz(self):
        """F_n - n*fs/N per occupied sub-band."""
        spacing = self.inputs.channel_spacing
        return tuple(c - n * spacing for n, c in zip(self.occupied_subbands, self.centres_hz))

    @property
    def offsets_hz(self):
        """|F_n - n*fs/N| per occupied sub-band."""
        return tuple(abs(s) for s in self.signed_offsets_hz)

    @property
    def f_p(self):
        """Passband edge: the largest offset plus B/2."""
        return max(self.offsets_hz) + self.inputs.bandwidth / 2.0

    @property
    def f_a(self):
        """Stopband edge: fs/N - f_p."""
        return self.inputs.channel_spacing - self.f_p

    @property
    def margins_hz(self):
        """f_p - (phi_n + B/2) per occupied sub-band: >= 0, and 0 at the largest offset."""
        f_p, half_b = self.f_p, self.inputs.bandwidth / 2.0
        return tuple(f_p - (phi + half_b) for phi in self.offsets_hz)

    @property
    def guardband_pct(self):
        df = (self.f_a - self.f_p) / self.inputs.f_s
        return guardband_percentage(df, self.inputs.num_channels)

    @property
    def occupied_subbands(self):
        return tuple(range(1, self.inputs.num_channels // 2))

    def centre(self, n):
        """F_n of sub-band n; an n outside 1..N/2-1 raises ``PlanningError``."""
        return self.centres_hz[self._position(n)]

    def signed_offset(self, n):
        """F_n - n*fs/N of sub-band n; an n outside 1..N/2-1 raises ``PlanningError``."""
        return self.signed_offsets_hz[self._position(n)]

    def _position(self, n):
        if n not in self.occupied_subbands:
            raise PlanningError(
                f"sub-band {n!r} outside the plan's 1..{self.inputs.num_channels // 2 - 1}"
            )
        return self.occupied_subbands.index(n)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "beta_n", "F_n_hz", "phi_n_hz"])
            for n, beta, f_n, phi in zip(self.occupied_subbands, self.betas, self.centres_hz,
                                         self.offsets_hz):
                writer.writerow([n, beta, repr(f_n), repr(phi)])

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
        for n, beta, f_n, phi in zip(self.occupied_subbands, self.betas, self.centres_hz,
                                     self.offsets_hz):
            lines.append(
                f"  n={n:2d}  beta={beta:6d}  LO={beta * inp.f_o:.6g} Hz"
                f"  F_n={f_n:.6g} Hz  phi_n={phi:.6g} Hz"
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
    multiple so lower mixer frequencies are preferred.  None when no
    multiple lands inside.
    """
    # F = sign * (beta*f_o - shift); invert for the beta window
    if sign > 0:
        lo, hi = shift, shift + f_s / 2.0
    else:
        lo, hi = shift - f_s / 2.0, shift
    b_min = max(1, math.ceil(lo / f_o - 1e-9))
    b_max = math.floor(hi / f_o + 1e-9)
    best_err, best_beta = None, None
    for beta in range(b_min, b_max + 1):
        err = abs(sign * (beta * f_o - shift) - target)
        if best_err is None or err < best_err - 1e-12:
            best_err, best_beta = err, beta
    return best_beta


def plan_stacking(inputs):
    """Choose the LO multiple of each sub-band and return the FrequencyPlan."""
    rho, sign = zone_fold_parameters(inputs.nyquist_zone)
    shift = inputs.f_c - rho * inputs.f_s
    betas = []
    for n in range(1, inputs.num_channels // 2):
        beta = _best_beta(n * inputs.channel_spacing, inputs.f_o, sign, shift, inputs.f_s)
        if beta is None:
            raise PlanningError(
                f"no LO multiple places sub-band n={n} inside [0, fs/2]"
            )
        betas.append(beta)
    return FrequencyPlan(inputs, tuple(betas))


def guardband_percentage(delta_f, num_channels):
    """Fraction of the ADC bandwidth spent on guardbands, as a percent."""
    if num_channels < 1:
        raise PlanningError(f"channel count must be >= 1, got {num_channels}")
    if not 0.0 < delta_f <= 1.0 / num_channels:
        raise PlanningError(
            f"normalized transition width must lie in (0, 1/N], got {delta_f}"
        )
    return delta_f * num_channels * 100.0
