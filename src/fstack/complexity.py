"""Closed-form operation-count models for the two analysis candidates.

Costs are real additions and real multiplications per output frame of an
N-channel analysis bank.  A complex multiplication is 3 real
multiplications and 5 real additions, which makes one FFT butterfly 9
adds and 3 mults; the transform term is the usual (N/2)*log2(N) count
scaled accordingly.  log2(N) is evaluated as a real so the same formula
extends continuously to non-power-of-two N.
"""

import csv
import math
from dataclasses import dataclass

from .errors import InvalidSpecError
from .filter_design import estimate_fir_length, estimate_iir_sections

CSV_HEADER = [
    "N", "delta_pct", "L_fir", "L_iir",
    "a1", "p1", "a2", "p2",
    "a_fir", "p_fir", "a_iir", "p_iir", "a_ifft", "p_ifft",
    "warning",
]

# validity envelope of the empirical all-pass coefficient fit
ENVELOPE_N = (2, 128)
ENVELOPE_GUARD_PCT = (5.0, 40.0)


def ifft_cost(n):
    """(real adds, real mults) of one size-n transform under the butterfly model."""
    if n < 1:
        raise InvalidSpecError(f"transform size must be >= 1, got {n}")
    half_log = 0.5 * n * math.log2(n)
    return 9.0 * half_log, 3.0 * half_log


def fir_candidate_cost(n, l_fir):
    """Total (a1, p1) per frame for the FIR candidate: branch filters + transform."""
    if n < 1 or l_fir < n:
        raise InvalidSpecError(f"need L_FIR >= N >= 1, got N={n}, L_FIR={l_fir}")
    a_ifft, p_ifft = ifft_cost(n)
    a1 = 2.0 * (l_fir - n) + a_ifft
    p1 = 2.0 * l_fir + p_ifft
    return a1, p1


def iir_candidate_cost(n, l_iir):
    """Total (a2, p2) per frame for the all-pass candidate.

    The first branch is a pure delay line, so only (1 - 1/N) of the
    sections do arithmetic: each first-order section is one coefficient
    multiplication and two additions, doubled for complex data.
    """
    if n < 1 or l_iir < 0:
        raise InvalidSpecError(f"need N >= 1 and L_IIR >= 0, got N={n}, L_IIR={l_iir}")
    if n > 1 and l_iir % n:
        raise InvalidSpecError(f"L_IIR must be a multiple of N, got N={n}, L_IIR={l_iir}")
    a_ifft, p_ifft = ifft_cost(n)
    a2 = 4.0 * (1.0 - 1.0 / n) * l_iir + a_ifft
    p2 = 2.0 * (1.0 - 1.0 / n) * l_iir + p_ifft
    return a2, p2


@dataclass
class ComplexityReport:
    """Per-candidate operation counts for one (N, guardband, ripple) point."""

    n: int
    guardband_pct: float
    l_fir: int
    l_iir: int
    a_fir: float
    p_fir: float
    a_iir: float
    p_iir: float
    a_ifft: float
    p_ifft: float
    warning: bool = False

    @property
    def a1(self):
        return self.a_fir + self.a_ifft

    @property
    def p1(self):
        return self.p_fir + self.p_ifft

    @property
    def a2(self):
        return self.a_iir + self.a_ifft

    @property
    def p2(self):
        return self.p_iir + self.p_ifft

    def row(self):
        return [
            self.n, repr(self.guardband_pct), self.l_fir, self.l_iir,
            repr(self.a1), repr(self.p1), repr(self.a2), repr(self.p2),
            repr(self.a_fir), repr(self.p_fir), repr(self.a_iir), repr(self.p_iir),
            repr(self.a_ifft), repr(self.p_ifft),
            int(self.warning),
        ]


def point_report(n, guardband_pct, passband_ripple, stopband_ripple):
    """Cost report for one sweep point; ripples are linear peak deviations."""
    delta_f = guardband_pct / (100.0 * n)
    l_fir = max(estimate_fir_length(passband_ripple, stopband_ripple, delta_f), n)
    l_raw = estimate_iir_sections(stopband_ripple, delta_f)
    # round the coefficient estimate to whole sections per branch
    l_iir = n * max(1, round(l_raw / n))
    a_ifft, p_ifft = ifft_cost(n)
    a1, p1 = fir_candidate_cost(n, l_fir)
    a2, p2 = iir_candidate_cost(n, l_iir)
    warn = not (
        ENVELOPE_N[0] <= n <= ENVELOPE_N[1]
        and ENVELOPE_GUARD_PCT[0] <= guardband_pct <= ENVELOPE_GUARD_PCT[1]
    )
    return ComplexityReport(
        n=n, guardband_pct=guardband_pct, l_fir=l_fir, l_iir=l_iir,
        a_fir=a1 - a_ifft, p_fir=p1 - p_ifft,
        a_iir=a2 - a_ifft, p_iir=p2 - p_ifft,
        a_ifft=a_ifft, p_ifft=p_ifft, warning=warn,
    )


def default_guardband_schedule(n_values, pct_hi=40.0, pct_lo=5.0):
    """Guardband percentage per N, shrinking linearly in log2(N).

    Larger banks get proportionally tighter guardbands, which is the
    realistic way to utilise the stacked spectrum.
    """
    logs = [math.log2(n) for n in n_values]
    lo, hi = min(logs), max(logs)
    span = (hi - lo) or 1.0
    return [pct_hi - (pct_hi - pct_lo) * (l - lo) / span for l in logs]


def sweep(n_values=None, guardband_pcts=None, passband_ripple=None, stopband_ripple=None):
    """Generate cost reports across bank sizes for both candidates."""
    if n_values is None:
        n_values = [2 ** k for k in range(1, 8)]
    if guardband_pcts is None:
        guardband_pcts = default_guardband_schedule(n_values)
    if passband_ripple is None:
        passband_ripple = 10.0 ** (0.1 / 40.0) - 1.0  # 0.1 dB peak-to-peak
    if stopband_ripple is None:
        stopband_ripple = 10.0 ** (-50.0 / 20.0)
    if len(guardband_pcts) != len(n_values):
        raise InvalidSpecError("guardband schedule must match the N list")
    return [
        point_report(n, pct, passband_ripple, stopband_ripple)
        for n, pct in zip(n_values, guardband_pcts)
    ]


def write_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rep in reports:
            writer.writerow(rep.row())
