"""Prototype filter design for the DFT-modulated analysis/synthesis banks.

Two candidate families are supported:

* equiripple linear-phase FIR lowpass (Remez exchange, Kaiser-window
  fallback), length-searched from a practical coefficient estimate;
* recursive Nth-band lowpass built from all-pass polyphase branches with
  branch 0 a pure delay, which yields an almost-linear-phase response
  with microdB passband ripple.  Each branch approximates a fractional
  delay; the fit runs an iteratively reweighted Gauss-Newton on the
  branch denominator with a Lawson-style push toward minimax phase
  error.

A consequence of the delay-line first branch is that the stopband
attenuation is only guaranteed around the channel centres k/N; the
images of the transition band midway between channels carry narrow
spectral spikes, which is exactly why stacked sub-bands need guardbands.
Verification therefore measures the stopband on the guarded grid that
excludes those spike intervals.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import firwin, freqz, remez

from .errors import (
    CoefficientFileError,
    DesignFailureError,
    InvalidSpecError,
    StabilityError,
)

_ALPHA_LIMIT = 1.0 - 1e-6


def attenuation_to_ripple(atten_db):
    """Stopband attenuation in dB to linear peak ripple."""
    return 10.0 ** (-atten_db / 20.0)


def ripple_pp_db_to_linear(ripple_db_pp):
    """Peak-to-peak passband ripple in dB to linear peak deviation.

    The quoted figure is the full swing, so the linear deviation comes
    from half of it: dp = 10^(pp/40) - 1.
    """
    return 10.0 ** (ripple_db_pp / 40.0) - 1.0


@dataclass(frozen=True)
class PrototypeSpec:
    """Lowpass prototype requirements, ripples as linear peak deviations."""

    sample_rate_hz: float
    passband_edge_hz: float
    stopband_edge_hz: float
    passband_ripple: float
    stopband_ripple: float
    num_branches: int
    kind: str  # "fir" | "iir"

    def __post_init__(self):
        if self.kind not in ("fir", "iir"):
            raise InvalidSpecError(f"kind must be 'fir' or 'iir', got {self.kind!r}")
        if self.sample_rate_hz <= 0:
            raise InvalidSpecError("sample rate must be positive")
        if not 0.0 < self.passband_edge_hz < self.stopband_edge_hz:
            raise InvalidSpecError("need 0 < f_p < f_a")
        if self.stopband_edge_hz > self.sample_rate_hz / 2.0:
            raise InvalidSpecError("stopband edge beyond Nyquist")
        for rip in (self.passband_ripple, self.stopband_ripple):
            if not 0.0 < rip < 1.0:
                raise InvalidSpecError(f"ripples must lie in (0, 1), got {rip}")
        if self.num_branches < 1:
            raise InvalidSpecError("num_branches must be >= 1")

    @property
    def fp_norm(self):
        return self.passband_edge_hz / self.sample_rate_hz

    @property
    def fa_norm(self):
        return self.stopband_edge_hz / self.sample_rate_hz

    @property
    def delta_f(self):
        return self.fa_norm - self.fp_norm


@dataclass
class FirPrototype:
    """Linear-phase FIR prototype: plain tap sequence plus its spec.

    The taps are held as a read-only array that owns its data; any other
    input (a writable array, a view, a list) is copied first.
    """

    coefficients: np.ndarray
    spec: PrototypeSpec
    design_report: object = field(default=None, repr=False, compare=False)
    # real data? -> (coefficients, nfft, spectrum) of the polyphase tap
    # matrix, kept by the filter banks (polyphase._tap_spectrum)
    _tap_spectrum: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.flags.writeable or not coefs.flags.owndata:
            coefs = coefs.copy()
            coefs.setflags(write=False)
        self.coefficients = coefs
        if self.coefficients.size < 1:
            raise InvalidSpecError("FIR prototype needs at least one tap")

    @property
    def length(self):
        return int(self.coefficients.size)

    @property
    def sections_per_branch(self):
        # branch length bookkeeping: L = N * (n_fos + 1) when N divides L
        return math.ceil(self.length / self.spec.num_branches) - 1

    @property
    def dc_gain(self):
        return float(np.sum(self.coefficients))


@dataclass
class AllPassPrototype:
    """Nth-band recursive prototype: per-branch all-pass section coefficients.

    alphas[n-1, m] is the m-th first-order-section coefficient of branch
    n (n = 1..N-1); sections with complex coefficients come in conjugate
    pairs, which is the first-order factorisation of the real
    second-order sections used in hardware.  Branch 0 is a pure delay of
    sections_per_branch samples and carries no coefficients.
    """

    alphas: np.ndarray  # (N-1, n_fos) complex
    spec: PrototypeSpec
    design_report: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.alphas = np.atleast_2d(np.asarray(self.alphas, dtype=np.complex128))
        if self.alphas.shape[0] != self.num_branches - 1:
            raise InvalidSpecError(
                f"alpha matrix has {self.alphas.shape[0]} rows; "
                f"N = {self.num_branches} needs N - 1 = {self.num_branches - 1}"
            )
        if self.alphas.size and np.max(np.abs(self.alphas)) >= 1.0:
            raise StabilityError("all-pass coefficient on or outside the unit circle")

    @property
    def num_branches(self):
        return self.spec.num_branches

    @property
    def sections_per_branch(self):
        return self.alphas.shape[1]

    @property
    def branch0_delay(self):
        return self.sections_per_branch

    @property
    def coefficient_count(self):
        return self.num_branches * self.sections_per_branch

    @property
    def dc_gain(self):
        return 1.0

    def branch_denominator(self, n):
        """Real-coefficient denominator polynomial of branch n (n >= 1)."""
        d = np.poly(-self.alphas[n - 1])
        return np.real_if_close(d, tol=1e6).astype(float)


@dataclass(frozen=True)
class FrequencyResponse:
    grid: np.ndarray  # normalized frequency, cycles/sample, in [0, 0.5]
    magnitude_db: np.ndarray
    phase_rad: np.ndarray  # unwrapped


# ---------------------------------------------------------------------------
# coefficient-count estimators


def estimate_fir_length(passband_ripple, stopband_ripple, delta_f):
    """Practical equiripple FIR length estimate, floored at one tap."""
    if delta_f <= 0:
        raise InvalidSpecError(f"transition width must be positive, got {delta_f}")
    for rip in (passband_ripple, stopband_ripple):
        if not 0.0 < rip < 1.0:
            raise InvalidSpecError(f"ripples must lie in (0, 1), got {rip}")
    value = 0.0714 * (-10.0 * math.log10(passband_ripple * stopband_ripple) - 15.0)
    return max(1, math.ceil(value / delta_f))


def estimate_iir_sections(stopband_ripple, delta_f):
    """Empirical total all-pass coefficient count for the recursive candidate.

    Returns L_IIR (= N * n_fos).  A zero return means the requested
    attenuation is below the validity floor of the fit and should be
    treated as an infeasible-spec warning by the caller.
    """
    if delta_f <= 0:
        raise InvalidSpecError(f"transition width must be positive, got {delta_f}")
    if not 0.0 < stopband_ripple < 1.0:
        raise InvalidSpecError(f"ripple must lie in (0, 1), got {stopband_ripple}")
    value = 0.058 * (-10.0 * math.log10(stopband_ripple) - 10.0) / delta_f
    return max(0, round(value))


# ---------------------------------------------------------------------------
# FIR design


@dataclass(frozen=True)
class FirCheck:
    passband_dev: float
    stopband_max: float
    ok_passband: bool
    ok_stopband: bool
    length: int
    method: str

    @property
    def ok(self):
        return self.ok_passband and self.ok_stopband


def measure_fir(taps, spec, grid_mult=16):
    """Measure passband deviation and stopband peak on a dense grid.

    Short filters get explicit edge-anchored grids; long ones use one
    zero-padded FFT (>= grid_mult points per tap, capped) which is the
    only tractable route for the 10^5-tap fine prototypes.
    """
    taps = np.asarray(taps, dtype=float)
    pts = max(2048, grid_mult * taps.size)
    if taps.size <= 4096:
        w_pass = 2.0 * np.pi * np.linspace(0.0, spec.fp_norm, pts // 2)
        w_stop = 2.0 * np.pi * np.linspace(spec.fa_norm, 0.5, pts // 2)
        _, h_pass = freqz(taps, worN=w_pass)
        _, h_stop = freqz(taps, worN=w_stop)
        pass_dev = float(np.max(np.abs(np.abs(h_pass) - 1.0)))
        stop_max = float(np.max(np.abs(h_stop)))
        return pass_dev, stop_max
    nfft = 1 << min(22, max(13, int(math.ceil(math.log2(pts)))))
    mag = np.abs(np.fft.rfft(taps, nfft))
    freqs = np.arange(mag.size) / nfft
    pass_dev = float(np.max(np.abs(mag[freqs <= spec.fp_norm] - 1.0)))
    stop_max = float(np.max(mag[freqs >= spec.fa_norm]))
    return pass_dev, stop_max


def kaiser_taps(length, spec):
    """Kaiser-window lowpass of ``length`` taps, cut midway through the transition."""
    cutoff = 0.5 * (spec.fp_norm + spec.fa_norm)
    atten = -20.0 * math.log10(min(spec.stopband_ripple, spec.passband_ripple))
    beta = (
        0.1102 * (atten - 8.7)
        if atten > 50
        else 0.5842 * (atten - 21) ** 0.4 + 0.07886 * (atten - 21)
        if atten > 21
        else 0.0
    )
    taps = firwin(length, cutoff, window=("kaiser", beta), fs=1.0)
    taps.setflags(write=False)  # a FirPrototype holds a read-only array without a copy
    return taps


def check_fir(taps, spec, method):
    """``FirCheck`` of ``taps`` against ``spec`` at ``measure_fir``'s default density."""
    pass_dev, stop_max = measure_fir(taps, spec)
    return FirCheck(pass_dev, stop_max, pass_dev <= spec.passband_ripple,
                    stop_max <= spec.stopband_ripple, len(taps), method)


def design_fir_equiripple(spec, max_attempts=64):
    """Equiripple lowpass meeting ``spec`` on a dense verification grid.

    Starts from the practical length estimate (rounded up to a multiple
    of the branch count N, so the polyphase branches come out equal
    length) and grows until the measured ripples pass.  Remez exchange
    first; Kaiser-window fallback if the exchange fails to converge at
    some length.  The shortest passing length wins.
    """
    n = spec.num_branches
    est = estimate_fir_length(spec.passband_ripple, spec.stopband_ripple, spec.delta_f)
    step = n if n > 1 else max(1, est // 256)
    length = n * math.ceil(max(est, 2) / n)
    best = None
    for _ in range(max_attempts):
        try:
            taps, method = remez(length, [0.0, spec.fp_norm, spec.fa_norm, 0.5], [1.0, 0.0],
                                 weight=[1.0 / spec.passband_ripple, 1.0 / spec.stopband_ripple],
                                 grid_density=16, maxiter=250, fs=1.0), "remez"
            if not np.all(np.isfinite(taps)):
                raise ValueError("non-finite taps")
        except Exception:
            taps, method = kaiser_taps(length, spec), "kaiser"
        check = check_fir(taps, spec, method)
        if check.ok:
            return FirPrototype(taps, spec, design_report=check)
        best = min(best or check, check, key=lambda c: c.passband_dev + c.stopband_max)
        length += step
    raise DesignFailureError(
        f"no passing FIR design within {max_attempts} attempts "
        f"(best: pass_dev={best.passband_dev:.3g}, stop_max={best.stopband_max:.3g})",
        report=best)


def fir_from_taps(taps, num_branches):
    """Wrap raw taps (e.g. hand-written test filters) in a FirPrototype.

    The attached spec is bookkeeping only: unit sample rate, quarter-band
    edges, loose ripples.
    """
    spec = PrototypeSpec(
        sample_rate_hz=1.0,
        passband_edge_hz=0.2,
        stopband_edge_hz=0.3,
        passband_ripple=0.5,
        stopband_ripple=0.5,
        num_branches=num_branches,
        kind="fir",
    )
    return FirPrototype(np.asarray(taps, dtype=float), spec)


# ---------------------------------------------------------------------------
# all-pass branch fit


def _branch_phase_error(d, kernel, rot):
    """True phase error of the all-pass built on denominator d, and D(e^jw).

    ``kernel`` is exp(-j*outer(w, m)) and ``rot`` is exp(-j*phi) on the
    fit grid; both are constant over a fit.
    """
    dw = 1.0 + kernel @ d
    return -2.0 * np.angle(dw * rot), dw


def _stable(d):
    """True when every root of z^M + d1 z^(M-1) + ... + dM has |z| < _ALPHA_LIMIT.

    Schur-Cohn step-down on the scaled polynomial with coefficients
    a_m = d_m / rho^m (rho = _ALPHA_LIMIT), whose roots are the roots
    above divided by rho: they lie inside the unit circle exactly when
    each step's reflection coefficient k = a_M has |k| < 1, where a step
    maps a_m to (a_m - k a_(M-m)) / (1 - k^2) and drops a_M.  This costs
    a fraction of the eigenvalue solve in ``np.roots``.
    """
    # a few dozen flops: Python floats beat per-step numpy calls
    a = (d / _ALPHA_LIMIT ** np.arange(1, d.size + 1)).tolist()
    while a:
        k = a.pop()
        if not abs(k) < 1.0:
            return False
        g = 1.0 - k * k
        a = [(x - k * y) / g for x, y in zip(a, a[::-1])]
    return True


def _fit_branch_delay(order, delay, w_max):
    """Minimax fit of an order-``order`` all-pass to a ``delay``-sample delay.

    Returns the real denominator coefficients d[1..order] minimising the
    peak phase error over [0, w_max].  Linearised least squares seeds the
    solve; damped Gauss-Newton with envelope reweighting anneals toward
    the equiripple solution.  Only an iterate with all poles strictly
    inside the unit circle is returned.
    """
    w = np.linspace(1e-9, w_max, 1024)
    phi = 0.5 * (delay - order) * w  # required denominator phase
    wm = np.outer(w, np.arange(1, order + 1))
    kernel = np.exp(-1j * wm)
    rot = np.exp(-1j * phi)

    # seed: equation-error least squares, re-weighted by 1/|D|
    a_mat = np.sin(wm + phi[:, None])
    d = np.zeros(order)
    wt = np.ones(w.size)
    for _ in range(15):
        d, *_ = np.linalg.lstsq(a_mat * wt[:, None], -np.sin(phi) * wt, rcond=None)
        err, dw = _branch_phase_error(d, kernel, rot)
        wt = 1.0 / np.abs(dw)
        wt /= wt.max()

    # (err, dw) belong to d from here on: the seed loop's last pass, then
    # the accepted candidate of each step
    iterates = []  # (peak phase error, d) at the top of each step, the seed first
    lawson = 1.0 / np.abs(dw)
    lawson /= lawson.max()
    lam = 1e-9
    for _ in range(200):
        abs_err = np.abs(err)
        peak = abs_err.max()
        iterates.append((peak, d))
        lawson = lawson * ((abs_err + 1e-3 * peak) / (peak + 1e-300)) ** 0.7
        lawson /= lawson.max()
        lawson = np.maximum(lawson, 1e-9)
        jac = -2.0 * (kernel * (1.0 / dw)[:, None]).imag
        wjac = lawson[:, None] * jac
        lhs = jac.T @ wjac
        rhs = -(err @ wjac)
        cost = np.dot(lawson, err * err)
        damping = np.diag(np.diag(lhs) + 1e-12)
        for _ in range(15):
            try:
                step = np.linalg.solve(lhs + lam * damping, rhs)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = d + step
            cand_err, cand_dw = _branch_phase_error(cand, kernel, rot)
            if np.dot(lawson, cand_err * cand_err) < cost:
                d, err, dw = cand, cand_err, cand_dw
                lam = max(lam / 2.0, 1e-12)
                break
            lam *= 10.0
        else:
            lam = 1e-6
    # the stable iterate of least peak error, the earliest on a tie (the
    # sort is stable): one stability test per rejected iterate, not one per step
    for peak, d in sorted(iterates, key=lambda it: it[0]):
        if _stable(d):
            return d, peak
    raise DesignFailureError(f"no stable all-pass fit for order={order}, delay={delay:.4f}")


def _alphas_from_denominator(d):
    """Section coefficients: D(z) = prod_m (1 + alpha_m z^-1)."""
    roots = np.roots(np.concatenate(([1.0], d)))
    alphas = -roots
    order = np.lexsort((alphas.imag, alphas.real))
    return alphas[order]


def design_iir_nthband_alp(spec, n_fos, phase_limit_deg=1.0):
    """Design the recursive Nth-band almost-linear-phase prototype.

    Branch n (n = 1..N-1) is an order-``n_fos`` all-pass approximating a
    delay of n_fos - n/N samples at the decimated rate over the passband
    image [0, 2*pi*N*f_p/f_s]; branch 0 is a pure n_fos-sample delay.
    The returned design is verified (passband flatness, guarded stopband,
    phase linearity within ``phase_limit_deg``) and a failed verification
    raises with the achieved numbers attached.
    """
    if spec.kind != "iir":
        raise InvalidSpecError("spec.kind must be 'iir' for the recursive design")
    if n_fos < 1:
        raise InvalidSpecError(f"n_fos must be >= 1, got {n_fos}")
    n_br = spec.num_branches
    if n_br == 1:
        return AllPassPrototype(np.zeros((0, n_fos)), spec)
    w_max = 2.0 * np.pi * n_br * spec.fp_norm
    if w_max >= np.pi:
        raise InvalidSpecError(
            f"passband edge {spec.fp_norm} too wide for {n_br} branches "
            f"(need f_p/f_s < 1/(2N))"
        )
    delays = [n_fos - n / n_br for n in range(1, n_br)]
    fits = [_fit_branch_delay(n_fos, delay, w_max) for delay in delays]
    alphas = np.array([_alphas_from_denominator(d) for d, _ in fits], dtype=np.complex128)
    proto = AllPassPrototype(alphas, spec)
    check = verify_allpass(proto, phase_limit_deg=phase_limit_deg)
    check.branch_phase_err_rad = tuple(peak for _, peak in fits)
    proto.design_report = check
    if not check.ok:
        raise DesignFailureError(
            f"recursive design failed verification: pass_dev={check.passband_dev:.3g} "
            f"(limit {max(spec.passband_ripple, 1e-5):.3g}), "
            f"stop_max={check.stopband_max:.3g} (limit {spec.stopband_ripple:.3g}), "
            f"phase_dev={check.phase_dev_deg:.3g} deg (limit {phase_limit_deg:.3g}); "
            f"retry with larger n_fos",
            report=check,
        )
    return proto


# ---------------------------------------------------------------------------
# response evaluation and verification


def _allpass_ratio(d, z):
    """conj(D)/D of the real denominator d = [1, d1, ..., dM] at z = exp(-j*w).

    D(e^jw) = sum_m d[m] z^m is evaluated by Horner's rule, from the top
    coefficient down.
    """
    dw = np.full(z.shape, d[-1], dtype=np.complex128)
    for coef in d[-2::-1]:
        dw *= z
        dw += coef
    return np.conj(dw) / dw


def _branch_response(proto, branch, w_dec, z):
    """Branch transfer function (with its 1/N gain) at decimated-rate w.

    ``z`` is exp(-j*w_dec), shared by every branch on the grid.
    """
    n_br = proto.num_branches
    delay = np.exp(-1j * w_dec * proto.sections_per_branch)
    if branch == 0:
        return delay / n_br
    return delay * _allpass_ratio(proto.branch_denominator(branch), z) / n_br


def composite_response(proto, freqs):
    """Response of the recomposed prototype at normalized frequencies.

    For the recursive kind, sum_n e^{-jwn} A_n(e^{jNw}) z^-n_fos / N with
    A_0 = 1: the delay factor is shared and applied once, e^{-jwn} comes
    by recurrence, and each branch costs one Horner evaluation.
    """
    freqs = np.asarray(freqs, dtype=float)
    if isinstance(proto, FirPrototype):
        _, h = freqz(proto.coefficients, worN=2.0 * np.pi * freqs)
        return h
    w_full = 2.0 * np.pi * freqs
    w_dec = proto.num_branches * w_full
    z = np.exp(-1j * w_dec)
    step = np.exp(-1j * w_full)
    rot = np.ones(freqs.shape, dtype=np.complex128)
    h = rot.copy()
    for n in range(1, proto.num_branches):
        rot *= step
        h += rot * _allpass_ratio(proto.branch_denominator(n), z)
    h *= np.exp(-1j * w_dec * proto.sections_per_branch) / proto.num_branches
    return h


def evaluate_response(proto, grid_size):
    """Magnitude/phase of the prototype on a uniform [0, 0.5] grid."""
    if grid_size < 2:
        raise InvalidSpecError(f"grid_size must be >= 2, got {grid_size}")
    grid = np.linspace(0.0, 0.5, grid_size)
    h = composite_response(proto, grid)
    mag = np.abs(h)
    mag_db = 20.0 * np.log10(np.maximum(mag, 1e-300))
    return FrequencyResponse(grid=grid, magnitude_db=mag_db, phase_rad=np.unwrap(np.angle(h)))


def spike_intervals(num_branches, fp_norm, fa_norm):
    """Stopband intervals where the recursive prototype may spike.

    These are the images of the transition band, centred midway between
    channel centres: (k/N + fp, (k+1)/N - fp).  Attenuation is only
    guaranteed on [k/N - fp, k/N + fp]; the plan's guardbands cover the
    rest.
    """
    n = num_branches
    out = []
    k = 0
    while True:
        lo = k / n + fp_norm
        hi = (k + 1) / n - fp_norm
        if lo >= 0.5:
            break
        if hi > max(lo, fa_norm):
            out.append((max(lo, fa_norm), min(hi, 0.5)))
        k += 1
    return out


def _guarded_stopband_mask(freqs, num_branches, fp_norm, fa_norm):
    mask = np.zeros(freqs.shape, dtype=bool)
    for k in range(1, num_branches // 2 + 1):
        mask |= np.abs(freqs - k / num_branches) <= fp_norm
    return mask & (freqs >= fa_norm)


@dataclass
class AlpCheck:
    passband_dev: float  # linear
    passband_dev_db: float
    stopband_max: float  # linear, guarded grid
    stopband_atten_db: float
    spike_max_db: float
    phase_dev_deg: float
    group_delay: float  # full-rate samples
    branch_mag_err: float
    ok_passband: bool
    ok_stopband: bool
    ok_phase: bool
    branch_phase_err_rad: tuple = ()

    @property
    def ok(self):
        return self.ok_passband and self.ok_stopband and self.ok_phase


def verify_allpass(proto, grid_points=1 << 17, phase_limit_deg=1.0):
    """Dense-grid verification of a recursive Nth-band design."""
    spec = proto.spec
    freqs = np.linspace(0.0, 0.5, grid_points)
    h = composite_response(proto, freqs)
    mag = np.abs(h)

    pass_mask = freqs <= spec.fp_norm
    pass_dev = float(np.max(np.abs(mag[pass_mask] - 1.0)))
    pass_dev_db = float(np.max(np.abs(20.0 * np.log10(np.maximum(mag[pass_mask], 1e-300)))))

    stop_mask = _guarded_stopband_mask(freqs, proto.num_branches, spec.fp_norm, spec.fa_norm)
    stop_max = float(np.max(mag[stop_mask])) if np.any(stop_mask) else 0.0
    spike_mask = (freqs >= spec.fa_norm) & ~stop_mask
    spike_max = float(np.max(mag[spike_mask])) if np.any(spike_mask) else 0.0

    phase = np.unwrap(np.angle(h[pass_mask]))
    w = 2.0 * np.pi * freqs[pass_mask]
    slope, intercept = np.polyfit(w, phase, 1)
    phase_dev = float(np.degrees(np.max(np.abs(phase - (slope * w + intercept)))))

    # branch all-pass magnitude sanity on its own grid
    w_dec = np.linspace(0.0, np.pi, 4096)
    z = np.exp(-1j * w_dec)
    branch_err = 0.0
    for n in range(1, proto.num_branches):
        a_resp = _branch_response(proto, n, w_dec, z) * proto.num_branches
        branch_err = max(branch_err, float(np.max(np.abs(np.abs(a_resp) - 1.0))))

    return AlpCheck(
        passband_dev=pass_dev,
        passband_dev_db=pass_dev_db,
        stopband_max=stop_max,
        stopband_atten_db=-20.0 * math.log10(max(stop_max, 1e-300)),
        spike_max_db=20.0 * math.log10(max(spike_max, 1e-300)),
        phase_dev_deg=phase_dev,
        group_delay=float(-slope),
        branch_mag_err=branch_err,
        ok_passband=pass_dev <= max(spec.passband_ripple, 1e-5),
        ok_stopband=stop_max <= spec.stopband_ripple,
        ok_phase=phase_dev < phase_limit_deg,
    )


# ---------------------------------------------------------------------------
# polyphase decomposition


def polyphase_decompose(proto_or_taps, num_branches):
    """Split taps into the N interleaved branch sequences b[n], b[n+N], ..."""
    if num_branches < 1:
        raise InvalidSpecError("num_branches must be >= 1")
    taps = (
        proto_or_taps.coefficients
        if isinstance(proto_or_taps, FirPrototype)
        else np.asarray(proto_or_taps, dtype=float)
    )
    return [taps[n::num_branches].copy() for n in range(num_branches)]


def polyphase_recompose(branches, num_branches):
    """Inverse of the decomposition; tail zero-padded to a whole revolution."""
    if len(branches) != num_branches:
        raise InvalidSpecError("branch list length must equal num_branches")
    longest = max((len(b) for b in branches), default=0)
    out = np.zeros(num_branches * max(longest, 1))
    for n, b in enumerate(branches):
        out[n :: num_branches][: len(b)] = b
    return out


# ---------------------------------------------------------------------------
# coefficient files


def _fmt(x):
    return format(float(x), ".17g")


def _finite(text):
    """``float(text)``, with a ValueError for NaN and infinities as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def export_coefficients(proto, path):
    """Write the coefficient text format (see import_coefficients)."""
    spec = proto.spec
    lines = []
    lines.append(f"# kind={spec.kind}")
    lines.append(f"# N={spec.num_branches}")
    lines.append(f"# n_fos={proto.sections_per_branch}")
    lines.append(f"# fs_hz={_fmt(spec.sample_rate_hz)}")
    lines.append(f"# fp_hz={_fmt(spec.passband_edge_hz)}")
    lines.append(f"# fa_hz={_fmt(spec.stopband_edge_hz)}")
    lines.append(f"# dp={_fmt(spec.passband_ripple)}")
    lines.append(f"# ds={_fmt(spec.stopband_ripple)}")
    if isinstance(proto, FirPrototype):
        lines.extend(_fmt(tap) for tap in proto.coefficients)
    else:
        for n in range(1, proto.num_branches):
            for m_idx in range(proto.sections_per_branch):
                a = proto.alphas[n - 1, m_idx]
                lines.append(f"{n},{m_idx},{_fmt(a.real)},{_fmt(a.imag)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def import_coefficients(path):
    """Read a coefficient file written by export_coefficients.

    UTF-8 text; '#' lines carry key=value metadata; the body is one FIR
    tap per line, or 'branch,section,alpha_re,alpha_im' for the
    recursive kind.  Any coefficient with |alpha| >= 1 is rejected as
    unstable; a non-finite number, a repeated metadata key or
    branch/section entry, or metadata that ``PrototypeSpec`` rejects,
    raises ``CoefficientFileError``.
    """
    meta = {}  # key -> (line number, value)
    body = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                text = line[1:].strip()
                if "=" in text:
                    key, _, val = text.partition("=")
                    key = key.strip()
                    if key in meta:
                        raise CoefficientFileError(
                            f"{path}:{lineno}: metadata key {key!r} repeats line {meta[key][0]}"
                        )
                    meta[key] = (lineno, val.strip())
                continue
            body.append((lineno, line))

    def _meta(key, conv, default):
        if key not in meta:
            return default
        lineno, val = meta[key]
        try:
            return conv(val)
        except ValueError as exc:
            raise CoefficientFileError(f"{path}:{lineno}: bad metadata {key}={val!r}") from exc

    kind = _meta("kind", str, "fir").lower()
    if kind not in ("fir", "iir"):
        raise CoefficientFileError(f"unknown kind {kind!r} in {path}")
    fs = _meta("fs_hz", _finite, 1.0)
    try:
        spec = PrototypeSpec(
            sample_rate_hz=fs,
            passband_edge_hz=_meta("fp_hz", _finite, 0.2 * fs),
            stopband_edge_hz=_meta("fa_hz", _finite, 0.3 * fs),
            passband_ripple=_meta("dp", _finite, 0.1),
            stopband_ripple=_meta("ds", _finite, 0.1),
            num_branches=_meta("N", int, 1),
            kind=kind,
        )
    except InvalidSpecError as exc:
        raise CoefficientFileError(f"{path}: {exc}") from exc

    if kind == "fir":
        taps = []
        for lineno, line in body:
            try:
                taps.append(_finite(line))
            except ValueError as exc:
                raise CoefficientFileError(
                    f"{path}:{lineno}: expected one finite decimal tap, got {line!r}"
                ) from exc
        if not taps:
            raise CoefficientFileError(f"{path}: FIR file with no taps")
        return FirPrototype(np.asarray(taps), spec)

    n_br = spec.num_branches
    n_fos = _meta("n_fos", int, 0)
    if n_br < 2 or n_fos < 1:
        raise CoefficientFileError(f"{path}: recursive file needs N >= 2 and n_fos >= 1")
    alphas = np.full((n_br - 1, n_fos), np.nan, dtype=np.complex128)
    for lineno, line in body:
        parts = line.split(",")
        if len(parts) != 4:
            raise CoefficientFileError(
                f"{path}:{lineno}: expected 'branch,section,alpha_re,alpha_im'"
            )
        try:
            branch, section = int(parts[0]), int(parts[1])
            value = complex(_finite(parts[2]), _finite(parts[3]))
        except ValueError as exc:
            raise CoefficientFileError(f"{path}:{lineno}: bad field in {line!r}") from exc
        if not (1 <= branch < n_br) or not (0 <= section < n_fos):
            raise CoefficientFileError(
                f"{path}:{lineno}: branch/section out of range in {line!r}"
            )
        if not np.isnan(alphas[branch - 1, section]):
            raise CoefficientFileError(
                f"{path}:{lineno}: repeated entry for branch {branch}, section {section}"
            )
        if abs(value) >= 1.0:
            raise StabilityError(
                f"{path}:{lineno}: |alpha| = {abs(value):.6g} >= 1 (unstable pole)"
            )
        alphas[branch - 1, section] = value
    if np.any(np.isnan(alphas)):
        raise CoefficientFileError(f"{path}: missing branch/section entries")
    return AllPassPrototype(alphas, spec)
