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
import numbers
from dataclasses import dataclass, field

import numpy as np
# scipy.signal (about 1 s to import) is imported inside the functions that
# call it, so the commands that design nothing never load it

from .errors import DesignFailureError, InvalidSpecError, StabilityError

_ALPHA_LIMIT = 1.0 - 1e-6
# stopping rule of the all-pass branch fit (_fit_branch_delay)
_FIT_RTOL = 1e-3
_FIT_WINDOW = 10
_FIT_MAX_STEPS = 200
# peak deviation from linear phase over the passband that verify_allpass accepts
_PHASE_LIMIT_DEG = 1.0
# orders (sections per branch) tried by the recursive design's search
_ORDER_ATTEMPTS = 8
# lengths tried by the equiripple FIR design
_LENGTH_ATTEMPTS = 64


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
    """Lowpass prototype requirements, ripples as linear peak deviations.

    One spec serves both candidate designs: the prototype's class
    (``FirPrototype`` or ``AllPassPrototype``) is the only record of its kind.
    """

    sample_rate_hz: float
    passband_edge_hz: float
    stopband_edge_hz: float
    passband_ripple: float
    stopband_ripple: float
    num_branches: int

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise InvalidSpecError(
                f"sample rate must be finite and positive, got {self.sample_rate_hz}")
        if not 0.0 < self.passband_edge_hz < self.stopband_edge_hz:
            raise InvalidSpecError("need 0 < f_p < f_a")
        if self.stopband_edge_hz > self.sample_rate_hz / 2.0:
            raise InvalidSpecError("stopband edge beyond Nyquist")
        for rip in (self.passband_ripple, self.stopband_ripple):
            if not 0.0 < rip < 1.0:
                raise InvalidSpecError(f"ripples must lie in (0, 1), got {rip}")
        if not isinstance(self.num_branches, numbers.Integral) or self.num_branches < 1:
            raise InvalidSpecError(f"num_branches must be an integer >= 1, got {self.num_branches}")

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
        # branch length bookkeeping: L = N * (sections + 1) when N divides L
        return math.ceil(self.length / self.spec.num_branches) - 1

    @property
    def dc_gain(self):
        return float(np.sum(self.coefficients))


@dataclass
class AllPassPrototype:
    """Nth-band recursive prototype: per-branch all-pass section coefficients.

    alphas[n-1, m] is the m-th first-order-section coefficient of branch
    n (n = 1..N-1); sections with complex coefficients come in exact
    conjugate pairs, which is the first-order factorisation of the real
    second-order sections used in hardware.  A lone complex section
    (a + z^-1)/(1 + a z^-1) is not all-pass, so a row that is not its
    own conjugate as a set (``np.poly``'s test for a real polynomial)
    raises ``InvalidSpecError``.  Branch 0 is a pure delay of
    sections_per_branch samples and carries no coefficients.
    """

    alphas: np.ndarray  # (N-1, sections per branch) complex
    spec: PrototypeSpec
    design_report: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.alphas = np.atleast_2d(np.asarray(self.alphas, dtype=np.complex128))
        if self.alphas.shape[0] != self.num_branches - 1:
            raise InvalidSpecError(
                f"alpha matrix has {self.alphas.shape[0]} rows; "
                f"N = {self.num_branches} needs N - 1 = {self.num_branches - 1}"
            )
        if not np.all(np.abs(self.alphas) < 1.0):  # NaN fails too
            raise StabilityError("all-pass coefficient on or outside the unit circle")
        if not np.array_equal(np.sort(self.alphas), np.sort(self.alphas.conj())):
            raise InvalidSpecError("a complex all-pass section has no exact conjugate")

    @property
    def num_branches(self):
        return self.spec.num_branches

    @property
    def sections_per_branch(self):
        return self.alphas.shape[1]

    @property
    def coefficient_count(self):
        return self.num_branches * self.sections_per_branch

    @property
    def dc_gain(self):
        return 1.0

    def branch_denominator(self, n):
        """Real-coefficient denominator polynomial of branch n (n >= 1)."""
        return np.poly(-self.alphas[n - 1])


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

    Returns L_IIR (= N * sections per branch); it is 0 up to just above
    the fit's 20 dB validity floor.  No caller warns: ``estimate_iir_order``
    floors the order at one section per branch, where design and sweep start.
    """
    if delta_f <= 0:
        raise InvalidSpecError(f"transition width must be positive, got {delta_f}")
    if not 0.0 < stopband_ripple < 1.0:
        raise InvalidSpecError(f"ripple must lie in (0, 1), got {stopband_ripple}")
    value = 0.058 * (-10.0 * math.log10(stopband_ripple) - 10.0) / delta_f
    return max(0, round(value))


def estimate_iir_order(stopband_ripple, delta_f, num_branches):
    """``estimate_iir_sections`` in whole sections per branch, at least one."""
    return max(1, round(estimate_iir_sections(stopband_ripple, delta_f) / num_branches))


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
        from scipy.signal import freqz

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
    from scipy.signal import firwin, kaiser_beta

    cutoff = 0.5 * (spec.fp_norm + spec.fa_norm)
    atten = -20.0 * math.log10(min(spec.stopband_ripple, spec.passband_ripple))
    taps = firwin(length, cutoff, window=("kaiser", kaiser_beta(atten)), fs=1.0)
    taps.setflags(write=False)  # a FirPrototype holds a read-only array without a copy
    return taps


def check_fir(taps, spec, method):
    """``FirCheck`` of ``taps`` against ``spec`` at ``measure_fir``'s default density."""
    pass_dev, stop_max = measure_fir(taps, spec)
    return FirCheck(pass_dev, stop_max, pass_dev <= spec.passband_ripple,
                    stop_max <= spec.stopband_ripple, len(taps), method)


def design_fir_equiripple(spec):
    """Equiripple lowpass meeting ``spec`` on a dense verification grid.

    Starts from the practical length estimate (rounded up to a multiple
    of the branch count N, so the polyphase branches come out equal
    length) and grows until the measured ripples pass.  Remez exchange
    first; Kaiser-window fallback if the exchange fails to converge at
    some length.  The shortest passing length wins; after
    ``_LENGTH_ATTEMPTS`` failing lengths it raises with the best check
    attached.
    """
    from scipy.signal import remez

    n = spec.num_branches
    est = estimate_fir_length(spec.passband_ripple, spec.stopband_ripple, spec.delta_f)
    step = n if n > 1 else max(1, est // 256)
    length = n * math.ceil(max(est, 2) / n)
    best = None
    for _ in range(_LENGTH_ATTEMPTS):
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
        f"no passing FIR design within {_LENGTH_ATTEMPTS} attempts "
        f"(best: pass_dev={best.passband_dev:.3g}, stop_max={best.stopband_max:.3g})",
        report=best)


def fir_from_taps(taps, num_branches):
    """Wrap raw taps (e.g. hand-written test filters) in a FirPrototype.

    The attached spec is bookkeeping only: unit sample rate, quarter-band
    edges, loose ripples.
    """
    spec = PrototypeSpec(sample_rate_hz=1.0, passband_edge_hz=0.2, stopband_edge_hz=0.3,
                         passband_ripple=0.5, stopband_ripple=0.5, num_branches=num_branches)
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
    """True when every root of z^M + d1 z^(M-1) + ... + dM has |z| < _ALPHA_LIMIT."""
    return bool(np.all(np.abs(np.roots(np.r_[1.0, d])) < _ALPHA_LIMIT))


def _fit_branch_delay(order, delay, w_max):
    """Minimax fit of an order-``order`` all-pass to a ``delay``-sample delay.

    Returns ``(d, peak, steps)``: the real denominator coefficients
    d[1..order] minimising the peak phase error over [0, w_max], that
    peak in radians, and the number of Gauss-Newton steps taken.
    Linearised least squares seeds the solve; damped Gauss-Newton with
    envelope reweighting anneals toward the equiripple solution.  The
    steps stop once the least peak seen so far has fallen by less than
    ``_FIT_RTOL`` times itself over the last ``_FIT_WINDOW`` steps, and
    after ``_FIT_MAX_STEPS`` at most.  Of the seed and every step's
    iterate, the one of least peak with all poles strictly inside the
    unit circle is returned, the earliest on a tie.
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
    best = []  # least peak seen so far, at the top of each step
    lawson = 1.0 / np.abs(dw)
    lawson /= lawson.max()
    lam = 1e-9
    for steps in range(_FIT_MAX_STEPS + 1):
        abs_err = np.abs(err)
        peak = abs_err.max()
        iterates.append((peak, d))
        best.append(min(peak, best[-1]) if best else peak)
        if steps == _FIT_MAX_STEPS or (
                steps >= _FIT_WINDOW
                and best[-1 - _FIT_WINDOW] - best[-1] < _FIT_RTOL * best[-1]):
            break
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
            return d, peak, steps
    raise DesignFailureError(f"no stable all-pass fit for order={order}, delay={delay:.4f}")


def _alphas_from_denominator(d):
    """Section coefficients: D(z) = prod_m (1 + alpha_m z^-1)."""
    roots = np.roots(np.concatenate(([1.0], d)))
    alphas = -roots
    order = np.lexsort((alphas.imag, alphas.real))
    return alphas[order]


def design_iir_nthband_alp(spec):
    """Recursive Nth-band almost-linear-phase prototype of the fewest sections.

    The order (sections per branch) starts at ``estimate_iir_order`` and
    grows by one until the design passes ``verify_allpass``, as
    ``design_fir_equiripple`` grows its length.  It raises with the last
    verification report attached after ``_ORDER_ATTEMPTS`` failing orders,
    or as soon as a report is no better (passband deviation plus stopband
    peak) than the one before: beyond the fit's reach more sections do not
    help.  An order with no stable fit has no report and does not count.
    """
    first = estimate_iir_order(spec.stopband_ripple, spec.delta_f, spec.num_branches)
    best = None  # every report so far beat the one before, so the last is the best
    for order in range(first, first + _ORDER_ATTEMPTS):
        try:
            return _design_iir_at_order(spec, order)
        except DesignFailureError as err:
            report = err.report
        if report is not None:
            if best is not None and (report.passband_dev + report.stopband_max
                                     >= best.passband_dev + best.stopband_max):
                break
            best = report
    raise DesignFailureError(
        f"no passing recursive design at {first}-{order} sections per branch", report=best)


def _design_iir_at_order(spec, order):
    """The recursive design at ``order`` sections per branch.

    Branch n (n = 1..N-1) is an order-``order`` all-pass approximating a
    delay of order - n/N samples at the decimated rate over the passband
    image [0, 2*pi*N*f_p/f_s]; branch 0 is a pure ``order``-sample delay.
    The design is verified (passband flatness, guarded stopband, phase
    linearity within ``_PHASE_LIMIT_DEG``), and a failed verification
    raises with the achieved numbers attached.
    """
    n_br = spec.num_branches
    w_max = 2.0 * np.pi * n_br * spec.fp_norm
    if w_max >= np.pi:
        raise InvalidSpecError(
            f"passband edge {spec.fp_norm} too wide for {n_br} branches "
            f"(need f_p/f_s < 1/(2N))"
        )
    delays = [order - n / n_br for n in range(1, n_br)]
    fits = [_fit_branch_delay(order, delay, w_max) for delay in delays]
    alphas = np.array([_alphas_from_denominator(d) for d, *_ in fits], dtype=np.complex128)
    proto = AllPassPrototype(alphas.reshape(n_br - 1, order), spec)  # (0, order) at N = 1
    check = verify_allpass(proto)
    check.branch_phase_err_rad = tuple(peak for _, peak, _ in fits)
    check.branch_fit_steps = tuple(steps for *_, steps in fits)
    proto.design_report = check
    if not check.ok:
        raise DesignFailureError(
            f"recursive design failed verification: pass_dev={check.passband_dev:.3g} "
            f"(limit {max(spec.passband_ripple, 1e-5):.3g}), "
            f"stop_max={check.stopband_max:.3g} (limit {spec.stopband_ripple:.3g}), "
            f"phase_dev={check.phase_dev_deg:.3g} deg (limit {_PHASE_LIMIT_DEG:.3g})",
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


def composite_response(proto, freqs):
    """Response of the recomposed prototype at normalized frequencies.

    For the recursive kind, sum_n e^{-jwn} A_n(e^{jNw}) z^-M / N with
    A_0 = 1 and M sections per branch: the delay factor is applied once,
    e^{-jwn} comes by recurrence, and each branch costs one Horner evaluation.
    """
    freqs = np.asarray(freqs, dtype=float)
    if isinstance(proto, FirPrototype):
        from scipy.signal import freqz

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


def _guarded_stopband_mask(freqs, num_branches, fp_norm, fa_norm):
    """True at the stopband frequencies where the recursive prototype's
    attenuation is guaranteed: [k/N - fp, k/N + fp] at and above fa.

    The rest of the stopband, (k/N + fp, (k+1)/N - fp), holds the images
    of the transition band midway between channel centres, where the
    prototype may spike; the plan's guardbands cover them.
    """
    mask = np.zeros(freqs.shape, dtype=bool)
    for k in range(1, num_branches // 2 + 1):
        mask |= np.abs(freqs - k / num_branches) <= fp_norm
    return mask & (freqs >= fa_norm)


@dataclass
class AlpCheck:
    passband_dev: float  # linear
    passband_dev_db: float
    stopband_max: float  # linear, guarded grid
    spike_max_db: float
    phase_dev_deg: float
    group_delay: float  # full-rate samples
    ok_passband: bool
    ok_stopband: bool
    ok_phase: bool
    branch_phase_err_rad: tuple = ()
    branch_fit_steps: tuple = ()

    @property
    def stopband_atten_db(self):
        return -20.0 * math.log10(max(self.stopband_max, 1e-300))

    @property
    def ok(self):
        return self.ok_passband and self.ok_stopband and self.ok_phase


def verify_allpass(proto):
    """Dense-grid verification of a recursive Nth-band design."""
    spec = proto.spec
    freqs = np.linspace(0.0, 0.5, 1 << 17)
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

    return AlpCheck(
        passband_dev=pass_dev,
        passband_dev_db=pass_dev_db,
        stopband_max=stop_max,
        spike_max_db=20.0 * math.log10(max(spike_max, 1e-300)),
        phase_dev_deg=phase_dev,
        group_delay=float(-slope),
        ok_passband=pass_dev <= max(spec.passband_ripple, 1e-5),
        ok_stopband=stop_max <= spec.stopband_ripple,
        ok_phase=phase_dev < _PHASE_LIMIT_DEG,
    )


# ---------------------------------------------------------------------------
# coefficient files


def _fmt(x):
    return format(float(x), ".17g")


def export_coefficients(proto, path):
    """Write ``proto`` as a UTF-8 coefficient text file.

    The '# key=value' header lines carry kind (fir or iir, from the
    prototype's class), N, n_fos, fs_hz, fp_hz, fa_hz, dp and ds.  The
    body is one FIR tap per line, or one 'branch,section,alpha_re,alpha_im'
    line per all-pass section (branch 1..N-1, section 0..n_fos-1) for the
    recursive kind.  Every number is written with 17 significant digits,
    so it reads back bit-exactly.
    """
    spec = proto.spec
    fir = isinstance(proto, FirPrototype)
    lines = [f"# kind={'fir' if fir else 'iir'}"]
    lines.append(f"# N={spec.num_branches}")
    lines.append(f"# n_fos={proto.sections_per_branch}")
    lines.append(f"# fs_hz={_fmt(spec.sample_rate_hz)}")
    lines.append(f"# fp_hz={_fmt(spec.passband_edge_hz)}")
    lines.append(f"# fa_hz={_fmt(spec.stopband_edge_hz)}")
    lines.append(f"# dp={_fmt(spec.passband_ripple)}")
    lines.append(f"# ds={_fmt(spec.stopband_ripple)}")
    if fir:
        lines.extend(_fmt(tap) for tap in proto.coefficients)
    else:
        for n in range(1, proto.num_branches):
            for m_idx in range(proto.sections_per_branch):
                a = proto.alphas[n - 1, m_idx]
                lines.append(f"{n},{m_idx},{_fmt(a.real)},{_fmt(a.imag)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
