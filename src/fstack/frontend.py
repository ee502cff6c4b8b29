"""Analogue frequency-stacking front end and wideband ADC simulation.

Two independent paths build the stacked real signal the channelizer
ingests:

* ``stack_baseband_equivalent`` places each element's complex baseband
  directly at its planned centre F_n in the first Nyquist image
  (post-ADC equivalent);
* ``simulate_rf_chain`` models the actual chain: upconvert to RF, mix
  with the integer-locked LO, ideal band-pass, sum, then sample in the
  configured Nyquist zone of the ADC clock.  Sampling an even zone
  folds the spectrum with inversion; the two paths agreeing is the
  cross-check that the planner's sign algebra is right.

``stack_fdm_stimulus`` is the fast form of the first path for the
seeded FDM stimulus: it writes every element's bins straight into one
full-rate spectrum instead of upsampling and mixing each element.  Only
the RF chain, which folds its bands from the LOs alone, checks them for
overlap; the others trust the plan, which keeps its bands apart (f_a > f_p).

Element stimuli are seeded and exactly band-limited (frequency-domain
masked noise), either flat over the occupied bandwidth or laid out as
an FDM grid of user channels with per-channel guardbands, which mirrors
how mobile sub-bands are actually occupied.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, StackingError

_SIDECAR_SUFFIX = ".meta"
_SIDECAR_LABEL = "stacked:fdm"
PERIODOGRAM_NFFT = 8192


@dataclass
class SignalBuffer:
    """Sampled signal and its rate; ``samples`` is float64 or complex128, and
    that dtype is the ``domain``."""

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self):
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise InvalidSpecError(f"sample rate must be finite and positive, got {self.rate_hz}")
        x = np.asarray(self.samples)
        self.samples = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)

    @property
    def domain(self):
        return "complex" if np.iscomplexobj(self.samples) else "real"

    def __len__(self):
        return self.samples.size

    @property
    def power(self):
        return mean_power(self.samples) if len(self) else 0.0


def mean_power(x):
    """Mean of |x|^2; for real x, ``np.square``, bit-identical to ``np.abs(x) ** 2``
    with one full-length temporary fewer."""
    return float(np.mean(np.abs(x) ** 2 if np.iscomplexobj(x) else np.square(x)))


@dataclass
class ElementSignal:
    """One antenna element's sub-band at complex baseband."""

    subband_index: int
    baseband: SignalBuffer


@dataclass(frozen=True)
class AdcModel:
    bits: int = 12
    full_scale: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.bits, numbers.Integral) and 4 <= self.bits <= 24):
            raise InvalidSpecError(f"ADC bits must be an integer in [4, 24], got {self.bits}")
        if not (math.isfinite(self.full_scale) and self.full_scale > 0):
            raise InvalidSpecError(f"full_scale must be finite and positive, got {self.full_scale}")


# ---------------------------------------------------------------------------
# stimulus generation


def _band_draws(n_samples, rate_hz, intervals, rng):
    """The FFT bins the bands cover, in FFT order, and their complex normal
    draws in that order, so every stimulus built from one seed gets the same values."""
    # bins in ascending order: each band [lo, hi] is one contiguous run
    freqs = np.fft.fftshift(np.fft.fftfreq(n_samples, d=1.0 / rate_hz))
    mask = np.zeros(n_samples, dtype=bool)
    for lo, hi in intervals:
        mask[np.searchsorted(freqs, lo, "left") : np.searchsorted(freqs, hi, "right")] = True
    bins = np.flatnonzero(np.fft.ifftshift(mask))
    if not bins.size:
        raise InvalidSpecError("stimulus mask is empty; intervals too narrow")
    return bins, rng.standard_normal(bins.size) + 1j * rng.standard_normal(bins.size)


def _masked_noise(n_samples, rate_hz, intervals, rng):
    """Unit-power complex noise whose spectrum lives on the given bands."""
    bins, draws = _band_draws(n_samples, rate_hz, intervals, rng)
    spectrum = np.zeros(n_samples, dtype=np.complex128)
    spectrum[bins] = draws
    del bins, draws  # freed before the transform allocates its output
    x = np.fft.ifft(spectrum)
    x /= math.sqrt(mean_power(x))
    return x


def fdm_grid_intervals(plan, subband_index, granularity_hz, guardband_fraction):
    """Per-user-channel occupied bands (at element baseband) for one sub-band.

    The user grid is anchored to the coarse channel centre n*fs/N, not to
    the stacked centre F_n, so the element baseband content is shifted by
    the planner's signed offset.  Only channels fully inside the occupied
    bandwidth are kept.
    """
    inp = plan.inputs
    offset = plan.signed_offset(subband_index)
    half_b = inp.bandwidth / 2.0
    half_use = 0.5 * (1.0 - guardband_fraction) * granularity_hz
    intervals = []
    k_max = int(math.floor(inp.bandwidth / granularity_hz)) + 1
    for k in range(-k_max, k_max + 1):
        centre = k * granularity_hz - offset
        if centre - half_use >= -half_b and centre + half_use <= half_b:
            intervals.append((centre - half_use, centre + half_use))
    return intervals


def generate_subband_signal(
    subband_index,
    plan,
    duration_samples,
    seed,
    profile="noise",
    granularity_hz=None,
    guardband_fraction=0.1,
):
    """Seeded band-limited stimulus for one occupied sub-band.

    profile="noise" fills the occupied bandwidth; profile="fdm" lays the
    power on a user-channel grid with per-channel guardbands (pass
    granularity_hz, normally the fine channelizer granularity).
    """
    _check_subbands(plan, [subband_index])
    inp = plan.inputs
    rate = inp.channel_spacing
    rng = np.random.default_rng(seed)
    if profile == "noise":
        intervals = [(-inp.bandwidth / 2.0, inp.bandwidth / 2.0)]
    elif profile == "fdm":
        if granularity_hz is None:
            raise InvalidSpecError("fdm profile needs granularity_hz")
        intervals = fdm_grid_intervals(
            plan, subband_index, granularity_hz, guardband_fraction
        )
    else:
        raise InvalidSpecError(f"unknown stimulus profile {profile!r}")
    x = _masked_noise(int(duration_samples), rate, intervals, rng)
    return ElementSignal(subband_index=subband_index, baseband=SignalBuffer(x, rate))


# ---------------------------------------------------------------------------
# stacking paths


def _fft_upsample(x, factor):
    """Exact spectral zero-padding interpolation (input is band-limited)."""
    n = x.size
    spectrum = np.fft.fft(x)
    out = np.zeros(n * factor, dtype=np.complex128)
    pos = (n + 1) // 2  # non-negative frequency bins
    out[:pos] = spectrum[:pos]
    if n - pos:
        out[-(n - pos) :] = spectrum[pos:]
    return np.fft.ifft(out) * factor


def _check_subbands(plan, indices):
    """Each index is one of ``plan``'s sub-bands (else ``InvalidSpecError``)
    and none repeats (else ``StackingError``)."""
    for n in indices:
        if n not in plan.occupied_subbands:
            raise InvalidSpecError(f"sub-band {n} is not occupied in this plan")
    if len(set(indices)) != len(indices):
        raise StackingError("duplicate sub-band indices")


def _element_length(elements):
    """The one length every element's baseband shares (0 for no element)."""
    sizes = {len(e.baseband) for e in elements}
    if len(sizes) > 1:
        raise StackingError("all elements must have the same length")
    return max(sizes, default=0)


def stack_baseband_equivalent(elements, plan):
    """Post-ADC equivalent stacked real signal at rate f_s (no quantization)."""
    inp = plan.inputs
    n = inp.num_channels
    _check_subbands(plan, [e.subband_index for e in elements])
    total = _element_length(elements) * n
    t = np.arange(total) / inp.f_s
    acc = np.zeros(total)
    for element in elements:
        up = _fft_upsample(element.baseband.samples, n)
        f_n = plan.centre(element.subband_index)
        acc += np.real(up * np.exp(2j * np.pi * f_n * t))
    return SignalBuffer(acc, inp.f_s)


def stack_fdm_stimulus(plan, subbands, element_samples, seed, granularity_hz,
                       guardband_fraction=0.1):
    """Stacked FDM stimulus at rate f_s, built in one real spectrum.

    Sub-band ``sub`` takes its bins and values from the call that
    ``generate_subband_signal(sub, plan, element_samples, seed + sub,
    "fdm", ...)`` makes for its element spectrum, scales them to the same
    unit power and adds them at the bin offset round(F_n / df) of one
    full-rate spectrum (df = f_s / (N * element_samples)); one ``irfft``
    gives the stacked signal.  With every F_n on a whole bin (the
    reference plan at 983 040 and at 7 142 400 samples, for example) this
    is ``stack_baseband_equivalent`` of those elements up to rounding;
    otherwise each band lands on the bin nearest its centre, less than
    half a bin away.
    """
    inp = plan.inputs
    if not subbands:
        return SignalBuffer(np.zeros(0), inp.f_s)
    _check_subbands(plan, list(subbands))
    if not (isinstance(element_samples, numbers.Integral) and element_samples >= 1):
        raise InvalidSpecError(f"element_samples must be an integer >= 1, got {element_samples}")
    total = element_samples * inp.num_channels
    df = inp.f_s / total
    spectrum = np.zeros(total // 2 + 1, dtype=np.complex128)
    for sub in subbands:
        intervals = fdm_grid_intervals(plan, sub, granularity_hz, guardband_fraction)
        bins, draws = _band_draws(element_samples, inp.channel_spacing,
                                  intervals, np.random.default_rng(seed + sub))
        bins[bins >= (element_samples + 1) // 2] -= element_samples  # signed frequency index
        # the unit-power element, upsampled and mixed to its bin offset,
        # is Re(ifft(Z)) with Z = total * draws / |draws| on its bins; as
        # an irfft spectrum, bin k of Z puts Z/2 at k and conj(Z)/2 at
        # total - k, whichever of them lie in [0, total/2]
        values = draws * (0.5 * total / np.linalg.norm(draws))
        k = (bins + round(plan.centre(sub) / df)) % total
        pos, neg = k <= total // 2, (total - k) % total <= total // 2
        np.add.at(spectrum, k[pos], values[pos])
        np.add.at(spectrum, (total - k[neg]) % total, np.conj(values[neg]))
    return SignalBuffer(np.fft.irfft(spectrum, total), inp.f_s)


def simulate_rf_chain(elements, plan, oversample_factor=8):
    """Stacked signal via the RF path: upconvert, mix, band-pass, sample.

    Serves as the oracle for stack_baseband_equivalent; the fold of the
    configured Nyquist zone happens naturally in the final decimation.
    """
    if oversample_factor < 4:
        raise InvalidSpecError("oversample_factor must be >= 4")
    _check_subbands(plan, [e.subband_index for e in elements])
    inp = plan.inputs
    n = inp.num_channels
    total = _element_length(elements) * n * oversample_factor
    rf_rate = oversample_factor * inp.f_s
    if inp.f_c + inp.bandwidth / 2.0 >= rf_rate / 2.0:
        raise StackingError("oversample_factor too small to represent the RF carrier")
    t = np.arange(total) / rf_rate
    freqs = np.fft.fftfreq(total, d=1.0 / rf_rate)

    acc = np.zeros(total)
    folded = []
    for element in elements:
        up = _fft_upsample(element.baseband.samples, n * oversample_factor)
        rf = np.real(up * np.exp(2j * np.pi * inp.f_c * t))
        lo_hz = plan.betas[element.subband_index - 1] * inp.f_o
        mixed = rf * 2.0 * np.cos(2.0 * np.pi * lo_hz * t)
        # ideal band-pass keeping only the difference product
        centre = abs(inp.f_c - lo_hz)
        spectrum = np.fft.fft(mixed)
        keep = (np.abs(np.abs(freqs) - centre) <= inp.bandwidth / 2.0 * 1.02)
        acc += np.real(np.fft.ifft(spectrum * keep))
        fold = centre % inp.f_s
        folded.append(min(fold, inp.f_s - fold))
    folded.sort()
    for below, above in zip(folded, folded[1:]):
        if above - below < inp.bandwidth:
            raise StackingError(f"stacked bands at {below:.6g} and {above:.6g} Hz overlap")
    return SignalBuffer(acc[::oversample_factor], inp.f_s)


# ---------------------------------------------------------------------------
# ADC and channel impairments


def adc_quantize(buf, model):
    """Uniform mid-rise quantization, saturating at the full-scale edges.

    Returns the quantized signal and the number of samples that fell
    outside the full scale (and were clipped to its edge levels).
    """
    if buf.domain != "real":
        raise InvalidSpecError("ADC input must be real")
    step = 2.0 * model.full_scale / (1 << model.bits)
    levels = np.floor(buf.samples / step)
    top = (1 << (model.bits - 1)) - 1
    bottom = -(1 << (model.bits - 1))
    saturated = int(np.count_nonzero((levels > top) | (levels < bottom)))
    q = (np.clip(levels, bottom, top) + 0.5) * step
    return SignalBuffer(q, buf.rate_hz), saturated


def add_awgn(buf, snr_db, seed):
    """Additive white Gaussian noise at the requested SNR (+inf passes, -inf and NaN raise)."""
    if snr_db is None or snr_db == math.inf:
        return SignalBuffer(buf.samples.copy(), buf.rate_hz)
    if not math.isfinite(snr_db):
        raise InvalidSpecError(f"SNR must be finite or +inf, got {snr_db} dB")
    rng = np.random.default_rng(seed)
    power = buf.power
    noise_power = power / (10.0 ** (snr_db / 10.0))
    if buf.domain == "complex":
        noise = math.sqrt(noise_power / 2.0) * (
            rng.standard_normal(len(buf)) + 1j * rng.standard_normal(len(buf))
        )
    else:
        noise = math.sqrt(noise_power) * rng.standard_normal(len(buf))
    return SignalBuffer(buf.samples + noise, buf.rate_hz)


# ---------------------------------------------------------------------------
# measurements


def periodogram_db(buf):
    """Averaged Hann periodogram of ``PERIODOGRAM_NFFT``-point segments (one
    segment if the signal is shorter); returns (freq_hz, power_db) for f >= 0."""
    x = buf.samples
    nfft = min(PERIODOGRAM_NFFT, x.size)
    window = np.hanning(nfft)
    scale = np.sum(window**2)
    n_seg = max(1, x.size // nfft)
    acc = np.zeros(nfft)
    for seg in range(n_seg):
        chunk = x[seg * nfft : (seg + 1) * nfft] * window
        acc += np.abs(np.fft.fft(chunk)) ** 2
    psd = acc / (n_seg * scale)
    freqs = np.fft.fftfreq(nfft, d=1.0 / buf.rate_hz)
    keep = freqs >= 0 if buf.domain == "real" else slice(None)
    order = np.argsort(freqs[keep])
    return freqs[keep][order], 10.0 * np.log10(np.maximum(psd[keep][order], 1e-300))


# ---------------------------------------------------------------------------
# signal files


def write_signal(buf, path):
    """Raw little-endian float64 payload plus a UTF-8 sidecar (.meta) of the
    rate, domain, length and the ``stack`` command's label."""
    path = str(path)
    if buf.domain == "complex":
        payload = buf.samples.astype("<c16").tobytes()  # interleaved I,Q
    else:
        payload = buf.samples.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(payload)
    with open(path + _SIDECAR_SUFFIX, "w", encoding="utf-8") as fh:
        fh.write(f"rate_hz={format(buf.rate_hz, '.17g')}\n")
        fh.write(f"domain={buf.domain}\n")
        fh.write(f"length={len(buf)}\n")
        fh.write(f"label={_SIDECAR_LABEL}\n")
