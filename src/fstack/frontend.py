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
full-rate spectrum instead of upsampling and mixing each element.

Element stimuli are seeded and exactly band-limited (frequency-domain
masked noise), either flat over the occupied bandwidth or laid out as
an FDM grid of user channels with per-channel guardbands, which mirrors
how mobile sub-bands are actually occupied.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FstackError, InvalidSpecError, StackingError

_SIDECAR_SUFFIX = ".meta"


@dataclass
class SignalBuffer:
    """Sampled signal with rate and provenance metadata."""

    samples: np.ndarray
    rate_hz: float
    domain: str  # "real" | "complex"
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise InvalidSpecError("sample rate must be positive")
        if self.domain not in ("real", "complex"):
            raise InvalidSpecError(f"domain must be real|complex, got {self.domain!r}")
        dtype = np.complex128 if self.domain == "complex" else np.float64
        self.samples = np.asarray(self.samples, dtype=dtype)

    def __len__(self):
        return self.samples.size

    @property
    def power(self):
        if not len(self):
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))


@dataclass
class ElementSignal:
    """One antenna element's sub-band at complex baseband."""

    subband_index: int
    baseband: SignalBuffer
    power: float


@dataclass(frozen=True)
class AdcModel:
    bits: int = 12
    full_scale: float = 1.0
    rate_hz: float = 1.28e9
    nyquist_zone: int = 1

    def __post_init__(self):
        if not 4 <= self.bits <= 24:
            raise InvalidSpecError(f"ADC bits must be in [4, 24], got {self.bits}")
        if self.full_scale <= 0:
            raise InvalidSpecError("full_scale must be positive")


# ---------------------------------------------------------------------------
# stimulus generation


def _band_spectrum(n_samples, rate_hz, intervals, rng):
    """Element spectrum in FFT order: complex normal draws on the bins the bands cover.

    Returns the spectrum and its mask.  The draws fill the masked bins in
    FFT order, so every stimulus built from one seed gets the same values.
    """
    # bins in ascending order: each band [lo, hi] is one contiguous run
    freqs = np.fft.fftshift(np.fft.fftfreq(n_samples, d=1.0 / rate_hz))
    mask = np.zeros(n_samples, dtype=bool)
    for lo, hi in intervals:
        mask[np.searchsorted(freqs, lo, "left") : np.searchsorted(freqs, hi, "right")] = True
    mask = np.fft.ifftshift(mask)
    if not np.any(mask):
        raise InvalidSpecError("stimulus mask is empty; intervals too narrow")
    spectrum = np.zeros(n_samples, dtype=np.complex128)
    k = int(np.count_nonzero(mask))
    spectrum[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return spectrum, mask


def _masked_noise(n_samples, rate_hz, intervals, rng):
    """Unit-power complex noise whose spectrum lives on the given bands."""
    spectrum, _ = _band_spectrum(n_samples, rate_hz, intervals, rng)
    x = np.fft.ifft(spectrum)
    x /= math.sqrt(np.mean(np.abs(x) ** 2))
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
    if subband_index not in plan.occupied_subbands:
        raise InvalidSpecError(
            f"sub-band {subband_index} is not occupied in this plan"
        )
    inp = plan.inputs
    rate = inp.f_s / inp.num_channels
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
    buf = SignalBuffer(x, rate, "complex", label=f"subband{subband_index}:{profile}")
    return ElementSignal(subband_index=subband_index, baseband=buf, power=buf.power)


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


def _check_disjoint(bands):
    bands = sorted(bands)
    for (lo1, hi1), (lo2, hi2) in zip(bands, bands[1:]):
        if hi1 > lo2:
            raise StackingError(
                f"stacked bands overlap: [{lo1:.6g}, {hi1:.6g}] and [{lo2:.6g}, {hi2:.6g}]"
            )


def _check_stackable(plan, indices):
    if len(set(indices)) != len(indices):
        raise StackingError("duplicate sub-band indices")
    half_b = plan.inputs.bandwidth / 2.0
    _check_disjoint([(plan.centre(i) - half_b, plan.centre(i) + half_b) for i in indices])


def stack_baseband_equivalent(elements, plan):
    """Post-ADC equivalent stacked real signal at rate f_s (no quantization)."""
    inp = plan.inputs
    n = inp.num_channels
    if not elements:
        return SignalBuffer(np.zeros(0), inp.f_s, "real", label="stacked:empty")
    sizes = {len(e.baseband) for e in elements}
    if len(sizes) != 1:
        raise StackingError("all elements must have the same length")
    _check_stackable(plan, [e.subband_index for e in elements])
    total = sizes.pop() * n
    t = np.arange(total) / inp.f_s
    acc = np.zeros(total)
    for element in elements:
        up = _fft_upsample(element.baseband.samples, n)
        f_n = plan.centre(element.subband_index)
        acc += np.real(up * np.exp(2j * np.pi * f_n * t))
    return SignalBuffer(acc, inp.f_s, "real", label="stacked:baseband-equivalent")


def stack_fdm_stimulus(plan, subbands, element_samples, seed, granularity_hz,
                       guardband_fraction=0.1):
    """Stacked FDM stimulus at rate f_s, built in one real spectrum.

    Sub-band ``sub`` draws the bins and values that
    ``generate_subband_signal(sub, plan, element_samples, seed + sub,
    "fdm", ...)`` puts in its element spectrum, scaled to the same unit
    power, and adds them at the bin offset round(F_n / df) of one
    full-rate spectrum (df = f_s / (N * element_samples)); one ``irfft``
    gives the stacked signal.  With every F_n on a whole bin (the
    reference plan at 983 040 and at 7 142 400 samples, for example) this
    is ``stack_baseband_equivalent`` of those elements up to rounding;
    otherwise each band lands on the bin nearest its centre, less than
    half a bin away.
    """
    inp = plan.inputs
    if not subbands:
        return SignalBuffer(np.zeros(0), inp.f_s, "real", label="stacked:empty")
    for sub in subbands:
        if sub not in plan.occupied_subbands:
            raise InvalidSpecError(f"sub-band {sub} is not occupied in this plan")
    _check_stackable(plan, list(subbands))
    total = element_samples * inp.num_channels
    df = inp.f_s / total
    spectrum = np.zeros(total // 2 + 1, dtype=np.complex128)
    for sub in subbands:
        intervals = fdm_grid_intervals(plan, sub, granularity_hz, guardband_fraction)
        element, mask = _band_spectrum(element_samples, inp.f_s / inp.num_channels,
                                       intervals, np.random.default_rng(seed + sub))
        bins = np.flatnonzero(mask)
        draws = element[bins]
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
    return SignalBuffer(np.fft.irfft(spectrum, total), inp.f_s, "real", label="stacked:fdm")


def simulate_rf_chain(elements, plan, oversample_factor=8):
    """Stacked signal via the RF path: upconvert, mix, band-pass, sample.

    Serves as the oracle for stack_baseband_equivalent; the fold of the
    configured Nyquist zone happens naturally in the final decimation.
    """
    if oversample_factor < 4:
        raise InvalidSpecError("oversample_factor must be >= 4")
    inp = plan.inputs
    n = inp.num_channels
    if not elements:
        return SignalBuffer(np.zeros(0), inp.f_s, "real", label="stacked:rf")
    sizes = {len(e.baseband) for e in elements}
    if len(sizes) != 1:
        raise StackingError("all elements must have the same length")
    rf_rate = oversample_factor * inp.f_s
    if inp.f_c + inp.bandwidth / 2.0 >= rf_rate / 2.0:
        raise StackingError("oversample_factor too small to represent the RF carrier")
    total = sizes.pop() * n * oversample_factor
    t = np.arange(total) / rf_rate
    freqs = np.fft.fftfreq(total, d=1.0 / rf_rate)
    half_b = inp.bandwidth / 2.0

    acc = np.zeros(total)
    folded = []
    for element in elements:
        idx = element.subband_index
        up = _fft_upsample(element.baseband.samples, n * oversample_factor)
        rf = np.real(up * np.exp(2j * np.pi * inp.f_c * t))
        lo_hz = plan.betas[idx - 1] * inp.f_o
        mixed = rf * 2.0 * np.cos(2.0 * np.pi * lo_hz * t)
        # ideal band-pass keeping only the difference product
        centre = abs(inp.f_c - lo_hz)
        spectrum = np.fft.fft(mixed)
        keep = (np.abs(np.abs(freqs) - centre) <= half_b * 1.02)
        mixed = np.real(np.fft.ifft(spectrum * keep))
        acc += mixed
        fold = centre % inp.f_s
        folded.append(min(fold, inp.f_s - fold))
    _check_disjoint([(c - half_b, c + half_b) for c in folded])
    sampled = acc[::oversample_factor]
    return SignalBuffer(sampled, inp.f_s, "real", label="stacked:rf")


# ---------------------------------------------------------------------------
# ADC and channel impairments


def adc_quantize(buf, model):
    """Uniform mid-rise quantization, saturating at the full-scale edges.

    The saturation count is reported in the output metadata.
    """
    if buf.domain != "real":
        raise InvalidSpecError("ADC input must be real")
    step = 2.0 * model.full_scale / (1 << model.bits)
    levels = np.floor(buf.samples / step)
    top = (1 << (model.bits - 1)) - 1
    bottom = -(1 << (model.bits - 1))
    saturated = int(np.count_nonzero((levels > top) | (levels < bottom)))
    q = (np.clip(levels, bottom, top) + 0.5) * step
    out = SignalBuffer(q, buf.rate_hz, "real", label=f"{buf.label}|adc{model.bits}")
    out.meta["saturation_count"] = saturated
    out.meta["lsb"] = step
    return out


def add_awgn(buf, snr_db, seed):
    """Additive white Gaussian noise at the requested SNR (inf = passthrough)."""
    if snr_db is None or math.isinf(snr_db):
        out = SignalBuffer(buf.samples.copy(), buf.rate_hz, buf.domain, buf.label)
        out.meta.update(buf.meta)
        return out
    rng = np.random.default_rng(seed)
    power = buf.power
    noise_power = power / (10.0 ** (snr_db / 10.0))
    if buf.domain == "complex":
        noise = math.sqrt(noise_power / 2.0) * (
            rng.standard_normal(len(buf)) + 1j * rng.standard_normal(len(buf))
        )
    else:
        noise = math.sqrt(noise_power) * rng.standard_normal(len(buf))
    out = SignalBuffer(
        buf.samples + noise, buf.rate_hz, buf.domain, label=f"{buf.label}|awgn{snr_db}"
    )
    out.meta["noise_power"] = noise_power
    return out


# ---------------------------------------------------------------------------
# measurements


def periodogram_db(buf, nfft=8192):
    """Averaged Hann periodogram; returns (freq_hz, power_db) for f >= 0."""
    x = buf.samples
    nfft = min(nfft, x.size)
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


def occupied_bandwidth(buf, fraction=0.99):
    """Width of the smallest centred band holding ``fraction`` of the power."""
    x = buf.samples
    spectrum = np.abs(np.fft.fft(x)) ** 2
    freqs = np.fft.fftfreq(x.size, d=1.0 / buf.rate_hz)
    order = np.argsort(spectrum)[::-1]
    total = spectrum.sum()
    acc = 0.0
    chosen = []
    for idx in order:
        acc += spectrum[idx]
        chosen.append(freqs[idx])
        if acc >= fraction * total:
            break
    return float(np.max(chosen) - np.min(chosen))


def band_power_centroid(buf, lo_hz, hi_hz, nfft=8192):
    """Power-weighted centre frequency of the band [lo, hi]."""
    freqs, p_db = periodogram_db(buf, nfft)
    power = 10.0 ** (p_db / 10.0)
    mask = (freqs >= lo_hz) & (freqs <= hi_hz)
    if not np.any(mask):
        raise FstackError("empty measurement band")
    return float(np.sum(freqs[mask] * power[mask]) / np.sum(power[mask]))


# ---------------------------------------------------------------------------
# signal files


def write_signal(buf, path):
    """Raw little-endian float64 payload plus a UTF-8 sidecar (.meta)."""
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
        fh.write(f"label={buf.label}\n")


def read_signal(path):
    path = str(path)
    meta = {}
    with open(path + _SIDECAR_SUFFIX, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.rstrip("\n").partition("=")
            meta[key] = val
    domain = meta.get("domain", "real")
    raw = np.fromfile(path, dtype="<c16" if domain == "complex" else "<f8")
    expected = int(meta.get("length", raw.size))
    if raw.size != expected:
        raise FstackError(
            f"{path}: payload holds {raw.size} samples, sidecar says {expected}"
        )
    return SignalBuffer(raw, float(meta["rate_hz"]), domain, label=meta.get("label", ""))
