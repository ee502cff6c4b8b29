"""Two-stage coarse/fine channelizer pipeline and its end-to-end metrics.

The coarse stage recovers the stacked sub-bands from the real wideband
input (N channels, channel 0 and N/2 reserved empty); the fine stage
splits each recovered sub-band into user channels on the configured
granularity grid.  Synthesis reverses both stages.  With channel
processing disabled the whole pipeline approximates a pure delay, which
is what the metrics measure: the output is aligned to the input by the
integer cross-correlation peak and compared in the mean-squared sense,
normalized by signal power.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from .errors import ConfigError, InvalidSpecError, RateMismatchError
from .frontend import AdcModel, SignalBuffer, adc_quantize, add_awgn
from .polyphase import AnalysisBank, SynthesisBank, matched_cascade_delay

GMR1_GRANULARITY_HZ = 31.25e3
GMR2_GRANULARITY_HZ = 50.0e3


@dataclass(frozen=True)
class ChannelPlan:
    """Fine-stage grid: user-channel granularity within one sub-band."""

    standard: str  # "gmr1" | "gmr2" | "custom"
    granularity_hz: float
    subband_rate_hz: float
    guardband_fraction: float = 0.1

    def __post_init__(self):
        if self.standard not in ("gmr1", "gmr2", "custom"):
            raise InvalidSpecError(f"unknown standard {self.standard!r}")
        if not 0.0 < self.guardband_fraction <= 0.1:
            raise InvalidSpecError(
                "per-channel guardband must be in (0, 0.1] of the channel bandwidth"
            )
        ratio = self.subband_rate_hz / self.granularity_hz
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 2:
            raise InvalidSpecError(
                f"granularity {self.granularity_hz} does not divide the sub-band rate "
                f"{self.subband_rate_hz}"
            )

    @property
    def channels_per_subband(self):
        return int(round(self.subband_rate_hz / self.granularity_hz))


def gmr_channel_plan(standard, subband_rate_hz, guardband_fraction=0.1):
    granularity = {"gmr1": GMR1_GRANULARITY_HZ, "gmr2": GMR2_GRANULARITY_HZ}[standard]
    return ChannelPlan(standard, granularity, subband_rate_hz, guardband_fraction)


@dataclass
class ChanneliserConfig:
    """Everything the pipeline needs: plan, prototypes and the fine grid."""

    plan: object  # FrequencyPlan
    coarse_prototype: object
    fine_prototype: object
    channel_plan: ChannelPlan
    occupied_subbands: tuple = None  # None = every plannable sub-band

    def __post_init__(self):
        n = self.plan.inputs.num_channels
        if self.occupied_subbands is None:
            self.occupied_subbands = self.plan.occupied_subbands
        self.occupied_subbands = tuple(sorted(set(self.occupied_subbands)))
        reserved = {0, n // 2}
        if reserved & set(self.occupied_subbands):
            raise ConfigError("channels 0 and N/2 are reserved empty")
        if any(not 0 <= s < n for s in self.occupied_subbands):
            raise ConfigError(f"occupied sub-band outside [0, {n})")
        if self.coarse_prototype.spec.num_branches != n:
            raise ConfigError("coarse prototype branch count != plan channel count")
        n_f = self.channel_plan.channels_per_subband
        if self.fine_prototype.spec.num_branches != n_f:
            raise ConfigError("fine prototype branch count != fine channel count")
        expected_rate = self.plan.inputs.f_s / n
        if abs(self.channel_plan.subband_rate_hz - expected_rate) > 1e-6:
            raise ConfigError(
                f"channel plan sub-band rate {self.channel_plan.subband_rate_hz} "
                f"!= f_s/N = {expected_rate}"
            )

    @property
    def num_coarse_channels(self):
        return self.plan.inputs.num_channels

    @property
    def subband_rate_hz(self):
        return self.plan.inputs.f_s / self.num_coarse_channels

    @property
    def total_fine_channels_occupied(self):
        return len(self.occupied_subbands) * self.channel_plan.channels_per_subband

    @property
    def total_fine_channels_nominal(self):
        # nominal count over all N_c one-sided sub-bands, occupied or not
        return (self.num_coarse_channels // 2) * self.channel_plan.channels_per_subband

    def expected_delay_samples(self):
        """Structural + filter delay of the full float pipeline, in input samples."""
        return matched_cascade_delay(self.coarse_prototype) + (
            self.num_coarse_channels * matched_cascade_delay(self.fine_prototype)
        )


@dataclass
class MetricsReport:
    aligned_delay: int
    mse: float  # mean squared error over the compared span
    mse_over_signal: float  # normalized by signal power over the same span
    per_channel_leakage_db: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_text(self):
        lines = [
            "end-to-end metrics",
            f"  aligned delay    : {self.aligned_delay} samples",
            f"  mse              : {self.mse:.6e}",
            f"  mse / signal     : {self.mse_over_signal:.6e} "
            f"({10.0 * math.log10(max(self.mse_over_signal, 1e-300)):.2f} dB)",
        ]
        for key, val in sorted(self.extras.items()):
            lines.append(f"  {key:17s}: {val}")
        if self.per_channel_leakage_db:
            lines.append("  per-channel power (dB rel. strongest):")
            for ch in sorted(self.per_channel_leakage_db):
                lines.append(f"    ch {ch:4d}: {self.per_channel_leakage_db[ch]:8.2f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# stages


def _coarse_frames(config, stacked):
    """Coarse analysis of the stacked real input into all N channels.

    Returns the (frames, N) channel array and the bank's warm-up in frames.
    """
    f_s = config.plan.inputs.f_s
    if abs(stacked.rate_hz - f_s) > 1e-6:
        raise RateMismatchError(f"stacked rate {stacked.rate_hz} != plan f_s {f_s}")
    if stacked.domain != "real":
        raise RateMismatchError("coarse stage expects the real ADC-domain signal")
    n = config.num_coarse_channels
    bank = AnalysisBank(config.coarse_prototype)
    usable = (len(stacked) // n) * n
    return bank.process_block(stacked.samples[:usable]), bank.warmup_frames


def _occupied_streams(config, frames, label):
    """The occupied columns of a coarse (frames, N) array as sub-band streams."""
    rate = config.subband_rate_hz
    return {
        sub: SignalBuffer(frames[:, sub], rate, "complex", label=f"{label}|coarse{sub}")
        for sub in config.occupied_subbands
    }


def coarse_analyze(config, stacked):
    """Split the stacked real input into the occupied sub-band streams."""
    frames, _ = _coarse_frames(config, stacked)
    return _occupied_streams(config, frames, stacked.label)


def coarse_synthesize(config, subbands):
    """Restack sub-band streams into the real wideband signal.

    The conjugate channels N-n are filled from the given streams so the
    synthesis output is real; channels 0 and N/2 stay empty.
    """
    n = config.num_coarse_channels
    lengths = {len(buf) for buf in subbands.values()}
    if len(lengths) > 1:
        raise ConfigError("sub-band streams must share one length")
    n_frames = lengths.pop() if lengths else 0
    frames = np.zeros((n_frames, n), dtype=np.complex128)
    for sub, buf in subbands.items():
        if abs(buf.rate_hz - config.subband_rate_hz) > 1e-6:
            raise RateMismatchError(f"sub-band {sub} rate {buf.rate_hz}")
        frames[:, sub] = buf.samples
        if 0 < sub < n and sub != n // 2:
            frames[:, n - sub] = np.conj(buf.samples)
    bank = SynthesisBank(config.coarse_prototype, hermitian=True)
    y = bank.process_block(frames)
    return SignalBuffer(np.real(y), config.plan.inputs.f_s, "real", label="restacked")


def fine_analyze(config, subband):
    """Split one sub-band into its N_f user-channel streams.

    Returns a (frames, N_f) array; column k is user channel k.
    """
    if abs(subband.rate_hz - config.subband_rate_hz) > 1e-6:
        raise RateMismatchError(
            f"sub-band rate {subband.rate_hz} != {config.subband_rate_hz}"
        )
    n_f = config.channel_plan.channels_per_subband
    bank = AnalysisBank(config.fine_prototype)
    usable = (len(subband) // n_f) * n_f
    return bank.process_block(subband.samples[:usable])


def fine_synthesize(config, channels):
    """Rebuild one sub-band stream from its (frames, N_f) channel array."""
    bank = SynthesisBank(config.fine_prototype)
    y = bank.process_block(np.asarray(channels, dtype=np.complex128))
    return SignalBuffer(y, config.subband_rate_hz, "complex", label="fine-restacked")


# ---------------------------------------------------------------------------
# metrics


def pipeline_warmup_samples(config):
    """Input samples until the cascade error reaches steady state.

    An analysis/synthesis cascade cancels its branch dispersion only
    once the whole product-filter span is inside the data, so the
    warm-up is twice the cascade delay (plus margin); both stages
    contribute.
    """
    n = config.num_coarse_channels
    coarse = matched_cascade_delay(config.coarse_prototype)
    fine = matched_cascade_delay(config.fine_prototype)
    return 2 * (coarse + n * fine) + 8 * n * config.channel_plan.channels_per_subband


def find_delay(reference, output, max_lag=None):
    """Integer lag of the cross-correlation peak (output vs reference).

    Searches lags 0..``max_lag`` (at most ``output.size - 1``).  One
    transform of length >= ``reference.size + max_lag`` holds every
    searched lag without wrap-around; it is a complex transform when
    either input is complex, a real one otherwise.
    """
    ref, out = np.asarray(reference), np.asarray(output)
    real = not (np.iscomplexobj(ref) or np.iscomplexobj(out))
    dtype, fwd, inv = (float, rfft, irfft) if real else (complex, fft, ifft)
    ref, out = ref.astype(dtype, copy=False), out.astype(dtype, copy=False)
    max_lag = out.size - 1 if max_lag is None else min(max_lag, out.size - 1)
    if max_lag < 0:
        raise InvalidSpecError("no lag to search: empty output or negative max_lag")
    nfft = next_fast_len(ref.size + max_lag, real=real)
    corr = inv(fwd(out, nfft) * np.conj(fwd(ref, nfft)), nfft)[: max_lag + 1]
    return int(np.argmax(np.abs(corr)))


def aligned_mse(reference, output, delay, trim=0):
    """MSE between output shifted back by ``delay`` and the reference.

    ``trim`` drops extra samples at both ends of the overlap (bank
    transients die inside the structural delay for zero-state starts,
    so a modest trim is only a guard).
    """
    ref = np.asarray(reference)
    out = np.asarray(output)
    span = min(ref.size, out.size - delay)
    lo, hi = trim, span - trim
    if hi - lo < 16:
        raise InvalidSpecError("not enough overlap to measure MSE")
    err = out[delay + lo : delay + hi] - ref[lo:hi]
    mse = float(np.mean(np.abs(err) ** 2))
    sig = float(np.mean(np.abs(ref[lo:hi]) ** 2))
    return mse, (mse / sig if sig > 0 else 0.0)


def _channel_power_table(frames, warmup_frames):
    """Per-coarse-channel power, dB relative to the strongest channel.

    Reads all N columns of the coarse (frames, N) array (not just the
    occupied set) so the reserved DC/Nyquist channels and the conjugate
    images are visible in reports.
    """
    skip = min(frames.shape[0] // 4, 16 * warmup_frames)
    body = frames[skip:] if frames.shape[0] > skip else frames
    power = np.mean(np.abs(body) ** 2, axis=0)
    peak = float(np.max(power)) if power.size else 1.0
    floor = peak * 1e-30 + 1e-300
    return {
        ch: 10.0 * math.log10(max(float(p), floor) / peak) for ch, p in enumerate(power)
    }


def end_to_end(config, stimulus, adc_bits=None, snr_db=None, seed=1234,
               capture_spectra=False):
    """Full pipeline run with channel processing disabled.

    stimulus -> [AWGN] -> [ADC] -> coarse analysis -> fine analysis ->
    fine synthesis -> coarse synthesis -> metrics against the clean
    stimulus.  Impairments are optional; the float path is the
    transparency benchmark.  A stimulus shorter than the expected delay
    plus ``pipeline_warmup_samples`` raises ``InvalidSpecError``: its
    aligned span could not reach steady state.
    """
    x = stimulus
    extras = {}
    if snr_db is not None and not math.isinf(snr_db):
        x = add_awgn(x, snr_db, seed)
        extras["snr_db"] = snr_db
    if adc_bits is not None:
        scale = 4.0 * math.sqrt(max(x.power, 1e-300))
        model = AdcModel(bits=adc_bits, full_scale=scale, rate_hz=x.rate_hz)
        x = adc_quantize(x, model)
        extras["adc_bits"] = adc_bits
        extras["adc_saturations"] = x.meta["saturation_count"]

    if len(x) == 0 or stimulus.power == 0.0 or not config.occupied_subbands:
        report = MetricsReport(0, 0.0, 0.0, extras=extras)
        report.extras["note"] = "empty stimulus or no occupied sub-bands"
        return report
    theory = config.expected_delay_samples()
    needed = theory + pipeline_warmup_samples(config)
    if len(x) < needed:
        raise InvalidSpecError(
            f"stimulus of {len(x)} samples is too short to measure: the pipeline "
            f"needs at least {needed} (expected delay {theory} plus warm-up)"
        )

    coarse, warmup_frames = _coarse_frames(config, x)
    subbands = _occupied_streams(config, coarse, x.label)

    processed = {}
    spectra = {}
    for sub in config.occupied_subbands:
        channels = fine_analyze(config, subbands[sub])
        rebuilt = fine_synthesize(config, channels)
        processed[sub] = rebuilt
        if capture_spectra:
            spectra[sub] = subbands[sub]
    restacked = coarse_synthesize(config, processed)
    delay = find_delay(stimulus.samples, restacked.samples,
                       max_lag=min(len(restacked) - 1, 2 * theory + 1024))
    span = min(len(stimulus), len(restacked) - delay)
    trim = min(pipeline_warmup_samples(config), max(0, (span - 4096) // 3))
    mse, rel = aligned_mse(stimulus.samples, restacked.samples, delay, trim=trim)

    leakage = _channel_power_table(coarse, warmup_frames)
    extras["expected_delay"] = theory
    extras["occupied_subbands"] = len(config.occupied_subbands)
    extras["fine_channels_occupied"] = config.total_fine_channels_occupied
    extras["fine_channels_nominal"] = config.total_fine_channels_nominal
    report = MetricsReport(
        aligned_delay=delay,
        mse=mse,
        mse_over_signal=rel,
        per_channel_leakage_db=leakage,
        extras=extras,
    )
    if capture_spectra:
        spectra["output"] = restacked
        report.extras["spectra"] = spectra
    return report


def awgn_sweep(configs, stimulus, snr_list, seed=1234):
    """One end_to_end run per SNR per candidate config.

    ``configs`` maps a candidate label (e.g. 'iir', 'fir') to its
    ChanneliserConfig.  Returns rows of (snr_db, {label: relative mse}).
    """
    rows = []
    for snr_db in snr_list:
        point = {}
        for label, config in configs.items():
            report = end_to_end(config, stimulus, snr_db=snr_db, seed=seed)
            point[label] = report.mse_over_signal
        rows.append((snr_db, point))
    return rows
