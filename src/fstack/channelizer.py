"""Two-stage coarse/fine channelizer pipeline and its end-to-end metrics.

The coarse stage recovers the stacked sub-bands from the real wideband
input (N channels, channel 0 and N/2 reserved empty); the fine stage
splits each recovered sub-band into user channels on the configured
granularity grid.  Synthesis reverses both stages.  With channel
processing disabled the whole pipeline approximates a pure delay, which
is what the metrics measure.  ``end_to_end`` composes three stages:
``impair`` (AWGN and the ADC), ``channelize`` (the coarse and fine
banks and the restack) and ``measure`` (the alignment and the MSE,
normalized by signal power); ``measure`` states the alignment rule.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from .errors import ConfigError, InvalidSpecError, RateMismatchError
from .frontend import AdcModel, SignalBuffer, adc_quantize, add_awgn, mean_power
from .polyphase import AnalysisBank, SynthesisBank, matched_cascade_delay, run_blocks

DELAY_SEARCH_SPAN = 1 << 16  # reference samples correlated by measure


@dataclass(frozen=True)
class ChannelPlan:
    """Fine-stage grid: user-channel granularity within one sub-band."""

    granularity_hz: float
    subband_rate_hz: float
    guardband_fraction: float = 0.1

    def __post_init__(self):
        for name in ("granularity_hz", "subband_rate_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidSpecError(f"{name} must be finite and positive, got {value}")
        if not 0.0 < self.guardband_fraction <= 0.1:
            raise InvalidSpecError(
                "per-channel guardband must be in (0, 0.1] of the channel bandwidth"
            )
        ratio = self.subband_rate_hz / self.granularity_hz
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 2:
            raise InvalidSpecError(
                f"granularity {self.granularity_hz} does not divide the sub-band rate "
                f"{self.subband_rate_hz}"
            )

    @property
    def channels_per_subband(self):
        return int(round(self.subband_rate_hz / self.granularity_hz))


@dataclass
class ChanneliserConfig:
    """Everything the pipeline needs: plan, prototypes and the fine grid."""

    plan: object  # FrequencyPlan
    coarse_prototype: object
    fine_prototype: object
    channel_plan: ChannelPlan
    occupied_subbands: tuple

    def __post_init__(self):
        n = self.plan.inputs.num_channels
        if not self.occupied_subbands:
            raise ConfigError("no occupied sub-band: a run of none measures nothing")
        non_integer = [s for s in self.occupied_subbands if not isinstance(s, numbers.Integral)]
        if non_integer:
            raise ConfigError(f"occupied sub-bands {non_integer} are not integer indices")
        self.occupied_subbands = tuple(sorted(set(self.occupied_subbands)))
        outside = [s for s in self.occupied_subbands if s not in self.plan.occupied_subbands]
        if outside:
            raise ConfigError(f"occupied sub-bands {outside} outside the plan's 1..{n // 2 - 1}")
        if self.coarse_prototype.spec.num_branches != n:
            raise ConfigError("coarse prototype branch count != plan channel count")
        n_f = self.channel_plan.channels_per_subband
        if self.fine_prototype.spec.num_branches != n_f:
            raise ConfigError("fine prototype branch count != fine channel count")
        expected_rate = self.subband_rate_hz
        if abs(self.channel_plan.subband_rate_hz - expected_rate) > 1e-6:
            raise ConfigError(
                f"channel plan sub-band rate {self.channel_plan.subband_rate_hz} "
                f"!= f_s/N = {expected_rate}"
            )

    @property
    def num_coarse_channels(self):
        """N, the coarse bank's channel count (``RunConfig.num_coarse_channels`` is N/2)."""
        return self.plan.inputs.num_channels

    @property
    def subband_rate_hz(self):
        return self.plan.inputs.channel_spacing

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


def coarse_analyze(config, stacked):
    """Coarse analysis of the stacked real input.

    Returns the coarse bank's (frames, N//2 + 1) array of channels
    0..N/2: sub-band s is column s, and the real input's channel N-s,
    the conjugate of channel s, is left out.  The all-pass candidate's
    frames are channel-major, so each column is one contiguous row (see
    ``AnalysisBank.process_block``).
    """
    f_s = config.plan.inputs.f_s
    if abs(stacked.rate_hz - f_s) > 1e-6:
        raise RateMismatchError(f"stacked rate {stacked.rate_hz} != plan f_s {f_s}")
    if stacked.domain != "real":
        raise RateMismatchError("coarse stage expects the real ADC-domain signal")
    n = config.num_coarse_channels
    usable = (len(stacked) // n) * n
    return AnalysisBank(config.coarse_prototype).process_block(stacked.samples[:usable])


def coarse_synthesize(config, frames):
    """The real wideband signal of (frames, N//2 + 1) coarse channel frames.

    Column s is sub-band s, as ``coarse_analyze`` returns it; a channel
    left at zero stays empty.  The synthesis bank reads the width as
    channels 0..N/2 of conjugate-symmetric frames, so the output is real.
    Channel-major frames give the all-pass synthesis one contiguous row
    per branch, which it filters in place.  The frames are handed on to
    the bank with no name kept here, so when the caller keeps none either
    (``channelize``), they are freed once the bank's channel transform
    has read them; a caller that keeps its frames gets the same result.
    """
    frames = [frames]  # the list's reference is popped into the call
    y = SynthesisBank(config.coarse_prototype).process_block(frames.pop())
    return SignalBuffer(np.real(y), config.plan.inputs.f_s)


def fine_analyze(config, subband):
    """Split one sub-band into its N_f user-channel streams.

    Returns a (frames, N_f) array; column k is user channel k.  A real
    stream is analysed as complex, so it too gets all N_f channels.
    """
    if abs(subband.rate_hz - config.subband_rate_hz) > 1e-6:
        raise RateMismatchError(
            f"sub-band rate {subband.rate_hz} != {config.subband_rate_hz}"
        )
    n_f = config.channel_plan.channels_per_subband
    bank = AnalysisBank(config.fine_prototype)
    usable = (len(subband) // n_f) * n_f
    return bank.process_block(subband.samples[:usable].astype(np.complex128, copy=False))


def fine_synthesize(config, channels):
    """Rebuild one sub-band stream from its (frames, N_f) channel array."""
    channels = [np.asarray(channels, dtype=np.complex128)]  # popped into the call
    y = SynthesisBank(config.fine_prototype).process_block(channels.pop())
    return SignalBuffer(y, config.subband_rate_hz)


# ---------------------------------------------------------------------------
# metrics


def pipeline_warmup_samples(config):
    """Input samples until the cascade error reaches steady state.

    An analysis/synthesis cascade cancels its branch dispersion only
    once the whole product-filter span is inside the data, so the
    warm-up is twice the cascade delay of both stages,
    ``expected_delay_samples``, plus a margin of 8 fine frames.
    """
    n = config.num_coarse_channels
    return 2 * config.expected_delay_samples() + 8 * n * config.channel_plan.channels_per_subband


def find_delay(reference, output, max_lag=None):
    """Integer lag of the cross-correlation peak (output vs reference).

    Searches lags 0..``max_lag`` (at most ``output.size - 1``).  One
    transform of length >= ``reference.size + max_lag`` holds every
    searched lag without wrap-around; it is a complex transform when
    either input is complex, a real one otherwise.  The two forward
    transforms are two blocks of one ``run_blocks`` run, so they run at
    once on two usable CPUs.  Each spectrum is freed once it is used:
    the reference's is conjugated in place and multiplied into the
    output's, and the output's once the inverse transform has read it;
    a real correlation takes its magnitude in place.
    """
    ref, out = np.asarray(reference), np.asarray(output)
    real = not (np.iscomplexobj(ref) or np.iscomplexobj(out))
    dtype, fwd, inv = (float, rfft, irfft) if real else (complex, fft, ifft)
    ref, out = ref.astype(dtype, copy=False), out.astype(dtype, copy=False)
    max_lag = out.size - 1 if max_lag is None else min(max_lag, out.size - 1)
    if max_lag < 0:
        raise InvalidSpecError("no lag to search: empty output or negative max_lag")
    nfft = next_fast_len(ref.size + max_lag, real=real)
    spectra = [out, ref]

    def forward(i):
        spectra[i] = fwd(spectra[i], nfft)

    run_blocks(forward, range(2))
    spec_out = spectra[0]
    spec_out *= np.conjugate(spectra[1], out=spectra[1])
    del spectra[:]
    corr = inv(spec_out, nfft)[: max_lag + 1]
    del spec_out
    return int(np.argmax(np.abs(corr, out=corr if real else None)))


def aligned_mse(reference, output, delay, trim=0):
    """MSE between output shifted back by ``delay`` and the reference.

    ``trim`` drops extra samples at both ends of the overlap (bank
    transients die inside the structural delay for zero-state starts,
    so a modest trim is only a guard).  A reference silent over the
    compared span has no relative MSE and raises ``InvalidSpecError``;
    so does one whose mean power there is subnormal, since a ratio to it
    has lost its digits (or reads 0).
    """
    ref = np.asarray(reference)
    out = np.asarray(output)
    span = min(ref.size, out.size - delay)
    lo, hi = trim, span - trim
    if hi - lo < 16:
        raise InvalidSpecError("not enough overlap to measure MSE")
    mse = mean_power(out[delay + lo : delay + hi] - ref[lo:hi])
    sig = mean_power(ref[lo:hi])
    if sig < np.finfo(float).tiny:
        raise InvalidSpecError(
            f"nothing to measure: the reference is silent over the compared "
            f"span {lo}..{hi} (mean power {sig:.3g})"
        )
    return mse, mse / sig


def _channel_power_table(config, frames):
    """Per-coarse-channel power, dB relative to the strongest channel.

    Reports all N channels (not just the occupied set) so the reserved
    DC/Nyquist channels and the conjugate images are visible in reports.
    It reads every column of the coarse (frames, N//2 + 1) array of
    channels 0..N/2; channel N-c, the conjugate of channel c, has the
    same power.  It skips 16 times the coarse cascade delay in whole
    frames, at most a quarter of the frames.  Power in no channel (an
    input whose squares underflow, say) raises ``InvalidSpecError``.
    """
    n = config.num_coarse_channels
    warmup_frames = (matched_cascade_delay(config.coarse_prototype) + 1) // n
    skip = min(frames.shape[0] // 4, 16 * warmup_frames)
    power = np.mean(np.abs(frames[skip:]) ** 2, axis=0)
    power = np.concatenate([power, power[1 : n - power.size + 1][::-1]])
    peak = float(np.max(power))
    if peak == 0.0:
        raise InvalidSpecError("nothing to measure: no coarse channel carries power")
    floor = peak * 1e-30 + 1e-300
    return {
        ch: 10.0 * math.log10(max(float(p), floor) / peak) for ch, p in enumerate(power)
    }


def impair(stimulus, adc_bits, snr_db, seed):
    """The signal the ADC delivers from ``stimulus``, and its extras.

    AWGN at ``snr_db`` (None or +inf adds none; -inf and NaN raise
    ``InvalidSpecError``), then, with ``adc_bits``, a quantizer at a full
    scale of 4x the noisy RMS.  The extras hold ``snr_db``, ``adc_bits``
    and ``adc_saturations`` for the impairments applied.
    """
    x, extras = stimulus, {}
    if snr_db is not None and snr_db != math.inf:
        x = add_awgn(x, snr_db, seed)
        extras["snr_db"] = snr_db
    if adc_bits is not None:
        scale = 4.0 * math.sqrt(max(x.power, 1e-300))
        x, saturations = adc_quantize(x, AdcModel(bits=adc_bits, full_scale=scale))
        extras["adc_bits"] = adc_bits
        extras["adc_saturations"] = saturations
    return x, extras


def channelize(config, x):
    """Coarse analysis, fine cascades and coarse synthesis of the real wideband ``x``.

    Returns the restacked real signal and the coarse power table, which
    reads the ``coarse_analyze`` frames.  Each occupied sub-band's fine
    analysis and synthesis is one block of ``run_blocks``: the sub-bands
    run on every usable CPU, each cascade's transforms on one worker
    (``usable_cpus``), and the output does not depend on the thread that
    runs a block.  The restack is the analysis array itself: once the
    power table has read it, cascade s reads column s and writes its
    output (whole fine frames of the coarse frames) back into the first
    ``rows`` rows of that column, the other columns are zeroed, and
    ``coarse_synthesize`` is handed those rows.  No name here keeps them,
    so the synthesis frees them once its channel transform has read them
    (CPython 3.11 and later move a call's arguments into the callee; on
    3.10 the caller's stack keeps them until the call returns).
    """
    n_f = config.channel_plan.channels_per_subband
    rate = config.subband_rate_hz
    coarse = coarse_analyze(config, x)
    leakage = _channel_power_table(config, coarse)
    rows = (coarse.shape[0] // n_f) * n_f

    def cascade(sub):
        subband = SignalBuffer(coarse[:, sub], rate)
        coarse[:rows, sub] = fine_synthesize(config, fine_analyze(config, subband)).samples

    run_blocks(cascade, config.occupied_subbands)
    idle = [c for c in range(coarse.shape[1]) if c not in config.occupied_subbands]
    coarse[:rows, idle] = 0.0
    restack = [coarse[:rows]]
    del coarse  # the restack's one reference is the list's, popped into the call
    return coarse_synthesize(config, restack.pop()), leakage


def measure(reference, output, expected_delay, warmup):
    """Aligned delay, MSE and relative MSE of ``output`` against ``reference``.

    The delay is the cross-correlation peak over lags
    0..2·``expected_delay`` + 1024 (searched for, not assumed) of the
    ``DELAY_SEARCH_SPAN`` reference samples from ``min(expected_delay,
    len - span)`` on, so the matching output begins about twice the
    expected delay in, clear of the banks' start-up; the peak margin is
    set by the reference's own autocorrelation, not by the record
    length.  A reference shorter than the span, or a segment with under
    a quarter of the reference's mean power (a record that starts or
    ends quiet), is correlated whole instead.  The MSE (``aligned_mse``)
    trims ``warmup`` samples, at most a third of the overlap beyond
    4 096, from both ends of the overlap; a reference silent over what
    is left raises ``InvalidSpecError``.
    """
    ref, out = np.asarray(reference), np.asarray(output)
    lo = min(expected_delay, ref.size - DELAY_SEARCH_SPAN)
    segment = ref[lo : lo + DELAY_SEARCH_SPAN]
    if lo < 0 or mean_power(segment) < mean_power(ref) / 4.0:
        segment, lo = ref, 0  # correlated whole
    delay = find_delay(segment, out[lo:], max_lag=min(out.size - 1, 2 * expected_delay + 1024))
    span = min(ref.size, out.size - delay)
    trim = min(warmup, max(0, (span - 4096) // 3))
    mse, rel = aligned_mse(ref, out, delay, trim=trim)
    return delay, mse, rel


def end_to_end(config, stimulus, adc_bits=None, snr_db=None, seed=1234,
               capture_spectra=False):
    """Full pipeline run with channel processing disabled.

    stimulus -> ``impair`` ([AWGN] -> [ADC]) -> ``channelize`` (coarse
    analysis -> fine analysis -> fine synthesis -> coarse synthesis) ->
    ``measure`` against the clean stimulus.  Impairments are optional;
    the float path is the transparency benchmark.  With
    ``capture_spectra`` the extras' ``"spectra"`` hold the occupied
    sub-band streams, column views of a second ``coarse_analyze`` of the
    ADC's signal, and the restacked ``"output"``.

    A stimulus shorter than the expected delay plus ``pipeline_warmup_samples``
    raises ``InvalidSpecError``: its aligned span could not reach steady
    state.  So does a run with nothing to measure: an empty or silent
    stimulus, one whose squares underflow, or one silent over the whole
    compared span.  So does an SNR of -inf or NaN; +inf adds no noise.
    """
    # not ``stimulus.power``: the one full-length power pass is measure's
    if not stimulus.samples.any():
        raise InvalidSpecError("nothing to measure: the stimulus is empty or silent")
    x, extras = impair(stimulus, adc_bits, snr_db, seed)
    theory, warmup = config.expected_delay_samples(), pipeline_warmup_samples(config)
    if len(x) < theory + warmup:
        raise InvalidSpecError(
            f"stimulus of {len(x)} samples is too short to measure: the pipeline "
            f"needs at least {theory + warmup} (expected delay {theory} plus warm-up)"
        )
    restacked, leakage = channelize(config, x)
    delay, mse, rel = measure(stimulus.samples, restacked.samples, theory, warmup)
    extras["expected_delay"] = theory
    extras["occupied_subbands"] = len(config.occupied_subbands)
    extras["fine_channels_occupied"] = config.total_fine_channels_occupied
    extras["fine_channels_nominal"] = config.total_fine_channels_nominal
    if capture_spectra:
        coarse, rate = coarse_analyze(config, x), config.subband_rate_hz
        streams = {sub: SignalBuffer(coarse[:, sub], rate) for sub in config.occupied_subbands}
        extras["spectra"] = {**streams, "output": restacked}
    return MetricsReport(delay, mse, rel, per_channel_leakage_db=leakage, extras=extras)


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
