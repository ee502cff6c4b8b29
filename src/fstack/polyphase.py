"""Maximally decimated DFT-modulated analysis and synthesis banks.

Commutator orientation (worked 2-branch example): with branches
h0 = [1], h1 = [1] and input x0, x1, x2, ..., analysis frame k loads
branch n with x[k*N - n], i.e. frame 0 = (x0, 0), frame 1 = (x2, x1),
frame 2 = (x4, x3), ...; the frame vector is then inverse-transformed
(with the 1/N factor), so frame 1 of a 2-branch bank is
((x2 + x1)/2, (x2 - x1)/2).  Branch n therefore sees the input delayed
by n samples, matching the delay-chain definition of the analysis bank.

The synthesis bank runs the reverse: forward transform, branch filters,
up-sampling commutator that emits branch n at output slot k*N + N-1-n.
Its branch filters mirror the analysis family so that every
analysis-synthesis branch product approximates one *common integer*
frame delay (a fractional or branch-dependent product delay would make
the cascade time-varying instead of a delay): FIR branches pair by
index reversal with the tap count padded to a whole number of branches
(product delay L/N - 1 frames); the all-pass family pairs branch n with
member N-n and replaces the pure n_fos-sample delay of branch 0 by an
(n_fos - 1)-sample delay, making every product a 2*n_fos - 1 frame
delay.  Output gain is scaled so a matched cascade has unity passband
gain.

Operation counters follow the per-frame accounting model: branch work
counted as complex-by-real operations (2 mults per tap; each all-pass
first-order section 1 coefficient multiply and 2 additions, doubled for
complex data), and the transform (computed by numpy.fft) charged with
the analytic butterfly model.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .complexity import fir_candidate_cost, ifft_cost, iir_candidate_cost
from .errors import FramingError
from .filter_design import AllPassPrototype, FirPrototype, polyphase_decompose


@dataclass
class OperationCounters:
    """Accumulated real-operation counts; real-valued because the
    transform model uses log2(N) for any N."""

    real_mults: float = 0.0
    real_adds: float = 0.0
    frames: int = 0

    def reset(self):
        self.real_mults = 0.0
        self.real_adds = 0.0
        self.frames = 0

    def copy(self):
        return OperationCounters(self.real_mults, self.real_adds, self.frames)


@dataclass
class ChannelFrame:
    """One commutator revolution worth of channel samples."""

    values: np.ndarray
    frame_index: int
    warm_up: bool = False


class _FirBranch:
    def __init__(self, taps):
        taps = np.asarray(taps, dtype=float)
        self.taps = taps if taps.size else np.zeros(1)
        self._zi = np.zeros(max(self.taps.size - 1, 0), dtype=np.complex128)

    def run(self, x):
        if self.taps.size == 1:
            return self.taps[0] * x
        y, self._zi = lfilter(self.taps, [1.0], x, zi=self._zi)
        return y

    def reset(self):
        self._zi = np.zeros_like(self._zi)


class _DelayBranch:
    def __init__(self, delay, scale):
        self.delay = delay
        self.scale = scale
        self._zi = np.zeros(delay, dtype=np.complex128)

    def run(self, x):
        if self.delay == 0:
            return self.scale * x
        buf = np.concatenate([self._zi, np.asarray(x, dtype=np.complex128)])
        self._zi = buf[buf.size - self.delay :].copy()
        return self.scale * buf[: x.size]

    def reset(self):
        self._zi = np.zeros_like(self._zi)


class _AllPassChain:
    """Cascade of first-order all-pass sections with per-section state."""

    def __init__(self, alphas, scale):
        self.alphas = np.asarray(alphas, dtype=np.complex128)
        self.scale = scale
        self._zi = [np.zeros(1, dtype=np.complex128) for _ in self.alphas]

    def run(self, x):
        y = self.scale * np.asarray(x, dtype=np.complex128)
        for idx, a in enumerate(self.alphas):
            y, self._zi[idx] = lfilter([a, 1.0], [1.0, a], y, zi=self._zi[idx])
        return y

    def reset(self):
        self._zi = [np.zeros(1, dtype=np.complex128) for _ in self.alphas]


def _padded_branches(prototype):
    """Polyphase branches zero-padded to equal length (a whole revolution)."""
    n = prototype.spec.num_branches
    branches = polyphase_decompose(prototype, n)
    length = max(len(b) for b in branches)
    return [np.concatenate([b, np.zeros(length - len(b))]) for b in branches]


def _branch_family(prototype):
    """Analysis branch filters 0..N-1 of the prototype, gains included."""
    if isinstance(prototype, FirPrototype):
        return [_FirBranch(taps) for taps in _padded_branches(prototype)]
    if isinstance(prototype, AllPassPrototype):
        n = prototype.num_branches
        family = [_DelayBranch(prototype.branch0_delay, 1.0 / n)]
        family.extend(
            _AllPassChain(prototype.alphas[i], 1.0 / n) for i in range(n - 1)
        )
        return family
    raise TypeError(f"unsupported prototype {type(prototype).__name__}")


def _synthesis_family(prototype):
    """Synthesis branch filters 0..N-1 (see module docstring for the pairing)."""
    if isinstance(prototype, FirPrototype):
        return [_FirBranch(taps) for taps in reversed(_padded_branches(prototype))]
    if isinstance(prototype, AllPassPrototype):
        n = prototype.num_branches
        family = [_DelayBranch(prototype.branch0_delay - 1, 1.0 / n)]
        family.extend(
            _AllPassChain(prototype.alphas[n - 1 - i], 1.0 / n) for i in range(1, n)
        )
        return family
    raise TypeError(f"unsupported prototype {type(prototype).__name__}")


def _frame_cost(prototype, num_branches):
    """(real adds, real mults) per frame under the accounting model."""
    n = num_branches
    if isinstance(prototype, FirPrototype):
        length = prototype.length
        if length >= n:
            return fir_candidate_cost(n, length)
        # degenerate short prototype: count actual clamped branch work
        lengths = [len(b) for b in polyphase_decompose(prototype, n)]
        a_ifft, p_ifft = ifft_cost(n)
        adds = sum(2.0 * max(l - 1, 0) for l in lengths) + a_ifft
        mults = sum(2.0 * l for l in lengths) + p_ifft
        return adds, mults
    return iir_candidate_cost(n, prototype.num_branches * prototype.sections_per_branch)


def _warmup_frames(prototype, num_branches):
    if isinstance(prototype, FirPrototype):
        return math.ceil(prototype.length / num_branches)
    return 2 * prototype.sections_per_branch


class AnalysisBank:
    """Streaming N-channel analysis bank (one owner, stateful)."""

    def __init__(self, prototype):
        self.prototype = prototype
        self.num_branches = prototype.spec.num_branches
        self._branches = _branch_family(prototype)
        self._hist = np.zeros(self.num_branches - 1, dtype=np.complex128)
        self._frame_cost = _frame_cost(prototype, self.num_branches)
        self.counters = OperationCounters()
        self.frames_processed = 0
        self.samples_consumed = 0

    @property
    def warmup_frames(self):
        return _warmup_frames(self.prototype, self.num_branches)

    def reset(self):
        for br in self._branches:
            br.reset()
        self._hist = np.zeros_like(self._hist)
        self.counters.reset()
        self.frames_processed = 0
        self.samples_consumed = 0

    def process_block(self, samples):
        """Analyse a whole number of commutator revolutions.

        Returns a (frames, N) array; row k is the channel vector of
        frame ``frames_processed + k``.
        """
        x = np.asarray(samples)
        n = self.num_branches
        if x.ndim != 1 or x.size % n:
            raise FramingError(
                f"input must be a 1-D multiple of N={n} samples, got shape {x.shape}"
            )
        n_frames = x.size // n
        if n_frames == 0:
            return np.zeros((0, n), dtype=np.complex128)
        ext = np.concatenate([self._hist, x.astype(np.complex128)])
        branch_in = np.empty((n_frames, n), dtype=np.complex128)
        for br in range(n):
            stream = ext[n - 1 - br :: n][:n_frames]
            branch_in[:, br] = self._branches[br].run(stream)
        if n > 1:
            self._hist = ext[ext.size - (n - 1) :].copy()
        frames = np.fft.ifft(branch_in, axis=1)
        adds, mults = self._frame_cost
        self.counters.real_adds += n_frames * adds
        self.counters.real_mults += n_frames * mults
        self.counters.frames += n_frames
        self.frames_processed += n_frames
        self.samples_consumed += x.size
        return frames

    def process_frame(self, samples):
        """Analyse exactly N new input samples into one ChannelFrame."""
        x = np.asarray(samples)
        if x.ndim != 1 or x.size != self.num_branches:
            raise FramingError(
                f"process_frame needs exactly N={self.num_branches} samples"
            )
        index = self.frames_processed
        values = self.process_block(x)[0]
        return ChannelFrame(values, index, warm_up=index < self.warmup_frames)


class SynthesisBank:
    """Streaming N-channel synthesis bank (mirror of AnalysisBank)."""

    def __init__(self, prototype, gain=None):
        self.prototype = prototype
        self.num_branches = prototype.spec.num_branches
        self._branches = _synthesis_family(prototype)
        n = self.num_branches
        dc = prototype.dc_gain
        self.gain = gain if gain is not None else n * n / (dc * dc)
        self._frame_cost = _frame_cost(prototype, n)
        self.counters = OperationCounters()
        self.frames_processed = 0

    @property
    def warmup_frames(self):
        return _warmup_frames(self.prototype, self.num_branches)

    def reset(self):
        for br in self._branches:
            br.reset()
        self.counters.reset()
        self.frames_processed = 0

    def process_block(self, frames):
        """Synthesise a (frames, N) channel array back to F*N samples."""
        frames = np.asarray(frames, dtype=np.complex128)
        n = self.num_branches
        if frames.ndim != 2 or frames.shape[1] != n:
            raise FramingError(f"expected (frames, {n}) input, got {frames.shape}")
        n_frames = frames.shape[0]
        if n_frames == 0:
            return np.zeros(0, dtype=np.complex128)
        branch_in = np.fft.fft(frames, axis=1)
        out = np.empty((n_frames, n), dtype=np.complex128)
        for br in range(n):
            out[:, n - 1 - br] = self._branches[br].run(branch_in[:, br])
        adds, mults = self._frame_cost
        self.counters.real_adds += n_frames * adds
        self.counters.real_mults += n_frames * mults
        self.counters.frames += n_frames
        self.frames_processed += n_frames
        return self.gain * out.reshape(-1)

    def process_frame(self, frame):
        """Synthesise one channel frame into N output samples."""
        values = frame.values if isinstance(frame, ChannelFrame) else np.asarray(frame)
        if values.size != self.num_branches:
            raise FramingError(f"frame must hold N={self.num_branches} values")
        return self.process_block(values[None, :])


def matched_cascade_delay(prototype):
    """Exact delay (input samples) of an analysis->synthesis cascade."""
    n = prototype.spec.num_branches
    if isinstance(prototype, FirPrototype):
        return n * math.ceil(prototype.length / n) - 1
    return 2 * prototype.sections_per_branch * n - 1


# ---------------------------------------------------------------------------
# validation oracle


def prototype_impulse_response(prototype, min_length=None, tol=1e-16):
    """Full-rate impulse response of the prototype (recursive ones truncated).

    For the all-pass kind the branch recursions are run until the tail
    falls below ``tol`` relative to the peak, so convolving with the
    result matches the streaming bank to well below the test tolerances.
    """
    if isinstance(prototype, FirPrototype):
        return prototype.coefficients.copy()
    n = prototype.num_branches
    k = max(64, prototype.sections_per_branch * 8)
    if min_length is not None:
        k = max(k, math.ceil(min_length / n))
    while True:
        imp = np.zeros(k, dtype=np.complex128)
        imp[0] = 1.0
        rows = []
        for branch in _branch_family(prototype):
            rows.append(branch.run(imp.copy()))
        rows = np.asarray(rows)
        peak = np.max(np.abs(rows))
        tail = np.max(np.abs(rows[:, -max(2, k // 20) :]))
        if tail <= tol * peak or k >= (1 << 22) // n:
            break
        k *= 2
    h = np.zeros(k * n, dtype=np.complex128)
    for branch_idx in range(n):
        h[branch_idx::n] = rows[branch_idx]
    return np.real_if_close(h, tol=1e8)


def direct_channelize_oracle(prototype, num_branches, x, channel):
    """Reference channelizer output: modulate, filter, decimate by N.

    Deliberately the slow textbook path (O(L*N) per output sample): the
    prototype is modulated up to the channel centre, convolved with the
    input at the full rate, and decimated, with scaling matched to the
    analysis bank.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = num_branches
    h = prototype_impulse_response(prototype, min_length=x.size)
    h_mod = h * np.exp(2j * np.pi * channel * np.arange(h.size) / n)
    full = np.convolve(x, h_mod)
    n_frames = x.size // n
    return full[: n_frames * n : n] / n
