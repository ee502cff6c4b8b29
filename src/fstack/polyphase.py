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

Realisation: each all-pass branch is one chain of second-order sections
run by a single ``scipy.signal.sosfilt`` call that carries its state;
every conjugate pair of first-order sections becomes one real biquad,
and the pure delay of branch 0 is written as exact delay sections, so
real input stays real until the transform, and complex input to real
sections runs as a real (real part, imaginary part) batch.  The FIR
family is one (K, N) tap matrix with K-1 frames of history, and all N
branches are filtered at once by an overlap-save convolution along the
frame axis, in column blocks shared by the calling thread and helper
threads, one thread per usable CPU; a block's arithmetic does not
depend on the thread that runs it, so neither does the output.  The
spectrum of the tap matrix is computed once per prototype, data kind
(real or complex) and transform length and cached on the prototype, so
every analysis and synthesis bank built from it shares it; the
synthesis family runs its branches in output-slot order, where its taps
are the analysis taps.

Operation counters do not count what the realisation executes; they
follow the per-frame accounting model: branch work counted as
complex-by-real operations (2 mults per tap; each all-pass first-order
section 1 coefficient multiply and 2 additions, doubled for complex
data), and the transform (computed by numpy.fft) charged with the
analytic butterfly model.
"""

import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft
from scipy.signal import lfilter, sosfilt

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


# Column block of the FIR family's frequency-domain convolution: bounds
# each block's scratch memory at full-scale bank sizes (N = 1280 and up)
# and is the unit of work of the bank pool.
_FIR_COLUMN_BLOCK = 128


def usable_cpus():
    """CPUs this process may run on: the size of the bank pool."""
    return len(os.sched_getaffinity(0))


_POOL_LOCK = threading.Lock()
_POOL = None  # (pid, cpus, executor): the bank pool, made by the first multi-block run


def _bank_pool():
    """(executor, cpus): this process's helper threads for FIR column blocks.

    One helper per usable CPU but the caller's, made on first use and
    kept.  The pool is made again when the CPU count changes, and in a
    child that a caller forks, whose copy of the parent's pool has no
    threads: a bank run there never submits to it.  None on one CPU.
    """
    global _POOL
    cpus = usable_cpus()
    if cpus < 2:
        return None
    with _POOL_LOCK:
        if _POOL is None or _POOL[:2] != (os.getpid(), cpus):
            helpers = ThreadPoolExecutor(cpus - 1, thread_name_prefix="fstack-fir")
            _POOL = (os.getpid(), cpus, helpers)
        return _POOL[2], cpus


def _run_blocks(block, blocks):
    """``block`` over ``blocks`` on the calling thread and the bank pool's helpers.

    The caller takes blocks from the shared queue as well, so it never
    sleeps waiting for a helper to start: on a host that is slow to
    schedule the helpers it runs most blocks itself, and a helper that
    has not started when the queue runs dry is cancelled.  A family of
    one block runs inline.
    """
    pool = _bank_pool() if len(blocks) > 1 else None
    todo = queue.SimpleQueue()
    for cols in blocks:
        todo.put(cols)

    def drain():
        while True:
            try:
                cols = todo.get_nowait()
            except queue.Empty:
                return
            block(cols)

    helpers = []
    if pool is not None:
        executor, cpus = pool
        helpers = [executor.submit(drain) for _ in range(min(cpus, len(blocks)) - 1)]
    drain()
    for helper in helpers:
        if not helper.cancel():
            helper.result()  # waits for the helper's last block; re-raises its exception


class _FirFamily:
    """All N FIR branches: a (K, N) tap matrix and K-1 frames of history.

    ``run`` convolves column n of its (frames, N) input with tap column
    n along the frame axis by overlap-save: each column block of the
    history rows followed by the new frames is transformed at a length of
    at least frames + K - 1, multiplied by the tap spectrum (from the
    prototype's cache, see ``_tap_spectrum``) and transformed back.  The
    circular wrap-around lands only on the first K-1 outputs, which
    belong to the history rows and are dropped.  Each block has its own
    buffer and writes its own output columns, so the blocks can run on
    several threads (``_run_blocks``): pocketfft and numpy release the GIL.
    """

    def __init__(self, prototype):
        self.prototype = prototype
        n = prototype.spec.num_branches
        self.shape = (max(math.ceil(prototype.length / n), 1), n)
        self.reset()

    def reset(self):
        self._hist = np.zeros((self.shape[0] - 1, self.shape[1]))

    def run(self, u):
        hist = self._hist
        delay, frames = hist.shape[0], u.shape[0]
        dtype = np.result_type(hist, u)
        real = dtype.kind == "f"
        nfft = next_fast_len(frames + delay, real)
        taps = _tap_spectrum(self.prototype, nfft, real)
        fwd, inv = (rfft, irfft) if real else (fft, ifft)
        y = np.empty(u.shape, dtype=dtype)

        def block(cols):
            ext = np.empty((nfft, cols.stop - cols.start), dtype=dtype)
            ext[:delay] = hist[:, cols]
            ext[delay : delay + frames] = u[:, cols]
            ext[delay + frames :] = 0.0
            spec = fwd(ext, axis=0, overwrite_x=True)
            spec *= taps[:, cols]
            y[:, cols] = inv(spec, nfft, axis=0, overwrite_x=True)[delay : delay + frames]

        n = u.shape[1]
        _run_blocks(block, [slice(c, min(c + _FIR_COLUMN_BLOCK, n))
                            for c in range(0, n, _FIR_COLUMN_BLOCK)])
        self._hist = np.concatenate([hist[frames:], u[max(frames - delay, 0) :]], dtype=dtype)
        return y


def _tap_spectrum(prototype, nfft, real):
    """Spectrum of the (K, N) tap matrix along its frame axis, length ``nfft``.

    The ``rfft`` half for real data, the whole ``fft`` for complex data
    (so a complex block multiplies it with no conjugate mirror).  Kept on
    the prototype, one entry per data kind (a real analysis and a complex
    synthesis of one stream pick different transform lengths), and shared
    by every bank built from it; an entry is rebuilt when its ``nfft``
    changes or the prototype holds another coefficient array (the array
    itself is read-only).
    """
    cached = prototype._tap_spectrum.get(real)
    if cached is None or cached[0] is not prototype.coefficients or cached[1] != nfft:
        spectrum = (rfft if real else fft)(_fir_taps(prototype), nfft, axis=0)
        cached = (prototype.coefficients, nfft, spectrum)
        prototype._tap_spectrum[real] = cached
    return cached[2]


class _AllPassFamily:
    """N branches, each one chain of second-order sections with its state."""

    def __init__(self, sections, scale):
        self.sections = sections
        self.scale = scale
        self.reset()

    def reset(self):
        self._zi = [np.zeros((sos.shape[0], 2)) for sos in self.sections]

    def run(self, u):
        # each branch writes one contiguous row; the caller gets the transpose
        y = np.empty(u.shape[::-1], dtype=np.result_type(u, *self.sections, *self._zi))
        for br, sos in enumerate(self.sections):
            x, zi = u[:, br], self._zi[br]
            if y.dtype.kind == "c" and sos.dtype.kind == "f":
                # real sections on complex data: the real and imaginary
                # parts run as one real two-row batch
                parts, zi = sosfilt(
                    sos, np.stack([x.real, x.imag]), zi=np.stack([zi.real, zi.imag], axis=1)
                )
                y[br].real, y[br].imag = parts
                self._zi[br] = zi[:, 0] + 1j * zi[:, 1]
            else:
                y[br], self._zi[br] = sosfilt(sos, x, zi=zi)
        y *= self.scale
        return y.T


def _allpass_sos(alphas):
    """Sections of a chain of first-order all-pass sections (a + z^-1)/(1 + a z^-1).

    Each exact conjugate pair multiplies out to the real biquad
    [|a|^2, 2 Re a, 1, 1, 2 Re a, |a|^2]; any other section keeps its
    first-order row, so the rows are complex only if some complex
    section has no conjugate.
    """
    rows, rest = [], list(alphas)
    while rest:
        a = rest.pop()
        if a.imag and np.conj(a) in rest:
            rest.remove(np.conj(a))
            mag2, re2 = a.real**2 + a.imag**2, 2.0 * a.real
            rows.append([mag2, re2, 1.0, 1.0, re2, mag2])
        else:
            rows.append([a, 1.0, 0.0, 1.0, a, 0.0])
    sos = np.array(rows)
    return sos if sos.imag.any() else sos.real.copy()


def _delay_sos(delay):
    """A pure delay of ``delay`` samples as exact sections (z^-2, z^-1 or 1)."""
    rows = [[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]] * (delay // 2)
    if delay % 2:
        rows.append([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    return np.array(rows or [[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])


def _fir_taps(prototype):
    """(K, N) tap matrix: column n is polyphase branch n, zero-padded to K."""
    n = prototype.spec.num_branches
    taps = prototype.coefficients
    k = max(math.ceil(taps.size / n), 1)
    return np.concatenate([taps, np.zeros(k * n - taps.size)]).reshape(k, n)


def _branch_family(prototype):
    """Analysis branch filters 0..N-1 of the prototype, gains included."""
    if isinstance(prototype, FirPrototype):
        return _FirFamily(prototype)
    if isinstance(prototype, AllPassPrototype):
        n = prototype.num_branches
        sections = [_delay_sos(prototype.branch0_delay)]
        sections.extend(_allpass_sos(prototype.alphas[i]) for i in range(n - 1))
        return _AllPassFamily(sections, 1.0 / n)
    raise TypeError(f"unsupported prototype {type(prototype).__name__}")


def _synthesis_family(prototype):
    """Synthesis branch filters in output-slot order: column m is branch N-1-m.

    Branch n pairs with analysis branch N-n (see module docstring), so
    slot m < N-1 carries analysis branch m+1's sections and the last slot
    the shortened branch-0 delay; for FIR branches (index reversal) slot
    m carries analysis tap column m, which is the analysis family itself.
    """
    if isinstance(prototype, FirPrototype):
        return _FirFamily(prototype)
    if isinstance(prototype, AllPassPrototype):
        n = prototype.num_branches
        sections = [_allpass_sos(prototype.alphas[m]) for m in range(n - 1)]
        sections.append(_delay_sos(prototype.branch0_delay - 1))
        return _AllPassFamily(sections, 1.0 / n)
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


def _require_finite(x):
    if not np.isfinite(x).all():
        raise FramingError("filter-bank input holds NaN or Inf samples")


class _Bank:
    """What both banks keep: prototype, branch family, frame cost and counters."""

    def __init__(self, prototype, branches):
        self.prototype = prototype
        self.num_branches = prototype.spec.num_branches
        self._branches = branches
        self._frame_cost = _frame_cost(prototype, self.num_branches)
        self.counters = OperationCounters()
        self.frames_processed = 0

    @property
    def warmup_frames(self):
        """Whole frames of the matched cascade delay: K for FIR, 2*n_fos for all-pass."""
        return (matched_cascade_delay(self.prototype) + 1) // self.num_branches

    def reset(self):
        self._branches.reset()
        self.counters.reset()
        self.frames_processed = 0

    def _count(self, n_frames):
        adds, mults = self._frame_cost
        self.counters.real_adds += n_frames * adds
        self.counters.real_mults += n_frames * mults
        self.counters.frames += n_frames
        self.frames_processed += n_frames


class AnalysisBank(_Bank):
    """Streaming N-channel analysis bank (one owner, stateful)."""

    def __init__(self, prototype):
        super().__init__(prototype, _branch_family(prototype))
        self._hist = np.zeros(self.num_branches - 1)
        self.samples_consumed = 0

    def reset(self):
        super().reset()
        self._hist = np.zeros(self.num_branches - 1)
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
        _require_finite(x)
        n_frames = x.size // n
        if n_frames == 0:
            return np.zeros((0, n), dtype=np.complex128)
        x = x.astype(np.complex128 if np.iscomplexobj(x) else float, copy=False)
        ext = np.concatenate([self._hist, x])
        # row k of the delay line, reversed, holds x[k*N - n] in column n
        branch_in = ext[: n_frames * n].reshape(n_frames, n)[:, ::-1]
        self._hist = ext[ext.size - (n - 1) :].copy()
        frames = np.fft.ifft(self._branches.run(branch_in), axis=1)
        self._count(n_frames)
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


class SynthesisBank(_Bank):
    """Streaming N-channel synthesis bank (mirror of AnalysisBank).

    ``hermitian`` declares every frame the bank gets conjugate-symmetric
    (channel N-n holds the conjugate of channel n), as a real restack
    builds them: the transformed frames are then real up to rounding, and
    the branches run on their real part, so the output is real for real
    branch filters.  The frames are not checked for the symmetry.
    """

    def __init__(self, prototype, hermitian=False):
        super().__init__(prototype, _synthesis_family(prototype))
        self.hermitian = hermitian
        n = self.num_branches
        dc = prototype.dc_gain
        self.gain = n * n / (dc * dc)

    def process_block(self, frames):
        """Synthesise a (frames, N) channel array back to F*N samples."""
        frames = np.asarray(frames, dtype=np.complex128)
        n = self.num_branches
        if frames.ndim != 2 or frames.shape[1] != n:
            raise FramingError(f"expected (frames, {n}) input, got {frames.shape}")
        _require_finite(frames)
        n_frames = frames.shape[0]
        if n_frames == 0:
            return np.zeros(0, dtype=np.complex128)
        slots = np.fft.fft(frames, axis=1)
        if self.hermitian:
            slots = slots.real
        # branch n feeds output slot k*N + N-1-n; the family runs in slot order
        out = self._branches.run(slots[:, ::-1])
        self._count(n_frames)
        # the branch output is this call's own array: scale it in place
        samples = out.reshape(-1)
        samples *= self.gain
        return samples

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


def prototype_impulse_response(prototype, min_length=None):
    """Full-rate impulse response of the prototype (recursive ones truncated).

    For the all-pass kind the branch recursions are run until the tail
    falls below 1e-16 relative to the peak, so convolving with the
    result matches the streaming bank to well below the test tolerances.
    The branches run as complex first-order ``lfilter`` sections, a
    realisation independent of the banks' second-order sections.
    """
    if isinstance(prototype, FirPrototype):
        return prototype.coefficients.copy()
    n = prototype.num_branches
    k = max(64, prototype.sections_per_branch * 8)
    if min_length is not None:
        k = max(k, math.ceil(min_length / n))
    while True:
        rows = np.zeros((n, k), dtype=np.complex128)
        rows[0, prototype.branch0_delay] = 1.0 / n
        for branch_idx in range(1, n):
            rows[branch_idx, 0] = 1.0 / n
            for a in prototype.alphas[branch_idx - 1]:
                rows[branch_idx] = lfilter([a, 1.0], [1.0, a], rows[branch_idx])
        peak = np.max(np.abs(rows))
        tail = np.max(np.abs(rows[:, -max(2, k // 20) :]))
        if tail <= 1e-16 * peak or k >= (1 << 22) // n:
            break
        k *= 2
    h = np.zeros(k * n, dtype=np.complex128)
    for branch_idx in range(n):
        h[branch_idx::n] = rows[branch_idx]
    return np.real_if_close(h, tol=1e8)


def direct_channelize_oracle(proto_or_response, num_branches, x, channel):
    """Reference channelizer output: modulate, filter, decimate by N.

    Deliberately the slow textbook path (O(L*N) per output sample): the
    prototype is modulated up to the channel centre, convolved with the
    input at the full rate, and decimated, with scaling matched to the
    analysis bank.  Only the first ``x.size`` outputs are read, so the
    response is truncated to ``x.size`` taps before the convolution.
    A caller that runs every channel passes the prototype's
    ``prototype_impulse_response(prototype, min_length=x.size)`` once
    instead of the prototype.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = num_branches
    if isinstance(proto_or_response, (FirPrototype, AllPassPrototype)):
        h = prototype_impulse_response(proto_or_response, min_length=x.size)
    else:
        h = np.asarray(proto_or_response)
    h = h[: x.size]
    h_mod = h * np.exp(2j * np.pi * channel * np.arange(h.size) / n)
    full = np.convolve(x, h_mod)
    n_frames = x.size // n
    return full[: n_frames * n : n] / n
