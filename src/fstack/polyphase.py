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
member N-n and shortens the pure delay of branch 0 from M samples (M
sections per branch) to M - 1, making every product a 2M - 1 frame
delay.  Output gain is scaled so a matched cascade has unity passband
gain.

Realisation: each all-pass branch is one chain of second-order sections
run by a single ``scipy.signal.sosfilt`` call that carries its state;
every conjugate pair of first-order sections becomes one real biquad,
and the pure delay of branch 0 is written as exact delay sections, so
real input stays real until the transform; complex input runs through
the same real sections.  Each branch writes one contiguous row of the
output and applies the family's scale in that pass (for synthesis the
scale holds the cascade gain).  The FIR family is one (K, N) tap matrix
with K-1 frames of history, and all N branches are filtered at once by
an overlap-save convolution along the frame axis, in column blocks.
Both families share their work out with ``run_blocks`` (which the
channelizer also uses for its sub-band cascades): the calling thread
and helper threads started for the run, one thread per usable CPU,
take all-pass branches or FIR column blocks from one queue; a block's
arithmetic does not depend on the thread that runs it, so neither does
the output.  While a thread runs a block, ``usable_cpus()`` is 1 on
it: a nested run starts no helper, and a block's channel transforms
take one worker.  The spectrum of the tap matrix is computed once per
prototype, data kind (real or complex) and transform length and cached
on the prototype, so every analysis and synthesis bank built from it
shares it; the synthesis family runs its branches in output-slot
order, where its taps are the analysis taps.  The N-point channel
transforms are ``scipy.fft`` calls with one worker per usable CPU.
Real branch output has conjugate-symmetric channels, so its analysis
keeps only channels 0..N/2, computed by ``ihfft``, and a synthesis bank
given those N/2+1 channels (the width says so) runs ``hfft`` on them.

Memory order: a (frames, width) frame array is either frame-major
(C-ordered, one frame per row of memory) or channel-major (the
transpose of a C-ordered (width, frames) array, so each channel is one
contiguous row).  The channel transforms keep the order they are given.
The all-pass analysis returns channel-major frames, built from the
branch rows; the FIR analysis returns frame-major frames.  A synthesis
bank takes either; from channel-major input the all-pass synthesis
gets one contiguous row per branch and filters it in place.

Operation counters do not count what the realisation executes; they
follow the per-frame accounting model: branch work counted as
complex-by-real operations (2 mults per tap; each all-pass first-order
section 1 coefficient multiply and 2 additions, doubled for complex
data), and the transform (computed by ``scipy.fft``) charged with the
analytic butterfly model.
"""

import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, hfft, ifft, ihfft, irfft, next_fast_len, rfft
# scipy.signal is imported where it is called, as in filter_design

from .complexity import fir_candidate_cost, iir_candidate_cost
from .errors import FramingError
from .filter_design import AllPassPrototype, FirPrototype


@dataclass
class OperationCounters:
    """Accumulated real-operation counts; real-valued because the
    transform model uses log2(N) for any N."""

    real_mults: float = 0.0
    real_adds: float = 0.0
    frames: int = 0

    def copy(self):
        return OperationCounters(self.real_mults, self.real_adds, self.frames)


# Column block of the FIR family's frequency-domain convolution: bounds
# each block's scratch memory at full-scale bank sizes (N = 1280 and up)
# and is the unit of work that ``run_blocks`` shares out.
_FIR_COLUMN_BLOCK = 128


# ``active`` is set on a thread while it runs ``run_blocks`` blocks
_in_block = threading.local()


def usable_cpus():
    """CPUs this process may run on: the thread count of ``run_blocks``.

    1 on a thread while it runs a ``run_blocks`` block: the run's threads
    already hold the CPUs, so a nested run starts no helper and a block's
    channel transforms take one worker.
    """
    if getattr(_in_block, "active", False):
        return 1
    return len(os.sched_getaffinity(0))


def run_blocks(block, blocks):
    """``block`` over ``blocks`` on the calling thread and helper threads of its own.

    One thread per usable CPU, the caller's included, and at most one per
    block: the helpers are started for this call (``Thread.start``
    returns once each one runs) and joined before it returns, so none
    outlives it.  The caller takes blocks from the shared queue as well,
    so it never waits for a helper to take one: on a host that is slow
    to schedule the helpers it runs most blocks itself.  One block runs
    inline.  While a thread runs blocks, ``usable_cpus()`` is 1 on it, so
    a block that calls ``run_blocks`` itself runs the nested blocks on its
    own thread; the caller's count comes back when its blocks are done.
    Once a block raises, no thread takes another, and the first exception
    is raised again after the join.
    """
    todo = queue.SimpleQueue()
    for item in blocks:
        todo.put(item)
    errors = []

    def drain():
        outer, _in_block.active = getattr(_in_block, "active", False), True
        try:
            while not errors:
                try:
                    item = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    block(item)
                except BaseException as exc:  # raised on the caller after the join
                    errors.append(exc)
        finally:
            _in_block.active = outer

    helpers = [threading.Thread(target=drain, name="fstack-bank")
               for _ in range(min(usable_cpus(), len(blocks)) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


class _FirFamily:
    """All N FIR branches: a (K, N) tap matrix and K-1 frames of history.

    ``run`` convolves column n of its (frames, N) input with tap column
    n along the frame axis by overlap-save: each column block of the
    history rows followed by the new frames is transformed at a length of
    at least frames + K - 1, multiplied by the tap spectrum (from the
    prototype's cache, see ``_tap_spectrum``) and transformed back.  The
    circular wrap-around lands only on the first K-1 outputs, which
    belong to the history rows and are dropped; the rest are scaled by
    ``scale`` as they are written out.  A block frees its input buffer
    once it is transformed and its spectrum once it is transformed back,
    so at most two of its three buffers are alive at once.  Each block
    has its own buffers and writes its own output columns, so the blocks
    can run on several threads (``run_blocks``): pocketfft and numpy
    release the GIL.
    """

    def __init__(self, prototype, scale):
        self.prototype = prototype
        self.scale = scale
        n = prototype.spec.num_branches
        self._hist = np.zeros((math.ceil(prototype.length / n) - 1, n))

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
            del ext
            spec *= taps[:, cols]
            full = inv(spec, nfft, axis=0, overwrite_x=True)
            del spec
            np.multiply(full[delay : delay + frames], self.scale, out=y[:, cols])

        n = u.shape[1]
        run_blocks(block, [slice(c, min(c + _FIR_COLUMN_BLOCK, n))
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
    """N branches, each one chain of second-order sections with its state.

    ``run`` filters column n of its (frames, N) input through branch n
    into column n of its (frames, N) output, scaled in the same pass.
    The output is channel-major, the transpose of an (N, frames) array,
    so each branch writes one contiguous row; an ``in_place`` family (the
    synthesis one, whose input is its bank's own transform output) writes
    over its input instead.  Each branch reads its own column before it
    writes it, and keeps its own state, so the branches run on several
    threads (``run_blocks``), one branch per block.
    """

    def __init__(self, sections, scale, in_place):
        self.sections = sections
        self.scale = scale
        self.in_place = in_place
        self._zi = [np.zeros((sos.shape[0], 2)) for sos in sections]

    def run(self, u):
        from scipy.signal import sosfilt

        dtype = np.result_type(u, *self._zi)
        y = u if self.in_place else np.empty(u.shape[::-1], dtype=dtype).T

        def branch(br):
            out, self._zi[br] = sosfilt(self.sections[br], u[:, br], zi=self._zi[br])
            np.multiply(out, self.scale, out=y[:, br])

        run_blocks(branch, range(len(self.sections)))
        return y


def _allpass_sos(alphas):
    """Sections of a chain of first-order all-pass sections (a + z^-1)/(1 + a z^-1).

    Each conjugate pair (``AllPassPrototype`` pairs every complex
    section) multiplies out to the real biquad
    [|a|^2, 2 Re a, 1, 1, 2 Re a, |a|^2]; a real section keeps its
    first-order row, so every row is real.
    """
    rows, rest = [], list(alphas)
    while rest:
        a = rest.pop()
        if a.imag:
            rest.remove(np.conj(a))
            mag2, re2 = a.real**2 + a.imag**2, 2.0 * a.real
            rows.append([mag2, re2, 1.0, 1.0, re2, mag2])
        else:
            rows.append([a.real, 1.0, 0.0, 1.0, a.real, 0.0])
    return np.array(rows)


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
    k = math.ceil(taps.size / n)
    return np.concatenate([taps, np.zeros(k * n - taps.size)]).reshape(k, n)


def _family(prototype, synthesis):
    """Branch filters in the bank's run order, gains included.

    Synthesis runs in output-slot order: slot m carries branch N-1-m,
    which pairs with analysis branch m+1 (see module docstring).  All-pass
    analysis is [delay M] + branches 1..N-1, scale 1/N; all-pass synthesis
    is branches 1..N-1 + [delay M-1], scale gain/N (M sections per branch).
    FIR analysis and synthesis are one family, scale 1 or gain: index
    reversal puts analysis tap column m in slot m.  gain = N^2 / dc_gain^2
    gives a matched cascade unity passband gain.
    """
    n = prototype.spec.num_branches
    dc = prototype.dc_gain
    scale = n * n / (dc * dc) if synthesis else 1.0
    if isinstance(prototype, FirPrototype):
        return _FirFamily(prototype, scale)
    sections = [_allpass_sos(row) for row in prototype.alphas]
    if synthesis:
        sections.append(_delay_sos(prototype.sections_per_branch - 1))
    else:
        sections.insert(0, _delay_sos(prototype.sections_per_branch))
    return _AllPassFamily(sections, scale / n, in_place=synthesis)


def _frame_cost(prototype):
    """(real adds, real mults) per frame under the accounting model.

    The FIR model needs L >= N (``fir_candidate_cost``), so a bank built
    from a shorter FIR raises ``InvalidSpecError``.
    """
    n = prototype.spec.num_branches
    if isinstance(prototype, FirPrototype):
        return fir_candidate_cost(n, prototype.length)
    return iir_candidate_cost(n, prototype.coefficient_count)


def _require_finite(x):
    # a finite sum proves every sample finite; a sum that overflows is
    # checked sample by sample
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(x)
    if not np.isfinite(total) and not np.isfinite(x).all():
        raise FramingError("filter-bank input holds NaN or Inf samples")


class _Bank:
    """What both banks keep: prototype, branch family, frame cost and counters."""

    def __init__(self, prototype, branches):
        self.prototype = prototype
        self.num_branches = prototype.spec.num_branches
        self._branches = branches
        self._frame_cost = _frame_cost(prototype)
        self.counters = OperationCounters()

    def _count(self, n_frames):
        adds, mults = self._frame_cost
        self.counters.real_adds += n_frames * adds
        self.counters.real_mults += n_frames * mults
        self.counters.frames += n_frames


class AnalysisBank(_Bank):
    """Streaming N-channel analysis bank (one owner, stateful)."""

    def __init__(self, prototype):
        super().__init__(prototype, _family(prototype, synthesis=False))
        self._hist = np.zeros(self.num_branches - 1)

    def process_block(self, samples):
        """Analyse a whole number of commutator revolutions.

        Returns a (frames, N) array; row k is the channel vector of
        frame ``counters.frames + k``, counted before the call.  Real
        branch output has conjugate-symmetric channels (channel N-c holds
        the conjugate of channel c), so a real block into a bank that has
        not been fed a complex block (whose delay line is real, as are its
        branch filters and their state) returns only channels 0..N/2, a
        (frames, N//2 + 1) array, which a ``SynthesisBank`` reads by its
        width as Hermitian.

        The frames keep the branch output's memory order: channel-major
        (the transpose of a C-ordered (width, frames) array, so channel c
        is one contiguous row) from the all-pass family, frame-major from
        the FIR family.  The block's delay line (the kept history followed
        by the block, a copy of the input) is freed once the branches have
        run, before the channel transform allocates the frames.
        """
        x = np.asarray(samples)
        n = self.num_branches
        if x.ndim != 1 or x.size % n:
            raise FramingError(
                f"input must be a 1-D multiple of N={n} samples, got shape {x.shape}"
            )
        _require_finite(x)
        n_frames = x.size // n
        x = x.astype(np.complex128 if np.iscomplexobj(x) else float, copy=False)
        ext = np.concatenate([self._hist, x])
        # row k of the delay line, reversed, holds x[k*N - n] in column n
        branch_in = ext[: n_frames * n].reshape(n_frames, n)[:, ::-1]
        real = not np.iscomplexobj(branch_in)
        if n_frames == 0:
            return np.zeros((0, n // 2 + 1 if real else n), dtype=np.complex128)
        self._hist = ext[ext.size - (n - 1) :].copy()
        branch_out = self._branches.run(branch_in)
        del ext, branch_in  # the delay line is freed before the transform's output exists
        # channels 0..N/2 of the ifft of real data are its ihfft
        frames = _channel_transform(ihfft if real else ifft, branch_out)
        self._count(n_frames)
        return frames


class SynthesisBank(_Bank):
    """Streaming N-channel synthesis bank (mirror of AnalysisBank).

    The width of its frames says what they hold.  N columns are every
    channel, transformed with ``fft``.  N//2 + 1 < N columns are channels
    0..N/2 of conjugate-symmetric frames (channel N-n holds the conjugate
    of channel n), as a real analysis returns them and a real restack
    builds them: ``hfft`` transforms them to real slots, ignoring the
    imaginary part of channel 0 (and of N/2 for even N), so the branches
    run on real data and the output is real for real branch filters.  At
    N = 2 the two widths are one, and it takes the full transform.
    """

    def __init__(self, prototype):
        super().__init__(prototype, _family(prototype, synthesis=True))

    def process_block(self, frames):
        """Synthesise a (frames, N) or (frames, N//2 + 1) channel array to F*N samples.

        Any other width raises ``FramingError``.  The transform keeps the
        input's memory order, so channel-major input gives one contiguous
        row per branch, which the all-pass family filters in place;
        branch output not yet in sample order is interleaved into the
        returned samples.
        """
        frames = np.asarray(frames, dtype=np.complex128)
        n = self.num_branches
        if frames.ndim != 2 or frames.shape[1] not in (n, n // 2 + 1):
            raise FramingError(
                f"expected (frames, {n}) or (frames, {n // 2 + 1}) input, got {frames.shape}"
            )
        _require_finite(frames)
        n_frames = frames.shape[0]
        if n_frames == 0:
            return np.zeros(0, dtype=np.complex128)
        transform = fft if frames.shape[1] == n else hfft
        slots = _channel_transform(transform, frames, n)
        # branch n feeds output slot k*N + N-1-n; the family runs in slot order
        out = self._branches.run(slots[:, ::-1])
        self._count(n_frames)
        return out.reshape(-1)


def _channel_transform(transform, frames, n=None):
    """``transform`` over the channels of (frames, width) ``frames``, in its memory order.

    Channel-major input (the transpose of a C-ordered (width, frames)
    array) is transformed along axis 0 of that array and comes back
    channel-major; frame-major input comes back frame-major.
    """
    if frames.flags.f_contiguous and not frames.flags.c_contiguous:
        return transform(frames.T, n, axis=0, workers=usable_cpus()).T
    return transform(frames, n, axis=1, workers=usable_cpus())


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
    from scipy.signal import lfilter

    if isinstance(prototype, FirPrototype):
        return prototype.coefficients.copy()
    n = prototype.num_branches
    k = max(64, prototype.sections_per_branch * 8)
    if min_length is not None:
        k = max(k, math.ceil(min_length / n))
    while True:
        rows = np.zeros((n, k), dtype=np.complex128)
        rows[0, prototype.sections_per_branch] = 1.0 / n
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
