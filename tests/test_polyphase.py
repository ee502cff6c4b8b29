"""Filter-bank runtime tests: oracle equality, reconstruction, counters."""

import collections
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from fstack import complexity, polyphase
from fstack.errors import FramingError, InvalidSpecError
from fstack.filter_design import AllPassPrototype, FirPrototype, PrototypeSpec, fir_from_taps
from fstack.polyphase import (
    AnalysisBank,
    SynthesisBank,
    direct_channelize_oracle,
    matched_cascade_delay,
    prototype_impulse_response,
)


def rel_err(a, b):
    scale = np.max(np.abs(b)) or 1.0
    return np.max(np.abs(a - b)) / scale


def fftconvolve_family(taps, hist, u):
    """The FIR family's earlier realisation: ``fftconvolve`` over column blocks.

    Returns the (frames, N) output and the K-1 rows of history after it.
    """
    ext = np.concatenate([hist, u])
    y = np.empty(u.shape, dtype=np.result_type(ext, taps))
    for c in range(0, u.shape[1], 128):
        cols = slice(c, c + 128)
        y[:, cols] = fftconvolve(ext[:, cols], taps[:, cols], mode="valid", axes=0)
    return y, ext[ext.shape[0] - hist.shape[0] :]


def bandlimited_real(rng, total, num_branches, fp_norm, occupied):
    """Real noise confined to the passbands of the given channels."""
    freqs = np.fft.fftfreq(total)
    mask = np.zeros(total, dtype=bool)
    for ch in occupied:
        mask |= np.abs(freqs - ch / num_branches) < 0.9 * fp_norm
        mask |= np.abs(freqs + ch / num_branches) < 0.9 * fp_norm
    spec = np.zeros(total, dtype=complex)
    spec[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    x = np.real(np.fft.ifft(spec))
    return x / np.std(x)


def full_width(frames, n):
    """All N channels of a (frames, N//2 + 1) real analysis: channel N-c is conj(c)."""
    width = frames.shape[1]
    return np.concatenate([frames, np.conj(frames[:, 1 : n - width + 1][:, ::-1])], axis=1)


def bank_threads():
    """The helper threads of ``run_blocks`` that are alive."""
    return [t for t in threading.enumerate() if t.name.startswith("fstack-bank")]


def on_cpus(monkeypatch, cpus, run, started=None):
    """``run()`` with ``cpus`` usable CPUs, switching threads as often as it can.

    A block lost, or read back before its thread wrote it, would then
    change the output.  Returns ``run()``'s result and the most helper
    threads that one ``run_blocks`` call started; none of them may be
    alive once ``run()`` has returned.  ``started``, a Counter, receives
    the helpers each run started, keyed by the run.
    """
    if started is None:
        started = collections.Counter()  # helpers per run, keyed by the run's drain

    class Helper(threading.Thread):
        def __init__(self, target, name):
            super().__init__(target=target, name=name)
            started[target] += 1

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(polyphase, "threading", types.SimpleNamespace(Thread=Helper))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run()
    finally:
        sys.setswitchinterval(interval)
    assert not bank_threads()
    return result, max(started.values(), default=0)


def assert_cpu_count_keeps_outputs(proto, x, monkeypatch):
    """Analysis and synthesis outputs are equal on the usable CPUs, four and one CPU.

    Real input gives channels 0..N/2, which the synthesis reads by their
    width as Hermitian, complex input all N channels and the full
    synthesis.
    """

    def run():
        channels = AnalysisBank(proto).process_block(x)
        # channels 0..N/2 run the synthesis branches on real data
        out = SynthesisBank(proto).process_block(channels)
        return channels, out

    n = proto.spec.num_branches
    blocks = math.ceil(n / polyphase._FIR_COLUMN_BLOCK) if isinstance(proto, FirPrototype) else n
    default = run()
    four, helpers = on_cpus(monkeypatch, 4, run)
    assert helpers == min(4, blocks) - 1
    one, helpers = on_cpus(monkeypatch, 1, run)
    assert helpers == 0
    assert (default[1].dtype.kind == "f") == np.isrealobj(x)
    for a, b, c in zip(default, four, one):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


class TestFraming:
    def test_zero_input_gives_zero_frames(self, fir_small):
        bank = AnalysisBank(fir_small[4])
        frames = bank.process_block(np.zeros(64))
        np.testing.assert_array_equal(frames, 0.0)

    def test_partial_frame_rejected(self, fir_small):
        bank = AnalysisBank(fir_small[4])
        with pytest.raises(FramingError):
            bank.process_block(np.zeros(63))

    def test_synthesis_frame_shape_rejected(self, fir_small):
        # N = 4 takes 4 or 3 channels per frame
        bank = SynthesisBank(fir_small[4])
        for shape in [(5, 2), (5, 5), (20,), (5, 4, 1)]:
            with pytest.raises(FramingError, match=r"\(frames, 4\) or \(frames, 3\)"):
                bank.process_block(np.zeros(shape))

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_hermitian_synthesis_takes_half_width_frames(self, kind, iir_small, fir_small):
        # the width is the rule: N//2 + 1 columns are Hermitian, N are all
        # channels, and any other width is neither
        bank = SynthesisBank((iir_small if kind == "iir" else fir_small)[8])
        with pytest.raises(FramingError, match=r"\(frames, 8\) or \(frames, 5\)"):
            bank.process_block(np.ones((6, 6), dtype=complex))
        half = bank.process_block(np.ones((6, 5), dtype=complex))
        assert half.shape == (48,) and half.dtype == float
        assert bank.process_block(np.ones((6, 8), dtype=complex)).shape == (48,)

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_half_width_is_real_part_of_full_synthesis(self, kind, iir_small, fir_small, rng):
        """N//2 + 1 columns synthesise the real part of their conjugate-symmetric N columns.

        Channels 0 and N/2 keep an imaginary part here: the full
        synthesis turns it into an imaginary output, which the Hermitian
        transform ignores.
        """
        proto = (iir_small if kind == "iir" else fir_small)[8]
        half = rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
        full = np.real(SynthesisBank(proto).process_block(full_width(half, 8)))
        out = SynthesisBank(proto).process_block(half)
        assert out.dtype == float
        np.testing.assert_allclose(out, full, rtol=0, atol=1e-12 * np.max(np.abs(full)))

    def test_two_branch_bank_takes_full_transform(self, rng):
        # at N = 2, N//2 + 1 = N: two columns are every channel, not a
        # Hermitian half, so imaginary parts reach the output.  With unit
        # one-tap branches the output is the forward transform in slot order.
        proto = fir_from_taps(np.ones(2), 2)
        frames = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        out = SynthesisBank(proto).process_block(frames)
        np.testing.assert_allclose(out, np.fft.fft(frames, axis=1)[:, ::-1].reshape(-1),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, kind, bad, iir_small, fir_small, rng):
        proto = (iir_small if kind == "iir" else fir_small)[4]
        clean = rng.standard_normal(4 * 16)
        dirty = clean.copy()
        dirty[9] = bad
        bank = AnalysisBank(proto)
        with pytest.raises(FramingError):
            bank.process_block(dirty)
        dirty_complex = clean.astype(complex)
        dirty_complex[9] = complex(1.0, bad)
        with pytest.raises(FramingError):
            bank.process_block(dirty_complex)
        with pytest.raises(FramingError):
            bank.process_block(dirty[8:12])
        # a rejected block leaves the bank's state untouched
        np.testing.assert_array_equal(
            bank.process_block(clean), AnalysisBank(proto).process_block(clean)
        )
        frames = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        dirty_frames = frames.copy()
        dirty_frames[5, 2] = complex(1.0, bad)
        synth = SynthesisBank(proto)
        with pytest.raises(FramingError):
            synth.process_block(dirty_frames)
        with pytest.raises(FramingError):
            synth.process_block(dirty_frames[5:6])
        np.testing.assert_array_equal(
            synth.process_block(frames), SynthesisBank(proto).process_block(frames)
        )

    def test_finite_input_whose_sum_overflows_accepted(self, iir_small):
        # the banks' own arithmetic may overflow on such samples; only
        # the input check is under test
        proto = iir_small[4]
        with np.errstate(over="ignore", invalid="ignore"):
            frames = AnalysisBank(proto).process_block(np.full(4 * 8, 1e308))
            out = SynthesisBank(proto).process_block(np.full((8, 4), 1e308 + 0j))
        assert frames.shape == (8, 3)  # real input: channels 0..N/2
        assert out.shape == (32,)

    def test_opposite_infinities_rejected(self, iir_small):
        # their sum is NaN, not an infinity
        proto = iir_small[4]
        x = np.zeros(4 * 8)
        x[[3, 17]] = np.inf, -np.inf
        with pytest.raises(FramingError):
            AnalysisBank(proto).process_block(x)
        frames = np.zeros((8, 4), dtype=complex)
        frames[2, 1], frames[5, 3] = complex(0.0, np.inf), complex(0.0, -np.inf)
        with pytest.raises(FramingError):
            SynthesisBank(proto).process_block(frames)

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    @pytest.mark.parametrize("n", [4, 8])
    def test_real_input_gives_half_width_frames(self, kind, n, iir_small, fir_small, rng):
        # channels 0..N/2 of the complex analysis of the same samples; the
        # upper channels it leaves out are the conjugates of 1..N/2-1
        proto = (iir_small if kind == "iir" else fir_small)[n]
        x = rng.standard_normal(n * 64)
        half = AnalysisBank(proto).process_block(x)
        full = AnalysisBank(proto).process_block(x.astype(complex))
        assert half.shape == (64, n // 2 + 1)
        assert rel_err(full_width(half, n), full) <= 1e-12
        assert AnalysisBank(proto).process_block(x[:0]).shape == (0, n // 2 + 1)
        # a bank that has seen a complex block is complex from then on
        bank = AnalysisBank(proto)
        bank.process_block(x[: n * 8].astype(complex))
        assert bank.process_block(x[n * 8 :]).shape == (56, n)

    def test_rate_bookkeeping(self, fir_small, rng):
        bank = AnalysisBank(fir_small[8])
        bank.process_block(rng.standard_normal(8 * 17))
        bank.process_block(rng.standard_normal(8))
        assert bank.counters.frames == 18


class TestStreamingEquivalence:
    def test_frame_by_frame_equals_block(self, iir_small, rng):
        proto = iir_small[4]
        x = rng.standard_normal(4 * 50) + 1j * rng.standard_normal(4 * 50)
        block_bank = AnalysisBank(proto)
        frames_block = block_bank.process_block(x)
        stream_bank = AnalysisBank(proto)
        rows = [stream_bank.process_block(x[4 * k : 4 * (k + 1)])[0] for k in range(50)]
        np.testing.assert_allclose(np.asarray(rows), frames_block, atol=1e-12)

    def test_superposition(self, iir_small, rng):
        proto = iir_small[8]
        x = rng.standard_normal(8 * 64) + 1j * rng.standard_normal(8 * 64)
        y = rng.standard_normal(8 * 64) + 1j * rng.standard_normal(8 * 64)
        out_sum = AnalysisBank(proto).process_block(x + y)
        out_parts = AnalysisBank(proto).process_block(x) + AnalysisBank(proto).process_block(y)
        assert rel_err(out_sum, out_parts) < 1e-10


class TestChunking:
    """Any split into whole-frame blocks equals one block (both kinds, both ways)."""

    FRAMES = 48

    @staticmethod
    def _blocks(data, cuts, real):
        """Blocks between the cut frames; block i is real where ``real[i]`` is true."""
        edges = [0, *sorted(cuts), data.shape[0]]
        return [
            data[lo:hi].real if i < len(real) and real[i] else data[lo:hi]
            for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
        ]

    @pytest.mark.parametrize("direction", ["analysis", "synthesis"])
    @pytest.mark.parametrize("kind", ["iir", "fir"])
    @given(
        n=st.sampled_from([2, 4, 8]),
        cuts=st.lists(st.integers(0, FRAMES), max_size=5),
        real=st.lists(st.booleans(), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_split_equals_one_block(
        self, direction, kind, n, cuts, real, seed, iir_small, fir_small
    ):
        proto = (iir_small if kind == "iir" else fir_small)[n]
        gen = np.random.default_rng(seed)
        shape = (self.FRAMES, n)
        data = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        blocks = self._blocks(data, cuts, real)
        whole = np.concatenate([b.astype(complex) for b in blocks])
        if direction == "analysis":
            # a real block gives channels 0..N/2 until a complex block of
            # at least one frame has made the bank's state complex
            bank, outs, state_real = AnalysisBank(proto), [], True
            for b in blocks:
                out = bank.process_block(b.reshape(-1))
                assert out.shape[1] == (n // 2 + 1 if state_real and np.isrealobj(b) else n)
                state_real = state_real and (np.isrealobj(b) or b.size == 0)
                outs.append(full_width(out, n))
            chunked = np.concatenate(outs)
            single = AnalysisBank(proto).process_block(whole.reshape(-1))
        else:
            bank = SynthesisBank(proto)
            chunked = np.concatenate([bank.process_block(b) for b in blocks])
            single = SynthesisBank(proto).process_block(whole)
        assert rel_err(chunked, single) <= 1e-12


class TestOracleEquivalence:
    def test_boxcar_frames_are_idft_of_reversed_blocks(self):
        # unit taps on every branch: frame k is the inverse transform of
        # (x[4k], x[4k-1], x[4k-2], x[4k-3]); real input keeps bins 0..2
        proto = fir_from_taps(np.ones(4), 4)
        x = np.arange(16, dtype=float)
        frames = AnalysisBank(proto).process_block(x)
        assert frames.shape == (4, 3)
        for k in range(4):
            block = np.array([x[4 * k - n] if 4 * k - n >= 0 else 0.0 for n in range(4)])
            expected = np.fft.ifft(block)[:3]
            np.testing.assert_allclose(frames[k], expected, atol=1e-12)

    def test_baseband_channel_passthrough(self, fir_small, rng):
        # lowpass content inside channel 0 decimates straight through
        proto = fir_small[8]
        x = bandlimited_real(rng, 4096, 8, proto.spec.fp_norm, occupied=[0])
        y0 = direct_channelize_oracle(proto, 8, x, 0)
        # group delay (L-1)/2 is a half sample for even length: shift the
        # circular reference exactly in the frequency domain
        delay = (proto.length - 1) / 2.0
        shifted = np.fft.ifft(
            np.fft.fft(x) * np.exp(-2j * np.pi * np.fft.fftfreq(x.size) * delay)
        )
        ref = np.real(shifted)[::8]
        # ignore the warm-up of the linear (non-circular) channelizer
        head = proto.length // 8 + 1
        assert rel_err(y0[head:], ref[head:] / 8.0) < 0.05

    @pytest.mark.parametrize("n", [2, 4, 8, 14, 20, 22])
    def test_matches_bank_both_kinds(self, n, iir_small, fir_small, iir20, fir20, rng):
        if n in (14, 22):
            # prime factors 7 and 11: arbitrary prototypes of both kinds
            spec = PrototypeSpec(1.0, 0.4 / n, 0.6 / n, 0.01, 0.01, n)
            protos = {
                "iir": AllPassPrototype(np.full((n - 1, 3), 0.05 + 0j), spec),
                "fir": fir_from_taps(rng.standard_normal(3 * n), n),
            }
        else:
            protos = {
                "iir": iir20 if n == 20 else iir_small[n],
                "fir": fir20 if n == 20 else fir_small[n],
            }
        samples = 4096 - (4096 % n)
        x = rng.standard_normal(samples) + 1j * rng.standard_normal(samples)
        for proto in protos.values():
            frames = AnalysisBank(proto).process_block(x)
            for ch in range(0, n, max(1, n // 4)):
                oracle = direct_channelize_oracle(proto, n, x, ch)
                assert rel_err(frames[:, ch], oracle) < 1e-10


    @pytest.mark.parametrize(
        "alphas",
        [
            [0.3 + 0.4j, 0.3 - 0.4j, -0.2 + 0j],  # a conjugate pair and a real section
        ],
    )
    def test_arbitrary_sections_match_oracle(self, alphas, rng):
        n = 4
        spec = PrototypeSpec(1.0, 0.4 / n, 0.6 / n, 0.01, 0.01, n)
        rows = [np.roll(alphas, br) for br in range(n - 1)]
        proto = AllPassPrototype(np.array(rows), spec)
        x = rng.standard_normal(n * 256) + 1j * rng.standard_normal(n * 256)
        frames = AnalysisBank(proto).process_block(x)
        for ch in range(n):
            oracle = direct_channelize_oracle(proto, n, x, ch)
            assert rel_err(frames[:, ch], oracle) < 1e-10


class TestFirFamily:
    """The cached-spectrum FIR family against the ``fftconvolve`` realisation."""

    # 1, 3 and 2 new frames are fewer than the K - 1 = 5 history rows at
    # six taps per branch; every block length gives another transform length
    BLOCK_FRAMES = (3, 1, 40, 2, 17)

    @pytest.mark.parametrize("data", ["real", "complex", "mixed"])
    @pytest.mark.parametrize("taps_per_branch", [1, 6])
    @pytest.mark.parametrize("n", [2, 14, 22, 200, 1280])
    def test_matches_fftconvolve_blocks(self, n, taps_per_branch, data, rng):
        proto = fir_from_taps(rng.standard_normal(taps_per_branch * n - n // 2), n)
        taps = polyphase._fir_taps(proto)
        family = polyphase._FirFamily(proto, 1.0)
        hist = np.zeros((taps.shape[0] - 1, n))
        nffts = []
        for i, frames in enumerate(self.BLOCK_FRAMES):
            u = rng.standard_normal((frames, n))
            if data == "complex" or (data == "mixed" and i % 2):
                u = u + 1j * rng.standard_normal((frames, n))
            expected, hist = fftconvolve_family(taps, hist, u)
            y = family.run(u)
            assert y.dtype == expected.dtype
            assert rel_err(y, expected) <= 1e-12
            nffts.append(proto._tap_spectrum[y.dtype.kind == "f"][1])
        # one cache entry per data kind, replaced whenever its transform
        # length changes
        assert all(a != b for a, b in zip(nffts, nffts[1:]))

    @pytest.mark.parametrize("data", ["real", "complex"])
    @pytest.mark.parametrize("n", [200, 1280])  # 200: a narrow last column block
    def test_worker_count_does_not_change_results(self, n, data, rng, monkeypatch):
        proto = fir_from_taps(rng.standard_normal(6 * n - n // 2), n)
        x = rng.standard_normal(n * 40)
        if data == "complex":
            x = x + 1j * rng.standard_normal(x.size)
        assert_cpu_count_keeps_outputs(proto, x, monkeypatch)

    def test_one_spectrum_for_both_banks(self, rng, monkeypatch):
        n, frames = 16, 24
        proto = fir_from_taps(rng.standard_normal(8 * n), n)
        built = []
        fir_taps = polyphase._fir_taps
        monkeypatch.setattr(polyphase, "_fir_taps", lambda p: built.append(p) or fir_taps(p))
        x = rng.standard_normal(n * frames) + 1j * rng.standard_normal(n * frames)
        channels = AnalysisBank(proto).process_block(x)
        AnalysisBank(proto).process_block(x)
        SynthesisBank(proto).process_block(channels)
        SynthesisBank(proto).process_block(channels)
        assert built == [proto]

    def test_coefficients_are_read_only_copies(self, rng):
        taps = rng.standard_normal(32)
        proto = fir_from_taps(taps, 4)
        first = taps[0]
        taps[0] = first + 1.0
        assert proto.coefficients[0] == first
        with pytest.raises(ValueError):
            proto.coefficients[0] = 0.0
        # a read-only view of a writable array is copied too
        second = taps[1]
        view = taps.view()
        view.setflags(write=False)
        proto = fir_from_taps(view, 4)
        taps[1] = second + 1.0
        assert proto.coefficients[1] == second
        # an owned read-only array is held as it is
        owned = rng.standard_normal(32)
        owned.setflags(write=False)
        assert fir_from_taps(owned, 4).coefficients is owned

    def test_new_coefficient_array_rebuilds_spectrum(self, rng):
        n = 4
        x = rng.standard_normal(n * 32) + 1j * rng.standard_normal(n * 32)
        proto = fir_from_taps(rng.standard_normal(6 * n), n)
        AnalysisBank(proto).process_block(x)
        other = rng.standard_normal(6 * n)
        proto.coefficients = other
        np.testing.assert_array_equal(
            AnalysisBank(proto).process_block(x),
            AnalysisBank(fir_from_taps(other, n)).process_block(x),
        )


class TestAllPassFamily:
    @pytest.mark.parametrize("data", ["real", "complex"])
    @pytest.mark.parametrize("n", [8, 20])
    def test_worker_count_does_not_change_results(self, n, data, iir_small, iir20, rng,
                                                  monkeypatch):
        proto = iir20 if n == 20 else iir_small[n]
        x = rng.standard_normal(n * 400)
        if data == "complex":
            x = x + 1j * rng.standard_normal(x.size)
        assert_cpu_count_keeps_outputs(proto, x, monkeypatch)


class TestChannelSelectivity:
    def test_tone_lands_in_its_channel(self, iir20):
        n = 20
        frames_needed = 2200
        t = np.arange(n * frames_needed)
        tone = np.exp(2j * np.pi * 3.0 / n * t)  # centre of channel 3
        frames = AnalysisBank(iir20).process_block(tone)
        body = frames[200:]
        power = np.mean(np.abs(body) ** 2, axis=0)
        rel_db = 10.0 * np.log10(power / power[3] + 1e-300)
        assert power[3] == pytest.approx(1.0 / n ** 2, rel=1e-3)
        others = np.delete(rel_db, 3)
        assert np.max(others) <= -49.0


class TestReconstruction:
    def test_boxcar_cascade_is_pure_delay(self, rng):
        proto = fir_from_taps(np.ones(4), 4)
        x = rng.standard_normal(4 * 64)
        y = SynthesisBank(proto).process_block(AnalysisBank(proto).process_block(x))
        delay = matched_cascade_delay(proto)
        assert delay == 3
        assert np.max(np.abs(np.real(y[delay:]) - x[: y.size - delay])) < 1e-12

    def test_zero_frames_give_zero_output(self, iir_small):
        bank = SynthesisBank(iir_small[4])
        out = bank.process_block(np.zeros((1, 4), dtype=complex))
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("kind", ["iir", "fir"])
    def test_transparency_grade_cascade_near_perfect(self, kind, pipelines, rng):
        """Near-perfect reconstruction with the transparency-grade designs.

        The reference-grade prototypes (49/51 dB class) reconstruct at
        the 1e-4 level; meeting the 1e-5 bound needs the pipeline
        designs, which is exactly why the pipeline defaults are sized
        beyond the reference stopband numbers.
        """
        proto = pipelines["pipes"][kind].coarse_prototype
        n = proto.spec.num_branches
        x = bandlimited_real(rng, n * 4096, n, proto.spec.fp_norm, occupied=range(1, 10))
        y = SynthesisBank(proto).process_block(AnalysisBank(proto).process_block(x))
        delay = matched_cascade_delay(proto)
        tail = 2 * delay
        err = y[delay + tail :] - x[tail : y.size - delay]
        ref = x[tail : y.size - delay]
        assert np.mean(err ** 2) / np.mean(ref ** 2) <= 1e-5

    def test_reference_grade_cascade_level(self, iir20, rng):
        # the minimum-order reference design sits at the 1e-4 level
        n = 20
        x = bandlimited_real(rng, n * 4096, n, iir20.spec.fp_norm, occupied=range(1, 10))
        y = SynthesisBank(iir20).process_block(AnalysisBank(iir20).process_block(x))
        delay = matched_cascade_delay(iir20)
        tail = 2 * delay
        err = y[delay + tail :] - x[tail : y.size - delay]
        ref = x[tail : y.size - delay]
        assert np.mean(err ** 2) / np.mean(ref ** 2) <= 3e-4

    def test_single_tone_frequency_preserved(self, iir20):
        n = 20
        t = np.arange(n * 4096)
        f0 = 3.0 / n + 0.004  # inside channel 3's passband
        x = np.cos(2 * np.pi * f0 * t)
        y = SynthesisBank(iir20).process_block(AnalysisBank(iir20).process_block(x))
        spectrum = np.abs(np.fft.rfft(y[matched_cascade_delay(iir20) :] * np.hanning(y.size - matched_cascade_delay(iir20))))
        peak = np.argmax(spectrum) / (y.size - matched_cascade_delay(iir20))
        assert abs(peak - f0) < 1.0 / 4096


class TestCounters:
    def test_fir_frame_model(self):
        proto = fir_from_taps(np.ones(320), 16)
        bank = AnalysisBank(proto)
        bank.process_block(np.zeros(16))
        assert bank.counters.real_adds == pytest.approx(896.0)
        assert bank.counters.real_mults == pytest.approx(736.0)

    @pytest.mark.parametrize("bank", [AnalysisBank, SynthesisBank])
    def test_fir_shorter_than_n_rejected(self, bank):
        # the FIR cost model needs L >= N, and every designed FIR has it
        with pytest.raises(InvalidSpecError, match="need L_FIR >= N"):
            bank(fir_from_taps([1.0], 4))

    def test_recursive_frame_model(self, rng):
        spec = PrototypeSpec(1.0, 0.02, 1.0 / 16 - 0.02, 0.01, 0.01, 16)
        proto = AllPassPrototype(np.full((15, 10), 0.1 + 0j), spec)
        bank = AnalysisBank(proto)
        bank.process_block(rng.standard_normal(16))
        assert bank.counters.real_adds == pytest.approx(888.0)
        assert bank.counters.real_mults == pytest.approx(396.0)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_counters_equal_cost_model_exactly(self, n, rng):
        frames = 37
        l_fir = 5 * n
        fir = fir_from_taps(rng.standard_normal(l_fir), n)
        bank = AnalysisBank(fir)
        bank.process_block(rng.standard_normal(n * frames))
        a1, p1 = complexity.fir_candidate_cost(n, l_fir)
        assert bank.counters.real_adds == frames * a1
        assert bank.counters.real_mults == frames * p1

        spec = PrototypeSpec(1.0, 0.4 / n, 0.6 / n, 0.01, 0.01, n)
        iir = AllPassPrototype(np.full((n - 1, 3), 0.05 + 0j), spec)
        bank = AnalysisBank(iir)
        bank.process_block(rng.standard_normal(n * frames))
        a2, p2 = complexity.iir_candidate_cost(n, 3 * n)
        assert bank.counters.real_adds == frames * a2
        assert bank.counters.real_mults == frames * p2

    def test_synthesis_mirrors_model(self, fir_small):
        proto = fir_small[4]
        bank = SynthesisBank(proto)
        bank.process_block(np.zeros((11, 4), dtype=complex))
        a1, p1 = complexity.fir_candidate_cost(4, proto.length)
        assert bank.counters.real_adds == pytest.approx(11 * a1)
        assert bank.counters.real_mults == pytest.approx(11 * p1)


class TestImpulseResponse:
    def test_fir_prototype_passthrough(self, fir_small):
        h = prototype_impulse_response(fir_small[4])
        np.testing.assert_array_equal(h, fir_small[4].coefficients)

    def test_recursive_truncation_is_deep(self, iir_small):
        h = prototype_impulse_response(iir_small[4])
        peak = np.max(np.abs(h))
        assert np.max(np.abs(h[-40:])) <= 1e-12 * peak


# ---------------------------------------------------------------------------
# forking a process that ran the threaded banks


def run_isolated(code, timeout=120):
    """Run ``code`` in a fresh interpreter, so a run that hangs fails the test, not the suite.

    The interpreter leads a process group of its own, and a timeout kills
    the whole group, so no forked child of a hung run is left behind.
    """
    src = os.path.dirname(os.path.dirname(polyphase.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


class TestRunBlocks:
    def test_nested_runs_run_every_block_once(self):
        # each outer block calls run_blocks itself, as a full-scale fine
        # bank's column blocks do inside a sub-band block; every inner block
        # must run exactly once, and no helper outlives its run.  A deadlock
        # would hang the interpreter, so the run has one of its own, which
        # the timeout kills
        proc = run_isolated("""
            import os
            import sys
            import threading
            import time
            from fstack import polyphase

            os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
            sys.setswitchinterval(1e-6)
            done = []

            def outer(i):
                def inner(j):
                    time.sleep(1e-3)  # lets the helpers take blocks from the queue
                    done.append((i, j))

                polyphase.run_blocks(inner, range(5))

            polyphase.run_blocks(outer, range(6))
            assert sorted(done) == [(i, j) for i in range(6) for j in range(5)]
            assert threading.active_count() == 1
            print("ok")
        """, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"]

    def test_helper_exception_raised_on_caller(self, monkeypatch):
        # the caller's first block waits until a helper has taken a block,
        # so the helpers run the failing ones; their exception is raised on
        # the caller once every helper has stopped
        caller = threading.current_thread()
        helper_ran = threading.Event()

        def block(i):
            if threading.current_thread() is caller:
                assert helper_ran.wait(timeout=60)
            else:
                helper_ran.set()
                raise ValueError(f"block {i} failed")

        with pytest.raises(ValueError, match=r"block \d failed"):
            on_cpus(monkeypatch, 4, lambda: polyphase.run_blocks(block, range(8)))
        assert not bank_threads()


    def test_one_cpu_inside_a_block(self, monkeypatch):
        """``usable_cpus()`` is 1 on a thread while it runs blocks.

        That holds on the caller and on a helper, so a nested run starts
        no helper and runs its blocks on the block's own thread.  The
        caller's count comes back after the run.  The check runs under
        ``on_cpus``, which replaces ``polyphase.threading`` as the banks'
        tests do.
        """
        caller = threading.current_thread()
        ran = {True: threading.Event(), False: threading.Event()}  # keyed by on the caller
        seen = []  # (on the caller, CPUs after the nested run, nested blocks' threads)

        def block(i):
            # each block waits until the caller and a helper have both taken
            # one; six blocks on three helpers leave the caller one at least
            me = threading.current_thread()
            ran[me is caller].set()
            assert ran[me is not caller].wait(timeout=60)
            assert polyphase.usable_cpus() == 1
            inner = []
            polyphase.run_blocks(lambda j: inner.append(threading.current_thread()), range(8))
            seen.append((me is caller, polyphase.usable_cpus(), set(inner) == {me}))

        def run():
            assert polyphase.usable_cpus() == 4
            polyphase.run_blocks(block, range(6))
            return polyphase.usable_cpus()

        started = collections.Counter()
        cpus, helpers = on_cpus(monkeypatch, 4, run, started)
        assert cpus == 4 and helpers == 3
        assert list(started.values()) == [3]  # the outer run's; no nested run started one
        assert len(seen) == 6
        assert {on_caller for on_caller, _, _ in seen} == {True, False}
        assert all(count == 1 and own for _, count, own in seen)

    def test_cpu_count_comes_back_after_a_raise(self, monkeypatch):
        def block(i):
            assert polyphase.usable_cpus() == 1
            if i == 1:
                raise ValueError("block 1 failed")

        def run():
            with pytest.raises(ValueError, match="block 1 failed"):
                polyphase.run_blocks(block, range(3))
            # a run of one block runs inline, on the caller alone
            with pytest.raises(ValueError, match="block 1 failed"):
                polyphase.run_blocks(block, [1])
            return polyphase.usable_cpus()

        assert on_cpus(monkeypatch, 4, run)[0] == 4


class TestBankPoolFork:
    """A child forked by a caller after a threaded bank run."""

    def test_fork_after_threaded_bank_run(self):
        # no helper thread outlives the parent's bank run, so the fork copies
        # a process with one thread, and the child's bank runs helpers of its own
        proc = run_isolated("""
            import multiprocessing
            import os
            import threading
            import numpy as np
            from fstack import polyphase
            from fstack.filter_design import fir_from_taps

            os.sched_getaffinity = lambda pid: {0, 1, 2, 3}  # the banks run helper threads
            rng = np.random.default_rng(5)
            proto = fir_from_taps(rng.standard_normal(6 * 256), 256)
            x = rng.standard_normal(256 * 30) + 1j * rng.standard_normal(256 * 30)

            def analyse(conn):
                frames = polyphase.AnalysisBank(proto).process_block(x)
                conn.send(frames)

            parent = polyphase.AnalysisBank(proto).process_block(x)
            assert not [t for t in threading.enumerate() if t.name.startswith("fstack-bank")]
            ctx = multiprocessing.get_context("fork")
            for _ in range(2):
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=analyse, args=(send,))
                child.start()
                send.close()
                frames = recv.recv()
                recv.close()
                child.join()
                assert child.exitcode == 0
                assert np.array_equal(frames, parent)
            print("ok")
        """, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"]
