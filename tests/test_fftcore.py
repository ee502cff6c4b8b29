"""Transform convention tests: the scipy.fft calls the banks make.

On (frames, N) arrays, ``AnalysisBank`` applies ``ifft(x, axis=1)``
(inverse kernel, 1/N scaling) to complex branch output, and to real
branch output ``ihfft(x, axis=1)``: channels 0..N/2 of the same inverse
transform.  ``SynthesisBank`` reads the width of its frames: it applies
``fft(x, axis=1)`` (forward kernel, unscaled) to N channels per frame,
and ``hfft(x, N, axis=1)`` to N//2 + 1 < N, channels 0..N/2 of
conjugate-symmetric frames.  These tests pin that convention against an
independent O(N^2) DFT, at the channelizer sizes and at sizes with large
prime factors.
"""

import numpy as np
import pytest
from scipy.fft import fft, hfft, ifft, ihfft


def dft_oracle(x, inverse=False):
    """Brute-force O(N^2) DFT, written independently of numpy.fft."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * (np.outer(k, k) % n) / n)
    out = kernel @ x
    return out / n if inverse else out


def rel_err(a, b):
    scale = np.max(np.abs(b)) or 1.0
    return np.max(np.abs(a - b)) / scale


def forward(x):
    """The synthesis-bank transform, applied to one frame."""
    return fft(np.asarray(x, dtype=complex)[None, :], axis=1)[0]


def inverse(x):
    """The analysis-bank transform of complex branch output, applied to one frame."""
    return ifft(np.asarray(x, dtype=complex)[None, :], axis=1)[0]


def real_inverse(x):
    """The analysis-bank transform of real branch output: channels 0..N/2."""
    return ihfft(np.asarray(x, dtype=float)[None, :], axis=1)[0]


def hermitian_forward(half, n):
    """The Hermitian synthesis-bank transform of channels 0..N/2, applied to one frame."""
    return hfft(np.asarray(half, dtype=complex)[None, :], n, axis=1)[0]


class TestPlans:
    def test_size_one_is_identity(self):
        assert forward([3.0 + 1j])[0] == 3.0 + 1j
        assert inverse([3.0 + 1j])[0] == 3.0 + 1j


class TestTransform:
    def test_impulse_transforms_to_ones(self):
        x = np.zeros(16)
        x[0] = 1.0
        np.testing.assert_allclose(forward(x), np.ones(16), atol=1e-14)

    def test_tone_lands_at_bin_three(self):
        # positive-frequency tone under the forward kernel exp(-j2 pi k m / N)
        n = 20
        x = np.exp(2j * np.pi * np.arange(n) * 3 / n)
        expected = np.zeros(n, dtype=complex)
        expected[3] = n
        np.testing.assert_allclose(forward(x), expected, atol=1e-12)

    def test_matches_direct_oracle_length_20(self, rng):
        x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert rel_err(forward(x), dft_oracle(x)) < 1e-12

    def test_input_not_modified(self, rng):
        x = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        keep = x.copy()
        fft(x, axis=1)
        ifft(x, axis=1)
        np.testing.assert_array_equal(x, keep)
        real = x.real.copy()
        half = ihfft(real, axis=1)
        hfft(half, 40, axis=1)
        np.testing.assert_array_equal(real, keep.real)

    def test_batch_matches_single(self, rng):
        xs = rng.standard_normal((7, 20)) + 1j * rng.standard_normal((7, 20))
        batch = ifft(xs, axis=1)
        for row_in, row_out in zip(xs, batch):
            np.testing.assert_allclose(dft_oracle(row_in, inverse=True), row_out)


class TestProperties:
    SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16, 20, 40, 64, 101, 360, 509, 1280, 2048, 4096]

    @pytest.mark.parametrize("n", SIZES)
    def test_round_trip(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = inverse(forward(x))
        assert np.max(np.abs(back - x)) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 13, 20, 64, 1280, 2048])
    def test_parseval(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spectrum = forward(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-10

    @pytest.mark.parametrize("n", [4, 20, 360])
    def test_linearity(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        lhs = forward(a * x + b * y)
        rhs = a * forward(x) + b * forward(y)
        assert rel_err(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 5, 8, 10, 16, 20, 40, 64, 1280, 2048])
    def test_mixed_radix_equals_direct(self, n, rng):
        # scipy's composite-size FFT against the explicit DFT, both kernels
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert rel_err(forward(x), dft_oracle(x)) < 1e-10
        assert rel_err(inverse(x), dft_oracle(x, inverse=True)) < 1e-10


class TestHermitian:
    """The half-width transforms of real analysis and Hermitian synthesis."""

    SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 20, 22, 64, 101, 1280]

    @pytest.mark.parametrize("n", SIZES)
    def test_real_inverse_is_lower_half_of_oracle(self, n, rng):
        x = rng.standard_normal(n)
        half = real_inverse(x)
        assert half.shape == (n // 2 + 1,)
        assert rel_err(half, dft_oracle(x, inverse=True)[: n // 2 + 1]) < 1e-10

    @pytest.mark.parametrize("n", SIZES)
    def test_hermitian_forward_is_full_transform(self, n, rng):
        # the channels of a real frame are conjugate-symmetric; hfft of
        # their lower half is the forward transform of all N, which is real
        channels = dft_oracle(rng.standard_normal(n), inverse=True)
        out = hermitian_forward(channels[: n // 2 + 1], n)
        assert out.dtype == float
        assert rel_err(out, dft_oracle(channels)) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 20, 64, 1280])
    def test_half_width_round_trip(self, n, rng):
        x = rng.standard_normal(n)
        assert np.max(np.abs(hermitian_forward(real_inverse(x), n) - x)) < 1e-10
