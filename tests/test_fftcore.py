"""Transform convention tests: the numpy.fft calls the banks make.

``AnalysisBank`` applies ``np.fft.ifft(x, axis=1)`` (inverse kernel, 1/N
scaling) and ``SynthesisBank`` applies ``np.fft.fft(x, axis=1)`` (forward
kernel, unscaled) to (frames, N) arrays.  These tests pin that convention
against an independent O(N^2) DFT, at the channelizer sizes and at sizes
with large prime factors.
"""

import numpy as np
import pytest


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
    return np.fft.fft(np.asarray(x, dtype=complex)[None, :], axis=1)[0]


def inverse(x):
    """The analysis-bank transform, applied to one frame."""
    return np.fft.ifft(np.asarray(x, dtype=complex)[None, :], axis=1)[0]


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
        np.fft.fft(x, axis=1)
        np.fft.ifft(x, axis=1)
        np.testing.assert_array_equal(x, keep)

    def test_batch_matches_single(self, rng):
        xs = rng.standard_normal((7, 20)) + 1j * rng.standard_normal((7, 20))
        batch = np.fft.ifft(xs, axis=1)
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
        # numpy's composite-size FFT against the explicit DFT, both kernels
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert rel_err(forward(x), dft_oracle(x)) < 1e-10
        assert rel_err(inverse(x), dft_oracle(x, inverse=True)) < 1e-10
