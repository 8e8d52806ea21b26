import math

import numpy as np
import pytest

from rainproto.metrics import psnr, ssim

# luminance term with zero variance: (2*mu1*mu2 + C1) / (mu1^2 + mu2^2 + C1)
CONSTANT_SSIM_CLOSED_FORM = (2 * 0.2 * 0.8 + 1e-4) / (0.2**2 + 0.8**2 + 1e-4)


def rand_img(shape, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, shape)


def direct_window_ssim(a, b):
    """SSIM with the full 11x11 Gaussian window applied at every valid position."""
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5**2))
    window = np.outer(g, g) / g.sum() ** 2
    view = np.lib.stride_tricks.sliding_window_view

    def filt(img):
        return np.einsum("hwcij,ij->hwc", view(img, (11, 11), axis=(0, 1)), window)

    mu1, mu2 = filt(a), filt(b)
    s11, s22, s12 = filt(a * a) - mu1**2, filt(b * b) - mu2**2, filt(a * b) - mu1 * mu2
    c1, c2 = 0.01**2, 0.03**2
    ratio = (2 * mu1 * mu2 + c1) * (2 * s12 + c2) / ((mu1**2 + mu2**2 + c1) * (s11 + s22 + c2))
    return float(np.mean(ratio.mean(axis=(0, 1))))


class TestPsnr:
    def test_identical_images_infinite(self):
        a = rand_img((16, 16, 3), 0)
        assert math.isinf(psnr(a, a.copy()))

    def test_uniform_tenth_error_is_20db(self):
        a = np.full((8, 8, 3), 0.4)
        assert psnr(a, a + 0.1) == pytest.approx(20.0, abs=1e-9)

    def test_uniform_full_error_is_0db(self):
        a = np.zeros((8, 8, 3))
        assert psnr(a, a + 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decreasing_in_mse(self):
        a = rand_img((12, 12, 3), 1)
        values = [psnr(a, np.clip(a + eps, 0, 1)) for eps in (0.01, 0.03, 0.1, 0.3)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(rand_img((4, 4, 3), 2), rand_img((4, 5, 3), 3))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a = rand_img((6, 6, 3), 5)
        b = rand_img((6, 6, 3), 6)
        perm = rng.permutation(36)
        ap = a.reshape(36, 3)[perm].reshape(6, 6, 3)
        bp = b.reshape(36, 3)[perm].reshape(6, 6, 3)
        assert psnr(ap, bp) == pytest.approx(psnr(a, b), abs=1e-12)


class TestSsim:
    def test_self_similarity_is_one(self):
        a = rand_img((16, 16, 3), 7)
        assert ssim(a, a.copy()) == 1.0

    def test_constant_images_closed_form(self):
        a = np.full((16, 16, 3), 0.2)
        b = np.full((16, 16, 3), 0.8)
        assert ssim(a, b) == pytest.approx(CONSTANT_SSIM_CLOSED_FORM, abs=1e-12)
        # the closed form itself evaluates near 0.4707
        assert CONSTANT_SSIM_CLOSED_FORM == pytest.approx(0.4707, abs=2e-4)

    def test_symmetry(self):
        a = rand_img((20, 20, 3), 8)
        b = rand_img((20, 20, 3), 9)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_anti_correlated_images_negative(self):
        yy, xx = np.mgrid[0:24, 0:24]
        checker = 0.5 + 0.3 * ((yy + xx) % 2 * 2.0 - 1.0)  # contrast-rich checker around 0.5
        a = np.repeat(checker[:, :, None], 3, axis=2)
        b = 1.0 - a
        assert ssim(a, b) < 0.0

    def test_image_smaller_than_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ssim(rand_img((8, 8, 3), 10), rand_img((8, 8, 3), 11))

    @pytest.mark.parametrize("size", [32, 256])
    def test_matches_direct_window(self, size):
        a = rand_img((size, size, 3), 300 + size)
        b = np.clip(a + np.random.default_rng(size).normal(0.0, 0.1, a.shape), 0.0, 1.0)
        assert ssim(a, b) == pytest.approx(direct_window_ssim(a, b), abs=1e-12)

    def test_in_valid_range(self):
        for seed in range(10):
            a = rand_img((14, 14, 3), 100 + seed)
            b = rand_img((14, 14, 3), 200 + seed)
            assert -1.0 <= ssim(a, b) <= 1.0

