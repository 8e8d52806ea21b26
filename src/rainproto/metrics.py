"""Image quality metrics: PSNR and SSIM on [0, 1] images.

Metrics always operate on denormalized [0, 1] images, never on [-1, 1]
tensors. SSIM uses the standard 11x11 Gaussian window (sigma 1.5) with
C1 = 0.01^2 and C2 = 0.03^2 at dynamic range 1.0, valid-mode windows,
channels averaged.
"""

from __future__ import annotations

import math

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
_C1 = 0.01**2
_C2 = 0.03**2


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio with peak 1.0; identical images give inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    return g / g.sum()


def _filter_valid(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode Gaussian filter of [C, H, W] planes, as two separable 1-D passes."""
    cols = np.lib.stride_tricks.sliding_window_view(img, taps.size, axis=1) @ taps
    return np.lib.stride_tricks.sliding_window_view(cols, taps.size, axis=2) @ taps


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity over valid Gaussian windows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ValueError(f"ssim: expected [H, W, C] images, got {a.shape}")
    if min(a.shape[0], a.shape[1]) < SSIM_WINDOW:
        raise ValueError(f"ssim: image {a.shape[:2]} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    a = np.moveaxis(a, 2, 0)
    b = np.moveaxis(b, 2, 0)
    mu1 = _filter_valid(a, taps)
    mu2 = _filter_valid(b, taps)
    s11 = _filter_valid(a * a, taps) - mu1 * mu1
    s22 = _filter_valid(b * b, taps) - mu2 * mu2
    s12 = _filter_valid(a * b, taps) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + _C1) * (2.0 * s12 + _C2)
    den = (mu1 * mu1 + mu2 * mu2 + _C1) * (s11 + s22 + _C2)
    return float(np.mean(np.mean(num / den, axis=(1, 2))))  # per channel, then across channels

