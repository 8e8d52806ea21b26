"""Plain-numpy reference computations the benchmark checks the program against.

Nothing here imports ``rainproto.numerics``: convolutions are direct 3x3
shifted sums, pooling is an explicit 2x2 max, the transposed convolution is an
explicit per-pixel stride-2 scatter, and the prototype unit follows the
formulas in the docstrings of ``rainproto.rspu``. PSNR is the closed form and
SSIM filters with a separable Gaussian instead of the program's 11x11 einsum.
"""

from __future__ import annotations

import math

import numpy as np

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def _conv3x3(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1, zero-padding-1 correlation: sum over the 9 shifted copies of x."""
    h, w, c = x.shape
    padded = np.zeros((h + 2, w + 2, c))
    padded[1:-1, 1:-1] = x
    out = np.zeros((h, w, kernel.shape[3])) + bias
    for i in range(3):
        for j in range(3):
            out += padded[i : i + h, j : j + w] @ kernel[i, j]
    return out


def _maxpool2x2(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(x[0::2, 0::2], x[0::2, 1::2]), np.maximum(x[1::2, 0::2], x[1::2, 1::2]))


def _conv_transpose3x3_s2(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Each input pixel scatters kernel[i, j] @ x into output pixel (2y + i - 1, 2x + j - 1).

    The kernel is [3, 3, Cout, Cin]; the output is [2H, 2W, Cout].
    """
    h, w, _ = x.shape
    out = np.zeros((2 * h + 2, 2 * w + 2, kernel.shape[2]))  # one border pixel on each side
    for y in range(h):
        for xx in range(w):
            out[2 * y : 2 * y + 3, 2 * xx : 2 * xx + 3] += kernel @ x[y, xx]
    return out[1:-1, 1:-1]


def _prototype_unit(feat: np.ndarray, bank_w: np.ndarray, bank_b: np.ndarray):
    """Returns (fused [H, W, C], prototypes [M, C], relevance [K, M])."""
    h, w, c = feat.shape
    xf = feat.reshape(h * w, c)
    z = xf @ bank_w[0, 0] + bank_b
    weights = 0.5 * (1.0 + np.tanh(0.5 * z))  # sigmoid
    prototypes = (weights / weights.sum(axis=0)).T @ xf
    logits = xf @ prototypes.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    relevance = e / e.sum(axis=1, keepdims=True)
    fused = xf + relevance @ prototypes
    return fused.reshape(h, w, c), prototypes, relevance


def forward(params: dict[str, np.ndarray], depth: int, x: np.ndarray) -> dict:
    """Reference forward pass of the de-raining network on one [-1, 1] image.

    ``params`` maps the model's parameter names to arrays. Returns r_hat,
    y_hat, the bottleneck features, the prototypes, the relevance rows, and
    ``branches``: the relu masks and the clamp mask, which change only where
    the network is not differentiable.
    """
    branches = []

    def relu(z):
        branches.append(z > 0.0)
        return np.where(branches[-1], z, 0.0)

    h = x
    skips = []
    stage = 1
    while f"enc{stage}.conv1.kernel" in params:
        h = relu(_conv3x3(h, params[f"enc{stage}.conv1.kernel"], params[f"enc{stage}.conv1.bias"]))
        h = relu(_conv3x3(h, params[f"enc{stage}.conv2.kernel"], params[f"enc{stage}.conv2.bias"]))
        if stage <= depth:
            skips.append(h)
            h = _maxpool2x2(h)
        stage += 1
    fused, prototypes, relevance = _prototype_unit(h, params["bank.weight"], params["bank.bias"])
    d = fused
    for stage in range(depth, 0, -1):
        d = _conv_transpose3x3_s2(d, params[f"dec{stage}.up.kernel"])
        d = np.concatenate([d, skips[stage - 1]], axis=2)
        d = relu(_conv3x3(d, params[f"dec{stage}.conv.kernel"], params[f"dec{stage}.conv.bias"]))
    r_hat = _conv3x3(d, params["final.kernel"], params["final.bias"])
    branches.append(np.abs(x - r_hat) > 1.0)
    return {
        "r_hat": r_hat,
        "y_hat": np.clip(x - r_hat, -1.0, 1.0),
        "features": h,
        "prototypes": prototypes,
        "relevance": relevance,
        "branches": branches,
    }


def pair_loss(params: dict[str, np.ndarray], depth: int, pairs, weights) -> tuple[float, list[np.ndarray]]:
    """The training objective of one step, written from the paper's formula.

    total = b + lambda_c c + lambda_s s + lambda_f (coh + lambda_a div), each
    term averaged over both frames of a pair and then over the pairs. Returns
    the total and every branch the objective took: relu, clamp, the sign
    inside each absolute value, the divergence hinge and the cohesion argmax.
    Between two points that take the same branches the objective is smooth.
    The self-consistency residual is left out: it is exactly 0 off the clamp
    mask, where its sign is rounding noise.
    """
    sums = np.zeros(5)  # coh, div, b, c, s
    branches = []
    for frame_w, frame_v, _ in pairs:
        x_w, x_v = 2.0 * frame_w - 1.0, 2.0 * frame_v - 1.0
        out_w, out_v = forward(params, depth, x_w), forward(params, depth, x_v)
        coh = div = 0.0
        for out in (out_w, out_v):
            feat = out["features"].reshape(-1, out["prototypes"].shape[1])
            nearest = out["relevance"].argmax(axis=1)
            coh += 0.5 * np.mean(np.sqrt(np.sum((feat - out["prototypes"][nearest]) ** 2, axis=1)))
            p = out["prototypes"]
            dist = np.sqrt(np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=2))
            hinge = weights.delta - dist[~np.eye(p.shape[0], dtype=bool)]
            div += 0.5 * np.mean(np.maximum(hinge, 0.0))
            branches += [*out["branches"], nearest, hinge > 0.0]
        b_diff = out_w["y_hat"] - out_v["y_hat"]
        c_diffs = (x_w - out_v["y_hat"], x_v - out_w["y_hat"])
        b = np.mean(np.abs(b_diff))
        c = 0.5 * sum(np.mean(np.abs(d)) for d in c_diffs)
        s = 0.5 * sum(np.mean(np.abs(x - o["y_hat"] - o["r_hat"])) for x, o in ((x_w, out_w), (x_v, out_v)))
        branches += [b_diff > 0.0, *(d > 0.0 for d in c_diffs)]
        sums += (coh, div, b, c, s)
    coh, div, b, c, s = sums / len(pairs)
    total = b + weights.lambda_c * c + weights.lambda_s * s + weights.lambda_f * (coh + weights.lambda_a * div)
    return float(total), branches


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 log10(peak^2 / MSE) with peak 1."""
    mse = float(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2))
    return math.inf if mse == 0.0 else -10.0 * math.log10(mse)


def _gaussian_1d(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    offsets = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-0.5 * (offsets / sigma) ** 2)
    return g / g.sum()


def _blur_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = g.size
    rows = sum(g[i] * img[i : img.shape[0] - n + 1 + i] for i in range(n))
    return sum(g[j] * rows[:, j : rows.shape[1] - n + 1 + j] for j in range(n))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over valid 11x11 Gaussian (sigma 1.5) windows, channels averaged."""
    g = _gaussian_1d()
    per_channel = []
    for ch in range(a.shape[2]):
        x, y = a[:, :, ch], b[:, :, ch]
        mx, my = _blur_valid(x, g), _blur_valid(y, g)
        vx = _blur_valid(x * x, g) - mx * mx
        vy = _blur_valid(y * y, g) - my * my
        cov = _blur_valid(x * y, g) - mx * my
        num = (2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
        per_channel.append(np.mean(num / den))
    return float(np.mean(per_channel))
