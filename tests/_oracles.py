"""Independent references for the prototype unit and the convolution.

The prototype unit's weight/prototype/relevance/readout chain is written with
plain Python loops and math.exp, sharing nothing with the tensor path it
checks. The convolution references are im2col with one GEMM over the whole
patch matrix: the forward pass that ``numerics.conv2d`` splits into row
blocks, and the backward pass that it works one kernel tap at a time.
"""

import math

import numpy as np


def rspu_reference(x: np.ndarray, bank_weight: np.ndarray, bank_bias: np.ndarray):
    """Returns (fused [H, W, C], prototypes [M, C], relevance [K, M])."""
    h, w, c = x.shape
    m = bank_weight.shape[3]
    k = h * w
    xf = x.reshape(k, c)

    weights = np.zeros((k, m))
    for ki in range(k):
        for mi in range(m):
            z = bank_bias[mi]
            for ci in range(c):
                z += bank_weight[0, 0, ci, mi] * xf[ki, ci]
            weights[ki, mi] = 1.0 / (1.0 + math.exp(-z))

    prototypes = np.zeros((m, c))
    for mi in range(m):
        denom = 0.0
        for ki in range(k):
            denom += weights[ki, mi]
        for ki in range(k):
            share = weights[ki, mi] / denom
            for ci in range(c):
                prototypes[mi, ci] += share * xf[ki, ci]

    relevance = np.zeros((k, m))
    for ki in range(k):
        logits = []
        for mi in range(m):
            dot = 0.0
            for ci in range(c):
                dot += xf[ki, ci] * prototypes[mi, ci]
            logits.append(dot)
        top = max(logits)
        exps = [math.exp(l - top) for l in logits]
        total = sum(exps)
        for mi in range(m):
            relevance[ki, mi] = exps[mi] / total

    fused = np.zeros((k, c))
    for ki in range(k):
        for ci in range(c):
            acc = xf[ki, ci]
            for mi in range(m):
                acc += relevance[ki, mi] * prototypes[mi, ci]
            fused[ki, ci] = acc
    return fused.reshape(h, w, c), prototypes, relevance


def _patches(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """The whole im2col patch matrix of [H, W, Cin]: [H', W', kh, kw, Cin]."""
    padded = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(0, 1))[::stride, ::stride]
    return np.ascontiguousarray(windows.transpose(0, 1, 3, 4, 2))


def conv2d_reference(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Correlation of [H, W, Cin] with [kh, kw, Cin, Cout] as one im2col GEMM."""
    kh, kw, cin, cout = kernel.shape
    patches = _patches(x, kh, kw, stride, padding)
    oh, ow = patches.shape[:2]
    out = patches.reshape(oh * ow, kh * kw * cin) @ kernel.reshape(kh * kw * cin, cout)
    return out.reshape(oh, ow, cout)


def conv2d_vjp_reference(x: np.ndarray, kernel: np.ndarray, g: np.ndarray, stride: int, padding: int):
    """Input and kernel gradients of ``conv2d_reference`` for output gradient ``g``.

    The input gradient is one GEMM into a patch-sized ``cols`` matrix, then
    one strided scatter-add per kernel tap into the padded input; the kernel
    gradient is ``patches.T @ g``. Returns (gx [H, W, Cin], gk like kernel).
    """
    kh, kw, cin, cout = kernel.shape
    h, w, _ = x.shape
    oh, ow = g.shape[:2]
    g2 = g.reshape(oh * ow, cout)
    cols = (g2 @ kernel.reshape(kh * kw * cin, cout).T).reshape(oh, ow, kh, kw, cin)
    gx = np.zeros((h + 2 * padding, w + 2 * padding, cin))
    for i in range(kh):
        for j in range(kw):
            gx[i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    gx = gx[padding : padding + h, padding : padding + w]
    gk = _patches(x, kh, kw, stride, padding).reshape(oh * ow, kh * kw * cin).T @ g2
    return gx, gk.reshape(kernel.shape)
