"""Rain-streak prototype unit.

Per-pixel attention heads score how rain-like each encoding vector is, the
normalized scores aggregate the frame's own encoding vectors into M prototype
rows, and every pixel is re-expressed as a relevance-weighted mixture of those
prototypes. Prototypes are rebuilt from scratch on every forward pass; nothing
is stored between frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor

# Shape conventions: features are [H, W, C], attention weights [H, W, M],
# prototypes [M, C], relevance rows [K, M] with K = H * W.
AttentionWeights = Tensor
PrototypeSet = Tensor
RelevanceMap = Tensor


@dataclass
class AttentionBank:
    """M per-pixel affine heads R^C -> R, stored as a 1x1 convolution.

    weight: [1, 1, C, M], bias: [M].
    """

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.weight.data.ndim != 4 or self.weight.shape[:2] != (1, 1):
            raise ValueError(f"attention bank weight must be [1, 1, C, M], got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[3],):
            raise ValueError(f"attention bank bias shape {self.bias.shape} does not match {self.weight.shape[3]} heads")

    @property
    def channels(self) -> int:
        return self.weight.shape[2]

    @classmethod
    def create(cls, channels: int, heads: int, rng: np.random.Generator) -> "AttentionBank":
        """Zero-mean weights with variance 1/C and zero biases.

        Initial head outputs are near 0, so initial weights sit near 0.5 and
        the first prototypes are close to the feature mean instead of
        collapsing onto a few pixels.
        """
        w = rng.normal(0.0, 1.0 / np.sqrt(channels), size=(1, 1, channels, heads))
        return cls(
            weight=Tensor(w, requires_grad=True),
            bias=Tensor(np.zeros(heads), requires_grad=True),
        )


def attention_weights(x: Tensor, bank: AttentionBank) -> AttentionWeights:
    """Per-pixel rain-likelihood weights w[k, m] = sigmoid(a_m . x[k] + b_m)."""
    if x.data.ndim != 3 or x.shape[2] != bank.channels:
        raise ValueError(f"attention_weights: features {x.shape} do not match bank with C={bank.channels}")
    return nm.sigmoid(nm.conv2d(x, bank.weight, bank.bias))


def form_prototypes(x: Tensor, weights: AttentionWeights) -> PrototypeSet:
    """Aggregate encoding vectors into prototypes with normalized weights.

    p[m] = sum_k (w[k, m] / sum_k' w[k', m]) x[k], so each prototype is a
    convex combination of the frame's encoding vectors and rescaling a head's
    weights by any positive constant leaves its prototype unchanged.
    """
    if x.data.ndim != 3 or weights.data.ndim != 3 or x.shape[:2] != weights.shape[:2]:
        raise ValueError(f"form_prototypes: spatial shapes differ, features {x.shape} vs weights {weights.shape}")
    h, w, c = x.shape
    m = weights.shape[2]
    k = h * w
    xf = nm.reshape(x, (k, c))
    wf = nm.reshape(weights, (k, m))
    colsum = nm.reduce_sum(wf, axes=(0,))
    if np.any(colsum.data <= 0.0):
        raise ValueError("form_prototypes: a head has nonpositive total weight")
    normalized = nm.div(wf, nm.broadcast_to(nm.reshape(colsum, (1, m)), (k, m)))
    return nm.matmul(nm.transpose(normalized), xf)


def relevance_scores(x: Tensor, prototypes: PrototypeSet) -> RelevanceMap:
    """Per-pixel probability over prototypes: softmax over m of x[k] . p[m]."""
    if x.data.ndim != 3 or prototypes.data.ndim != 2 or x.shape[2] != prototypes.shape[1]:
        raise ValueError(f"relevance_scores: features {x.shape} vs prototypes {prototypes.shape}")
    h, w, c = x.shape
    xf = nm.reshape(x, (h * w, c))
    logits = nm.matmul(xf, nm.transpose(prototypes))
    return nm.softmax_axis(logits, axis=1)


def readout(alpha: RelevanceMap, prototypes: PrototypeSet, spatial: tuple[int, int]) -> Tensor:
    """Reconstruct the rain-streak encoding x_hat[k] = sum_m alpha[k, m] p[m]."""
    if alpha.data.ndim != 2 or alpha.shape[1] != prototypes.shape[0]:
        raise ValueError(f"readout: relevance {alpha.shape} vs prototypes {prototypes.shape}")
    h, w = spatial
    if alpha.shape[0] != h * w:
        raise ValueError(f"readout: {alpha.shape[0]} rows cannot fill spatial extent {h}x{w}")
    flat = nm.matmul(alpha, prototypes)
    return nm.reshape(flat, (h, w, prototypes.shape[1]))


def fuse(x: Tensor, x_hat: Tensor) -> Tensor:
    """Residual fusion of the original encoding with the rain-streak encoding."""
    if x.shape != x_hat.shape:
        raise ValueError(f"fuse: shape mismatch {x.shape} vs {x_hat.shape}")
    return nm.add(x, x_hat)


def rspu_forward(x: Tensor, bank: AttentionBank) -> tuple[Tensor, PrototypeSet, RelevanceMap]:
    """Full unit: weights -> prototypes -> relevance -> readout -> fusion.

    Returns the fused encoding plus the prototypes and relevance rows, which
    the feature prototype loss consumes.
    """
    w = attention_weights(x, bank)
    prototypes = form_prototypes(x, w)
    alpha = relevance_scores(x, prototypes)
    x_hat = readout(alpha, prototypes, x.shape[:2])
    return fuse(x, x_hat), prototypes, alpha
