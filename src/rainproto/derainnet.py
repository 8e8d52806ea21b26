"""U-shaped encoder-decoder de-raining network with the prototype unit in the middle.

The encoder stacks 3x3 conv blocks with 2x2 max pooling; the decoder mirrors
it with stride-2 transposed convolutions and channel-concatenated skips. The
network predicts the rain layer and the de-rained image is the clamped
difference, so a zero-initialized final layer starts as the identity de-rainer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .rspu import AttentionBank, rspu_forward


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    The prototype unit works on the encoder's output: at the bottleneck after
    ``depth`` pooling stages, so at full input resolution exactly when
    ``depth`` is 0, with ``feature_channels`` channels.
    """

    input_size: tuple[int, int] = (32, 32)
    base_channels: int = 8
    depth: int = 2
    prototype_count: int = 4
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.input_size, int):
            self.input_size = (self.input_size, self.input_size)
        self.input_size = (int(self.input_size[0]), int(self.input_size[1]))
        h, w = self.input_size
        if h < 1 or w < 1 or self.base_channels < 1:
            raise ValueError(f"input size {h}x{w} and base_channels {self.base_channels} must be positive")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if h % (1 << self.depth) or w % (1 << self.depth):
            raise ValueError(f"input size {h}x{w} not divisible by 2^{self.depth}")
        if self.prototype_count < 2:
            raise ValueError(f"prototype_count must be at least 2, got {self.prototype_count}")

    @property
    def stage_channels(self) -> list[int]:
        """Encoder block widths; channels double per pooling stage."""
        return [self.base_channels << i for i in range(max(self.depth, 1))]

    @property
    def feature_channels(self) -> int:
        return self.stage_channels[-1]


def desk_model_config(seed: int = 0) -> ModelConfig:
    """Small configuration for fast experiments on 32x32 scenes."""
    return ModelConfig(input_size=(32, 32), base_channels=8, depth=2, prototype_count=4, seed=seed)


def paper_model_config(seed: int = 0) -> ModelConfig:
    """Full-scale configuration: 256x256 features, 128 channels, 20 prototypes."""
    return ModelConfig(input_size=(256, 256), base_channels=128, depth=0, prototype_count=20, seed=seed)


def _conv_scratch(h: int, w: int, cin: int) -> int:
    """Elements a 3x3, stride-1, padded convolution of an [h, w, cin] input
    holds beyond its operands and their gradients, in forward or backward.

    That is its whole patch matrix when it fits one block. A larger one is
    built a row block at a time in forward, and backward works one kernel tap
    at a time, so then it is the larger of one row block and one tap's
    [h, w, cin] buffer.
    """
    blocks = nm._patch_blocks(h, w, (3, 3, cin, 1), 1, 1)
    return max(-(-h // blocks) * w * 9 * cin, h * w * cin)


def taped_step_bytes(model: ModelConfig, frames: int) -> int:
    """Estimated peak bytes of one taped training step over ``frames`` frames.

    Counts each per-pixel activation of every frame (RSPU arrays included)
    twice, its value and its gradient, plus the scratch of the convolution
    that needs the most (``_conv_scratch``): each convolution drops its
    scratch before the next op runs, so one is alive at a time in the whole
    step. The interpreter, the dataset and the other temporaries of backward
    come on top.
    """
    h, w = model.input_size
    chans = model.stage_channels
    scratch = acts = 0
    cin = 3
    for i, c in enumerate(chans):  # two conv + relu per stage, then a pool
        px = (h >> i) * (w >> i)
        scratch = max(scratch, _conv_scratch(h >> i, w >> i, max(cin, c)))
        acts += px * 4 * c + (px * c // 4 if i < model.depth else 0)
        cin = c
    px = (h >> model.depth) * (w >> model.depth)
    # RSPU: 7 arrays of one score per head, then readout, fusion and cohesion's two
    acts += px * (7 * model.prototype_count + 4 * model.feature_channels)
    for stage in range(model.depth, 0, -1):  # upsample, concat, conv + relu
        px = (h >> (stage - 1)) * (w >> (stage - 1))
        c_s, c_out = chans[stage - 1], chans[max(stage - 2, 0)]
        scratch = max(scratch, _conv_scratch(h >> (stage - 1), w >> (stage - 1), 2 * c_s))
        acts += px * (3 * c_s + 2 * c_out)
    scratch = max(scratch, _conv_scratch(h, w, chans[0]))
    acts += h * w * 3 * 10  # final conv, y_hat and the consistency losses
    return 8 * (scratch + 2 * acts * frames)


@dataclass
class ConvLayer:
    kernel: Tensor
    bias: Tensor


@dataclass
class DecoderStage:
    up_kernel: Tensor  # transposed conv, no bias
    conv: ConvLayer


@dataclass
class DerainModel:
    config: ModelConfig
    encoder: list[tuple[ConvLayer, ConvLayer]]
    bank: AttentionBank
    decoder: list[DecoderStage]  # deepest stage first
    final: ConvLayer

    def parameters(self) -> dict[str, Tensor]:
        """All trainable tensors in a fixed, name-addressable order."""
        params: dict[str, Tensor] = {}
        for i, (c1, c2) in enumerate(self.encoder, start=1):
            params[f"enc{i}.conv1.kernel"] = c1.kernel
            params[f"enc{i}.conv1.bias"] = c1.bias
            params[f"enc{i}.conv2.kernel"] = c2.kernel
            params[f"enc{i}.conv2.bias"] = c2.bias
        params["bank.weight"] = self.bank.weight
        params["bank.bias"] = self.bank.bias
        for stage, dec in zip(range(self.config.depth, 0, -1), self.decoder):
            params[f"dec{stage}.up.kernel"] = dec.up_kernel
            params[f"dec{stage}.conv.kernel"] = dec.conv.kernel
            params[f"dec{stage}.conv.bias"] = dec.conv.bias
        params["final.kernel"] = self.final.kernel
        params["final.bias"] = self.final.bias
        return params

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.grad = None


@dataclass
class DerainResult:
    """Everything one forward pass produces that training needs."""

    y_hat: Tensor
    r_hat: Tensor
    prototypes: Tensor
    relevance: Tensor
    features: Tensor


def _he_kernel(rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int) -> Tensor:
    std = np.sqrt(2.0 / (kh * kw * cin))
    return Tensor(rng.normal(0.0, std, size=(kh, kw, cin, cout)), requires_grad=True)


def _conv_layer(rng: np.random.Generator, cin: int, cout: int) -> ConvLayer:
    return ConvLayer(
        kernel=_he_kernel(rng, 3, 3, cin, cout),
        bias=Tensor(np.zeros(cout), requires_grad=True),
    )


def build_model(cfg: ModelConfig) -> DerainModel:
    """Deterministically initialize a model from ``cfg.seed``.

    Conv kernels use He fan-in scaling with zero biases; the final
    rain-prediction layer is zero-initialized so the untrained network is the
    identity de-rainer.
    """
    rng = np.random.default_rng(cfg.seed)
    channels = cfg.stage_channels

    encoder = []
    prev = 3
    for c in channels:
        encoder.append((_conv_layer(rng, prev, c), _conv_layer(rng, c, c)))
        prev = c

    bank = AttentionBank.create(cfg.feature_channels, cfg.prototype_count, rng)

    decoder = []
    for stage in range(cfg.depth, 0, -1):
        c_s = channels[stage - 1]
        c_out = channels[stage - 2] if stage >= 2 else channels[0]
        up = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / (9 * c_s)), size=(3, 3, c_s, c_s)),
            requires_grad=True,
        )
        decoder.append(DecoderStage(up_kernel=up, conv=_conv_layer(rng, 2 * c_s, c_out)))

    final = ConvLayer(
        kernel=Tensor(np.zeros((3, 3, channels[0], 3)), requires_grad=True),
        bias=Tensor(np.zeros(3), requires_grad=True),
    )
    return DerainModel(config=replace(cfg), encoder=encoder, bank=bank, decoder=decoder, final=final)


def encode(model: DerainModel, x: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Run the encoder; returns bottleneck features and pre-pool skip activations."""
    h0, w0 = model.config.input_size
    if x.shape != (h0, w0, 3):
        raise ValueError(f"encode: expected input of shape {(h0, w0, 3)}, got {x.shape}")
    h = x
    skips: list[Tensor] = []
    pools = model.config.depth
    for i, (c1, c2) in enumerate(model.encoder):
        h = nm.relu(nm.conv2d(h, c1.kernel, c1.bias, stride=1, padding=1))
        h = nm.relu(nm.conv2d(h, c2.kernel, c2.bias, stride=1, padding=1))
        if i < pools:
            skips.append(h)
            h = nm.maxpool2d(h)
    return h, skips


def decode(model: DerainModel, fused: Tensor, skips: list[Tensor]) -> Tensor:
    """Upsample fused features back to input resolution and predict the rain layer.

    The final conv has no activation; the rain residual may take any sign.
    """
    if len(skips) != len(model.decoder):
        raise ValueError(f"decode: {len(skips)} skips for {len(model.decoder)} decoder stages")
    d = fused
    for dec, skip in zip(model.decoder, reversed(skips)):
        d = nm.conv_transpose2d(d, dec.up_kernel)
        if d.shape[:2] != skip.shape[:2]:
            raise ValueError(f"decode: upsampled {d.shape} does not align with skip {skip.shape}")
        d = nm.concat([d, skip], axis=2)
        d = nm.relu(nm.conv2d(d, dec.conv.kernel, dec.conv.bias, stride=1, padding=1))
    return nm.conv2d(d, model.final.kernel, model.final.bias, stride=1, padding=1)


def derain(model: DerainModel, x: Tensor) -> DerainResult:
    """Full forward pass on one [-1, 1] normalized image.

    r_hat is the decoded rain layer; y_hat = clamp(x - r_hat, [-1, 1]). The
    clamp keeps y_hat a valid image and gives the self-consistency loss
    nonzero effect once predictions saturate.
    """
    if np.abs(x.data).max() > 1.0 + 1e-9:
        raise ValueError("derain expects input normalized to [-1, 1]")
    features, skips = encode(model, x)
    fused, prototypes, relevance = rspu_forward(features, model.bank)
    r_hat = decode(model, fused, skips)
    y_hat = nm.clamp(nm.sub(x, r_hat), -1.0, 1.0)
    return DerainResult(y_hat=y_hat, r_hat=r_hat, prototypes=prototypes, relevance=relevance, features=features)
