"""Pair sampling, the optimization loop, Adam updates, and checkpointing.

Training is fully deterministic: model initialization comes from the model
seed, and each step draws its batch from a counter-derived generator, so
resuming from a checkpoint at step t replays exactly the same pairs the
uninterrupted run would have seen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from . import losses as ls
from . import numerics as nm
from .data import TimeLapseScene, normalize
from .derainnet import (
    DerainModel,
    ModelConfig,
    build_model,
    derain,
    desk_model_config,
    paper_model_config,
)
from .losses import LossConfig, LossReport
from .numerics import Graph, Tensor, backward

CHECKPOINT_MAGIC = b"RSPU2\n"
DIGEST_BYTES = 32  # sha256
_SAMPLER_STREAM = 0x5A17


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint file."""


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or inconsistent state)."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 16
    steps: int = 1000
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    checkpoint_every: int = 500
    log_every: int = 10

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size < 1 or self.steps < 0 or self.seed < 0:
            raise ValueError("batch_size must be >= 1, steps and seed nonnegative")
        if self.checkpoint_every < 0 or self.log_every < 0:
            raise ValueError("checkpoint_every and log_every must be nonnegative (0 turns them off)")


def desk_train_config(seed: int = 0, steps: int = 2000) -> TrainConfig:
    """Desk-scale preset: 32x32 scenes, batch of 4 pairs."""
    return TrainConfig(batch_size=4, steps=steps, seed=seed, model=desk_model_config(seed))


def paper_train_config(seed: int = 0, steps: int = 100000) -> TrainConfig:
    """Published setup: lr 1e-4, batch 16, 256x256, C=128, M=20."""
    return TrainConfig(batch_size=16, steps=steps, seed=seed, model=paper_model_config(seed))


def adam_update(
    value: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam step; returns (new_value, new_m, new_v)."""
    if grad.shape != value.shape:
        raise ValueError(f"adam_update: grad shape {grad.shape} != param shape {value.shape}")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class AdamOptimizer:
    """Per-parameter first/second moment buffers plus a step counter."""

    def __init__(
        self,
        params: dict[str, Tensor],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        self.step_count += 1
        for name, p in params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.data, self.m[name], self.v[name] = adam_update(
                p.data, grad, self.m[name], self.v[name],
                self.step_count, lr, self.beta1, self.beta2, self.eps,
            )


def sample_pair(dataset: list[TimeLapseScene], rng: np.random.Generator):
    """Uniform scene, then two distinct frame indices from it."""
    if not dataset:
        raise ValueError("cannot sample from an empty dataset")
    scene = dataset[int(rng.integers(len(dataset)))]
    t = len(scene.frames)
    if t < 2:
        raise ValueError(f"scene {scene.scene_id} has {t} frame(s); need at least 2")
    w = int(rng.integers(t))
    v = int(rng.integers(t - 1))
    if v >= w:
        v += 1
    return scene.frames[w], scene.frames[v], scene.scene_id


def pair_terms(model: DerainModel, frame_w: np.ndarray, frame_v: np.ndarray, loss_cfg: LossConfig):
    """The training objective's terms for one pair of [0, 1] frames of a scene.

    Returns (coh, div, b, c, s) for :func:`losses.total_loss`; the per-frame
    terms are averaged over both frames. Training and the end-to-end gradient
    check both evaluate the objective through this function.
    """
    x_w = normalize(frame_w)
    x_v = normalize(frame_v)
    out_w = derain(model, x_w)
    out_v = derain(model, x_v)
    bg = ls.background_consistency(out_w.y_hat, out_v.y_hat)
    cross = nm.mul(
        nm.add(ls.cross_consistency(x_w, out_v.y_hat), ls.cross_consistency(x_v, out_w.y_hat)), 0.5
    )
    self_c = nm.mul(
        nm.add(
            ls.self_consistency(x_w, out_w.y_hat, out_w.r_hat),
            ls.self_consistency(x_v, out_v.y_hat, out_v.r_hat),
        ),
        0.5,
    )
    coh = nm.mul(
        nm.add(
            ls.cohesion_loss(out_w.features, out_w.prototypes, out_w.relevance),
            ls.cohesion_loss(out_v.features, out_v.prototypes, out_v.relevance),
        ),
        0.5,
    )
    divergence = nm.mul(
        nm.add(
            ls.divergence_loss(out_w.prototypes, loss_cfg.delta),
            ls.divergence_loss(out_v.prototypes, loss_cfg.delta),
        ),
        0.5,
    )
    return coh, divergence, bg, cross, self_c


def _mean_terms(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = nm.add(acc, t)
    return nm.mul(acc, 1.0 / len(terms))


def train_step(model: DerainModel, opt: AdamOptimizer, pairs, cfg: TrainConfig) -> LossReport:
    """Forward both frames of every pair, backpropagate, take one Adam step.

    ``pairs`` is a batch: a list of (frame_w, frame_v, scene_id) samples.
    """
    graph = Graph()
    try:
        with graph:
            per_term: list[list[Tensor]] = [[], [], [], [], []]
            for frame_w, frame_v, _ in pairs:
                for bucket, term in zip(per_term, pair_terms(model, frame_w, frame_v, cfg.loss)):
                    bucket.append(term)
            total, report = ls.total_loss(*(_mean_terms(bucket) for bucket in per_term), cfg.loss)
        model.zero_grad()
        backward(total, graph)
    except ValueError as exc:
        raise TrainingError(f"aborting at optimizer step {opt.step_count + 1}: {exc}") from exc
    opt.step(model.parameters(), cfg.learning_rate)
    return report


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SAMPLER_STREAM, step])


def train(
    dataset: list[TimeLapseScene],
    cfg: TrainConfig,
    *,
    model: DerainModel | None = None,
    opt: AdamOptimizer | None = None,
    checkpoint_path=None,
    log_path=None,
) -> tuple[DerainModel, list[LossReport]]:
    """Run the optimization loop for ``cfg.steps`` total steps.

    Passing a model/optimizer pair restored by :func:`load_checkpoint` resumes
    at ``opt.step_count`` and reproduces the uninterrupted run exactly.
    """
    if model is None:
        model = build_model(cfg.model)
    if opt is None:
        opt = AdamOptimizer(model.parameters())
    start = opt.step_count
    history: list[LossReport] = []
    log_lines: list[str] = [] if start else [LossReport.HEADER + "\n"]
    for step in range(start, cfg.steps):
        rng = _step_rng(cfg.seed, step)
        pairs = [sample_pair(dataset, rng) for _ in range(cfg.batch_size)]
        report = train_step(model, opt, pairs, cfg)
        history.append(report)
        if cfg.log_every and (step % cfg.log_every == 0 or step == cfg.steps - 1):
            log_lines.append(report.line(step) + "\n")
        if checkpoint_path and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(model, opt, checkpoint_path)
    if checkpoint_path:
        save_checkpoint(model, opt, checkpoint_path)
    if log_path:
        mode = "a" if start else "w"
        with open(log_path, mode) as fh:
            fh.writelines(log_lines)
    return model, history


# -- checkpoint format (magic RSPU2) -----------------------------------------
#
#   RSPU2\n
#   config input_size=HxW k=v ...\n   every ModelConfig field, in field order
#   adam beta1=.. beta2=.. eps=.. step=..\n
#   tensors <N>\n
#   <name> <d0>x<d1>x... <offset>\n   (offset into the data section)
#   data <total_bytes>\n
#   raw little-endian float64 blocks
#   sha256 of every byte above (32 bytes)


def _config_line(cfg: ModelConfig) -> str:
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(ModelConfig)}
    values["input_size"] = "x".join(str(d) for d in cfg.input_size)
    return "config " + " ".join(f"{k}={v}" for k, v in values.items()) + "\n"


def _checkpoint_entries(model: DerainModel, opt: AdamOptimizer) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {}
    params = model.parameters()
    for name, p in params.items():
        entries[f"param.{name}"] = p.data
    for name in params:
        entries[f"adam.m.{name}"] = opt.m[name]
    for name in params:
        entries[f"adam.v.{name}"] = opt.v[name]
    return entries


def save_checkpoint(model: DerainModel, opt: AdamOptimizer, path) -> None:
    """Write the full training state, sealed by its sha256; the round trip is byte-exact."""
    entries = _checkpoint_entries(model, opt)
    manifest = []
    blobs = []
    offset = 0
    for name, arr in entries.items():
        shape = "x".join(str(d) for d in arr.shape)
        manifest.append(f"{name} {shape} {offset}\n")
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = (
        _config_line(model.config)
        + f"adam beta1={opt.beta1!r} beta2={opt.beta2!r} eps={opt.eps!r} step={opt.step_count}\n"
        + f"tensors {len(manifest)}\n"
        + "".join(manifest)
        + f"data {offset}\n"
    )
    digest = hashlib.sha256()
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as fh:
        for part in (CHECKPOINT_MAGIC, header.encode("ascii"), *blobs):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())
    os.replace(tmp, path)


def _parse_kv(line: str, prefix: str) -> dict[str, str]:
    parts = line.split()
    if not parts or parts[0] != prefix:
        raise CheckpointError(f"expected '{prefix}' line, got {line!r}")
    out = {}
    for item in parts[1:]:
        key, _, value = item.partition("=")
        if not value:
            raise CheckpointError(f"malformed '{prefix}' field {item!r}")
        out[key] = value
    return out


def load_checkpoint(path) -> tuple[DerainModel, AdamOptimizer]:
    """Rebuild the model and optimizer saved by :func:`save_checkpoint`.

    Any other magic, a length other than header + data + digest, a digest
    mismatch or a malformed header raises :class:`CheckpointError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        magic = blob[: len(CHECKPOINT_MAGIC)]
        raise CheckpointError(f"bad checkpoint magic {magic!r} in {path!r}; expected {CHECKPOINT_MAGIC!r}")
    try:
        cfg, adam_fields, arrays = _parse_checkpoint(blob)
    except CheckpointError:
        raise
    except (ValueError, KeyError, IndexError) as exc:  # UnicodeDecodeError is a ValueError
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from None

    model = build_model(cfg)
    params = model.parameters()
    opt = AdamOptimizer(params, beta1=adam_fields["beta1"], beta2=adam_fields["beta2"], eps=adam_fields["eps"])
    opt.step_count = adam_fields["step"]
    for name, p in params.items():
        for kind, target in (("param", None), ("adam.m", opt.m), ("adam.v", opt.v)):
            key = f"{kind}.{name}"
            if key not in arrays:
                raise CheckpointError(f"checkpoint is missing tensor {key}")
            if arrays[key].shape != p.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {key}: manifest {arrays[key].shape}, model {p.data.shape}"
                )
            if target is None:
                p.data = arrays[key]
            else:
                target[name] = arrays[key]
    if len(arrays) != 3 * len(params):
        raise CheckpointError("checkpoint contains tensors unknown to this architecture")
    return model, opt


def _parse_checkpoint(blob: bytes) -> tuple[ModelConfig, dict, dict[str, np.ndarray]]:
    """Model config, Adam fields and named arrays from a file that starts with the magic.

    The length and the digest are checked before any array is read.
    """
    header_end = _find_data_line(blob)
    lines = blob[len(CHECKPOINT_MAGIC) : header_end].decode("ascii").splitlines()
    data_bytes = int(lines[-1].split()[1])
    sealed = header_end + data_bytes
    if len(blob) != sealed + DIGEST_BYTES:
        problem = "truncated" if len(blob) < sealed + DIGEST_BYTES else "overlong"
        raise CheckpointError(
            f"{problem} checkpoint: header, {data_bytes} data bytes and digest make "
            f"{sealed + DIGEST_BYTES} bytes, found {len(blob)}"
        )
    if hashlib.sha256(memoryview(blob)[:sealed]).digest() != blob[sealed:]:
        raise CheckpointError("checkpoint digest mismatch: the file is corrupt")

    cfg_fields = _parse_kv(lines[0], "config")
    names = [f.name for f in dataclasses.fields(ModelConfig)]
    if list(cfg_fields) != names:
        raise CheckpointError(f"config line names {list(cfg_fields)}, expected {names}")
    h, w = cfg_fields.pop("input_size").split("x")
    cfg = ModelConfig(input_size=(int(h), int(w)), **{k: int(v) for k, v in cfg_fields.items()})
    raw_adam = _parse_kv(lines[1], "adam")
    adam_fields = {key: float(raw_adam[key]) for key in ("beta1", "beta2", "eps")}
    adam_fields["step"] = int(raw_adam["step"])
    count_parts = lines[2].split()
    if len(count_parts) != 2 or count_parts[0] != "tensors" or not count_parts[1].isdigit():
        raise CheckpointError(f"malformed tensors line {lines[2]!r}")
    n_tensors = int(count_parts[1])
    if len(lines) != 3 + n_tensors + 1:
        raise CheckpointError(f"manifest lists {n_tensors} tensors but header has {len(lines) - 4} entries")

    arrays: dict[str, np.ndarray] = {}
    for line in lines[3:-1]:
        parts = line.split()
        if len(parts) != 3:
            raise CheckpointError(f"malformed manifest entry {line!r}")
        name, shape_str, offset_str = parts
        shape = tuple(int(d) for d in shape_str.split("x"))
        offset = int(offset_str)
        count = int(np.prod(shape))
        if offset < 0 or offset + 8 * count > data_bytes:
            raise CheckpointError(f"manifest entry {name} overruns the data section")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=header_end + offset).reshape(shape).copy()
    return cfg, adam_fields, arrays


def _find_data_line(body: bytes) -> int:
    """Byte offset where the raw data section starts (just past the data line)."""
    pos = 0
    while True:
        nl = body.find(b"\n", pos)
        if nl < 0:
            raise CheckpointError("truncated checkpoint header")
        line = body[pos : nl]
        if line.startswith(b"data "):
            return nl + 1
        pos = nl + 1
