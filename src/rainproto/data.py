"""Synthetic time-lapse scenes and portable PPM/PGM image I/O.

A scene is one procedurally generated static background plus T rainy frames
composed additively: frame_t = clip(background + rain_t, [0, 1]). Rain layers
are nonnegative by construction, matching the decomposition the
self-consistency loss encodes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


class PpmError(ValueError):
    """Malformed PPM/PGM content; messages carry the offending byte position."""


class DatasetError(ValueError):
    """Missing or inconsistent on-disk dataset layout."""


@dataclass
class RainParams:
    """Sampling ranges for one rain layer; all ranges are inclusive."""

    count: tuple[int, int] = (12, 22)
    length: tuple[float, float] = (7.0, 16.0)
    angle: tuple[float, float] = (-20.0, 20.0)  # degrees from vertical
    width: tuple[float, float] = (0.9, 1.8)
    intensity: tuple[float, float] = (0.3, 0.8)
    fog: float = 0.0

    def __post_init__(self):
        for name in ("count", "length", "angle", "width", "intensity"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"empty {name} range ({lo}, {hi})")
        for name in ("count", "length", "width", "intensity"):
            if getattr(self, name)[0] < 0:
                raise ValueError(f"{name} range must be nonnegative")
        if not (-45.0 < self.angle[0] and self.angle[1] < 45.0):
            raise ValueError("angle range must lie within (-45, 45) degrees from vertical")
        if self.fog < 0:
            raise ValueError("fog strength must be nonnegative")


# Streak counts are absolute per image and tuned for 32x32 scenes.
RAIN_PRESETS = {
    "light": RainParams(count=(5, 10), length=(5.0, 12.0), width=(0.7, 1.4), intensity=(0.2, 0.5)),
    "medium": RainParams(),
    "heavy": RainParams(count=(22, 36), intensity=(0.35, 0.9), fog=0.03),
}


@dataclass
class TimeLapseScene:
    """One static background and T rainy frames sharing it."""

    background: np.ndarray  # [H, W, 3] in [0, 1]
    frames: list[np.ndarray]
    scene_id: str
    seed: int


def _size_hw(size) -> tuple[int, int]:
    if isinstance(size, int):
        size = (size, size)
    h, w = int(size[0]), int(size[1])
    if h <= 0 or w <= 0:
        raise ValueError(f"size must be positive, got {h}x{w}")
    return h, w


def _bilinear_upsample(coarse: np.ndarray, h: int, w: int) -> np.ndarray:
    gy, gx = coarse.shape
    ys = np.linspace(0.0, gy - 1, h)
    xs = np.linspace(0.0, gx - 1, w)
    y0 = np.minimum(ys.astype(int), gy - 2)
    x0 = np.minimum(xs.astype(int), gx - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    a = coarse[np.ix_(y0, x0)]
    b = coarse[np.ix_(y0, x0 + 1)]
    c = coarse[np.ix_(y0 + 1, x0)]
    d = coarse[np.ix_(y0 + 1, x0 + 1)]
    return a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx + c * fy * (1 - fx) + d * fy * fx


def gen_background(seed: int, size) -> np.ndarray:
    """Deterministic procedural background in [0, 1].

    Multi-octave value noise plus a global gradient and a few rectangles, so
    scenes have both smooth regions and hard edges.
    """
    h, w = _size_hw(size)
    rng = np.random.default_rng([int(seed), 0xB6])
    lum = np.zeros((h, w))
    amp = 1.0
    grid = 3
    while grid <= max(h, w):
        coarse = rng.uniform(0.0, 1.0, size=(grid + 1, grid + 1))
        lum += amp * _bilinear_upsample(coarse, h, w)
        amp *= 0.55
        grid *= 2
    yy, xx = np.mgrid[0:h, 0:w]
    gy, gx = rng.uniform(-0.4, 0.4, size=2)
    lum += gy * yy / max(h - 1, 1) + gx * xx / max(w - 1, 1)
    for _ in range(int(rng.integers(2, 6))):
        y0, y1 = np.sort(rng.integers(0, h + 1, size=2))
        x0, x1 = np.sort(rng.integers(0, w + 1, size=2))
        lum[y0:y1, x0:x1] += rng.uniform(-0.45, 0.45)
    lo, hi = lum.min(), lum.max()
    lum = (lum - lo) / (hi - lo) if hi > lo else np.zeros_like(lum)
    # keep backgrounds dark enough that additive rain rarely clips at 1.0
    lum = 0.05 + 0.58 * lum
    tint = rng.uniform(0.85, 1.0, size=3)
    offset = rng.uniform(0.0, 0.04, size=3)
    return np.clip(lum[:, :, None] * tint + offset, 0.0, 1.0)


def gen_rain_layer(params: RainParams, seed, size) -> np.ndarray:
    """Additive rain layer [H, W] >= 0: anti-aliased line segments plus optional fog."""
    h, w = _size_hw(size)
    rng = np.random.default_rng(seed)
    layer = np.zeros((h, w))
    count = int(rng.integers(params.count[0], params.count[1] + 1))
    for _ in range(count):
        cy = rng.uniform(0, h)
        cx = rng.uniform(0, w)
        ang = math.radians(rng.uniform(*params.angle))
        length = rng.uniform(*params.length)
        width = rng.uniform(*params.width)
        inten = rng.uniform(*params.intensity)
        dy = math.cos(ang) * length / 2.0
        dx = math.sin(ang) * length / 2.0
        p0 = np.array([cy - dy, cx - dx])
        p1 = np.array([cy + dy, cx + dx])
        margin = width / 2.0 + 1.0
        y_lo = max(int(math.floor(min(p0[0], p1[0]) - margin)), 0)
        y_hi = min(int(math.ceil(max(p0[0], p1[0]) + margin)) + 1, h)
        x_lo = max(int(math.floor(min(p0[1], p1[1]) - margin)), 0)
        x_hi = min(int(math.ceil(max(p0[1], p1[1]) + margin)) + 1, w)
        if y_lo >= y_hi or x_lo >= x_hi:
            continue
        ys, xs = np.mgrid[y_lo:y_hi, x_lo:x_hi]
        pts = np.stack([ys, xs], axis=-1).astype(float)
        seg = p1 - p0
        seg_len2 = float(seg @ seg)
        if seg_len2 == 0.0:
            dist = np.linalg.norm(pts - p0, axis=-1)
        else:
            t = np.clip(((pts - p0) @ seg) / seg_len2, 0.0, 1.0)
            nearest = p0 + t[..., None] * seg
            dist = np.linalg.norm(pts - nearest, axis=-1)
        coverage = np.clip(width / 2.0 + 0.5 - dist, 0.0, 1.0)
        layer[y_lo:y_hi, x_lo:x_hi] += inten * coverage
    return layer + params.fog


def frame_rain_seed(scene_seed: int, t: int) -> tuple[int, int, int]:
    """Entropy for frame t's rain layer; exposed so scenes can be re-derived."""
    return (int(scene_seed), 0x7A1A, int(t))


def gen_scene(seed: int, size, t_frames: int, params: RainParams) -> TimeLapseScene:
    """One background plus ``t_frames`` independently rained frames."""
    if t_frames < 2:
        raise ValueError(f"a time-lapse scene needs at least 2 frames, got {t_frames}")
    background = gen_background(seed, size)
    frames = []
    for t in range(t_frames):
        rain = gen_rain_layer(params, frame_rain_seed(seed, t), size)
        frames.append(np.clip(background + rain[:, :, None], 0.0, 1.0))
    return TimeLapseScene(background=background, frames=frames, scene_id=f"scene_{int(seed):06d}", seed=int(seed))


def normalize(img) -> Tensor:
    """Map a [0, 1] image to a [-1, 1] tensor (x -> 2x - 1); differentiable."""
    t = img if isinstance(img, Tensor) else Tensor(np.asarray(img, dtype=np.float64))
    if t.data.min() < 0.0 or t.data.max() > 1.0:
        raise ValueError(f"normalize expects values in [0, 1], got [{t.data.min()}, {t.data.max()}]")
    return nm.sub(nm.mul(t, 2.0), 1.0)


def denormalize(x) -> np.ndarray:
    """Inverse of normalize; returns a plain [0, 1] array."""
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    return np.clip((arr + 1.0) / 2.0, 0.0, 1.0)


# -- binary PPM (P6) / PGM (P5), maxval 255 ---------------------------------


def write_ppm(path, image: np.ndarray, comment: str | None = None) -> None:
    """Write a [0, 1] image as binary PPM ([H, W, 3]) or PGM ([H, W])."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    elif arr.ndim == 2:
        magic = b"P5"
    else:
        raise ValueError(f"expected [H, W, 3] or [H, W] image, got shape {arr.shape}")
    data = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = magic + b"\n"
    if comment is not None:
        if "\n" in comment:
            raise ValueError("PPM comment must be a single line")
        header += b"# " + comment.encode("ascii") + b"\n"
    header += f"{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + data.tobytes())


def _next_header_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        ch = buf[pos : pos + 1]
        if ch == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PpmError(f"truncated header at byte {pos}")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_ppm(path) -> np.ndarray:
    """Read binary PPM/PGM into a [0, 1] float array ([H, W, 3] or [H, W])."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_header_token(buf, 0)
    if magic not in (b"P6", b"P5"):
        raise PpmError(f"unsupported magic {magic.decode('ascii', 'replace')!r} at byte 0")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_header_token(buf, pos)
        if not token.isdigit():
            raise PpmError(f"invalid {name} {token!r} at byte {pos - len(token)}")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PpmError(f"invalid dimensions {width}x{height} at byte {pos}")
    if maxval != 255:
        raise PpmError(f"unsupported maxval {maxval} at byte {pos - len(str(maxval))}")
    pos += 1  # exactly one whitespace byte separates header and raster
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    if len(buf) - pos < expected:
        raise PpmError(f"truncated pixel data at byte {pos}: expected {expected} bytes, found {len(buf) - pos}")
    raster = np.frombuffer(buf, dtype=np.uint8, count=expected, offset=pos).astype(np.float64) / 255.0
    if channels == 3:
        return raster.reshape(height, width, 3)
    return raster.reshape(height, width)


# -- dataset-on-disk layout --------------------------------------------------


def write_dataset(scenes: list[TimeLapseScene], out_dir) -> None:
    """Write scenes/<id>/bg.ppm + frame_<t>.ppm and a manifest.txt."""
    scene_root = os.path.join(out_dir, "scenes")
    os.makedirs(scene_root, exist_ok=True)
    lines = []
    for scene in scenes:
        scene_dir = os.path.join(scene_root, scene.scene_id)
        os.makedirs(scene_dir, exist_ok=True)
        write_ppm(os.path.join(scene_dir, "bg.ppm"), scene.background)
        for t, frame in enumerate(scene.frames):
            write_ppm(os.path.join(scene_dir, f"frame_{t}.ppm"), frame)
        lines.append(f"{scene.scene_id} {len(scene.frames)} {scene.seed}\n")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.writelines(lines)


def load_dataset(root) -> list[TimeLapseScene]:
    """Load a dataset written by :func:`write_dataset`."""
    manifest = os.path.join(root, "manifest.txt")
    if not os.path.isfile(manifest):
        raise DatasetError(f"no manifest.txt under {root}")
    scenes = []
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DatasetError(f"manifest line {lineno}: expected 'scene_id T seed', got {line!r}")
            scene_id, t_str, seed_str = parts
            try:
                t_frames, seed = int(t_str), int(seed_str)
            except ValueError:
                raise DatasetError(f"manifest line {lineno}: non-integer fields in {line!r}") from None
            if t_frames < 2:
                raise DatasetError(f"manifest line {lineno}: scene {scene_id} has {t_frames} frame(s); need at least 2")
            scene_dir = os.path.join(root, "scenes", scene_id)
            background = read_ppm(os.path.join(scene_dir, "bg.ppm"))
            frames = [read_ppm(os.path.join(scene_dir, f"frame_{t}.ppm")) for t in range(t_frames)]
            scenes.append(TimeLapseScene(background=background, frames=frames, scene_id=scene_id, seed=seed))
    if not scenes:
        raise DatasetError(f"manifest.txt under {root} lists no scenes")
    return scenes
