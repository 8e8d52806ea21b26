"""Command-line surface: dataset generation, training, de-raining, evaluation, gradcheck.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 check failure.
Every error path prints a single ``error: ...`` line to stderr. All commands
are deterministic given their flags; RSPU_THREADS caps BLAS parallelism and
defaults to 1 so outputs are bit-reproducible.
"""

from __future__ import annotations

import os

# Must happen before numpy is first imported anywhere in this process.
_threads = os.environ.get("RSPU_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _threads)

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import data as dt
from . import derainnet as dn
from . import metrics as mt
from . import trainer as tr
from .data import DatasetError, PpmError
from .gradcheck import run_suite
from .losses import LossConfig
from .trainer import CheckpointError, TrainingError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise UsageError(message)


def _parse_size(text: str) -> tuple[int, int]:
    """An image size, N or HxW, with positive dimensions."""
    try:
        dims = [int(d) for d in text.lower().split("x")]
    except ValueError:
        dims = []
    if len(dims) not in (1, 2):
        raise UsageError(f"cannot parse size {text!r}; expected N or HxW")
    if min(dims) < 1:
        raise UsageError(f"size {text!r} must be positive")
    return dims[0], dims[-1]


def _parse_hwc(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise UsageError(f"cannot parse sizes {text!r}; expected HxWxC")
    try:
        return int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"cannot parse sizes {text!r}; expected HxWxC") from None


# Every train setting, key -> (the config that owns the field, its parser). Each
# is read from a flag and a --config key of that name; the model's seed is the
# run's seed.
_SETTINGS = {
    f.name: (owner, _parse_size if f.name == "input_size" else type(f.default))
    for owner, skip in ((tr.TrainConfig, {"loss", "model"}), (dn.ModelConfig, {"seed"}), (LossConfig, set()))
    for f in dataclasses.fields(owner)
    if f.name not in skip
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rainproto", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic time-lapse dataset")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--scenes", type=int, default=40)
    g.add_argument("--frames", type=int, default=8)
    g.add_argument("--size", default="32", help="image size, N or HxW")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--rain-preset", choices=sorted(dt.RAIN_PRESETS), default="medium")

    t = sub.add_parser("train", help="train a de-raining model")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--log", default=None, help="history log path (default: <out>.log)")
    t.add_argument("--preset", choices=("desk", "paper"), default="desk")
    t.add_argument("--config", default=None, help="flat key = value config file")
    # one flag per setting; flags beat the file, the file beats the preset
    for key, (_, parse) in _SETTINGS.items():
        flags = ["--" + key.replace("_", "-")] + (["--lr"] if key == "learning_rate" else [])
        t.add_argument(*flags, dest=key, type=parse, default=None)

    d = sub.add_parser("derain", help="de-rain one PPM image with a trained model")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--in", dest="input", required=True, help="input P6 image")
    d.add_argument("--out-clean", required=True, help="de-rained output path")
    d.add_argument("--out-rain", required=True, help="rain layer visualization path")

    e = sub.add_parser("eval", help="PSNR/SSIM of de-rained frames against backgrounds")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)

    c = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--sizes", default="4x4x3", help="HxWxC of the operator test tensors")
    return parser


def _read_config_file(path) -> dict[str, str]:
    if not os.path.isfile(path):
        raise UsageError(f"config file {path!r} does not exist")
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            values[key.strip()] = value.strip()
    return values


def _resolve_train_config(args) -> tr.TrainConfig:
    cfg = tr.desk_train_config() if args.preset == "desk" else tr.paper_train_config()
    overrides: dict[str, object] = {}
    if args.config:
        for key, text in _read_config_file(args.config).items():
            if key not in _SETTINGS:
                raise UsageError(f"unknown config key {key!r}")
            try:
                overrides[key] = _SETTINGS[key][1](text)
            except ValueError:
                raise UsageError(f"config key {key}: cannot parse {text!r}") from None
    overrides.update((key, getattr(args, key)) for key in _SETTINGS if getattr(args, key) is not None)
    kw = {owner: {} for owner, _ in _SETTINGS.values()}
    for key, value in overrides.items():
        kw[_SETTINGS[key][0]][key] = value
    train_kw = kw[tr.TrainConfig]
    try:
        model = dataclasses.replace(cfg.model, seed=train_kw.get("seed", cfg.seed), **kw[dn.ModelConfig])
        loss = dataclasses.replace(cfg.loss, **kw[LossConfig])
        return dataclasses.replace(cfg, model=model, loss=loss, **train_kw)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_gen_data(args) -> int:
    if args.scenes < 1:
        raise UsageError("--scenes must be at least 1")
    if args.frames < 2:
        raise UsageError("--frames must be at least 2 (a scene is a time-lapse)")
    size = _parse_size(args.size)
    params = dt.RAIN_PRESETS[args.rain_preset]
    scenes = [dt.gen_scene(args.seed + i, size, args.frames, params) for i in range(args.scenes)]
    dt.write_dataset(scenes, args.out)
    print(f"wrote {args.scenes} scenes x {args.frames} frames at {size[0]}x{size[1]} to {args.out}")
    return 0


def _available_memory_bytes() -> int | None:
    """MemAvailable of /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_train_memory(cfg: tr.TrainConfig) -> None:
    """Refuse a run whose taped batch cannot fit, rather than be OOM-killed in it."""
    need = dn.taped_step_bytes(cfg.model, 2 * cfg.batch_size)
    have = _available_memory_bytes()
    if have is not None and need > have:
        h, w = cfg.model.input_size
        raise TrainingError(
            f"training {cfg.batch_size} pair(s) of {h}x{w} frames per step needs an estimated "
            f"{need / 2**30:.1f} GiB but {have / 2**30:.1f} GiB is available; "
            f"lower --batch-size or --input-size"
        )


def _load_dataset_of_size(root, size: tuple[int, int]) -> list[dt.TimeLapseScene]:
    """The dataset under ``root``, refused unless every scene is ``size``.

    ``load_dataset`` already refuses a frame of another shape than its scene's
    background.
    """
    dataset = dt.load_dataset(root)
    for scene in dataset:
        h, w = scene.background.shape[:2]
        if (h, w) != size:
            raise DatasetError(f"scene {scene.scene_id} is {h}x{w} but the model expects {size[0]}x{size[1]}")
    return dataset


def _cmd_train(args) -> int:
    cfg = _resolve_train_config(args)
    _check_train_memory(cfg)
    dataset = _load_dataset_of_size(args.data, cfg.model.input_size)
    log_path = args.log if args.log is not None else os.fspath(args.out) + ".log"
    _, history = tr.train(dataset, cfg, checkpoint_path=args.out, log_path=log_path)
    if history:
        print(f"trained {len(history)} steps; final total loss {history[-1].total:.6g}")
    else:
        print("trained 0 steps; wrote the initialized model")
    print(f"checkpoint: {args.out}")
    print(f"history log: {log_path}")
    return 0


def _cmd_derain(args) -> int:
    model, _ = tr.load_checkpoint(args.ckpt)
    img = dt.read_ppm(args.input)
    expected = model.config.input_size
    if img.shape[:2] != expected:
        raise DatasetError(
            f"input image is {img.shape[0]}x{img.shape[1]} but the checkpoint expects "
            f"{expected[0]}x{expected[1]}"
        )
    result = dn.derain(model, dt.normalize(img))
    dt.write_ppm(args.out_clean, dt.denormalize(result.y_hat))
    rain = result.r_hat.data
    r_lo, r_hi = float(rain.min()), float(rain.max())
    vis = (rain - r_lo) / (r_hi - r_lo) if r_hi > r_lo else np.zeros_like(rain)
    dt.write_ppm(args.out_rain, vis, comment=f"rain layer remapped to [0,1]: min={r_lo:.6g} max={r_hi:.6g}")
    print(f"wrote {args.out_clean} and {args.out_rain}")
    return 0


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.4f}"


def _cmd_eval(args) -> int:
    model, _ = tr.load_checkpoint(args.ckpt)
    dataset = _load_dataset_of_size(args.data, model.config.input_size)
    print("scene\tpsnr_rainy\tssim_rainy\tpsnr_derained\tssim_derained")
    sums = np.zeros(4)
    for scene in dataset:
        rows = []
        for frame in scene.frames:
            derained = dt.denormalize(dn.derain(model, dt.normalize(frame)).y_hat)
            rows.append([
                mt.psnr(frame, scene.background),
                mt.ssim(frame, scene.background),
                mt.psnr(derained, scene.background),
                mt.ssim(derained, scene.background),
            ])
        means = np.mean(np.array(rows), axis=0)
        sums += means
        print(f"{scene.scene_id}\t" + "\t".join(_fmt(v) for v in means))
    overall = sums / len(dataset)
    print("mean\t" + "\t".join(_fmt(v) for v in overall))
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed, sizes=_parse_hwc(args.sizes))
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}\t{r.name}\tmax_rel_err={r.max_rel_err:.3e}\ttol={r.tolerance:g}")
    if failed:
        print(f"error: {len(failed)} gradient check(s) failed: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return 3
    print(f"all {len(results)} gradient checks passed")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "derain": _cmd_derain,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PpmError, DatasetError, CheckpointError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
