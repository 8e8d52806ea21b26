"""The three benchmark workloads and the checks on their outputs.

Every workload calls rainproto only through its public module attributes
(``dt.read_ppm``, ``tr.train``, ...), so the traced run sees each call. A
workload sets up ``SETUP_REPEATS`` times, then repeats whole rounds until
``--seconds`` have passed, then checks what the program produced.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext

import numpy as np

import reference as ref
from rainproto import data as dt
from rainproto import derainnet as dn
from rainproto import metrics as mt
from rainproto import trainer as tr
from tracing import PROBE_ROOT

SETUP_REPEATS = 5
# The program's own error types: TrainingError, and CheckpointError, PpmError and
# DatasetError, which are ValueErrors. An operation that raises one of them is
# counted as failed; anything else is a fault of the benchmark and ends the run.
PROGRAM_ERRORS = (tr.TrainingError, ValueError)

DESK_SIZE, DESK_FRAMES, DESK_TRAIN_SCENES, DESK_HELD_OUT = 32, 8, 40, 16
# Each round resumes training for this many steps, then evaluates. A run makes
# at least three rounds, so the held-out PSNR gain is checked after 300 steps or
# more; on seeds that train normally it is 5 to 8 dB by then.
DESK_ROUND_STEPS, DESK_MIN_ROUNDS = 100, 3
DESK_MIN_GAIN_DB = 3.0
DESK_CHECKED_FRAMES = 8

PAPER_DERAIN_SIZE, PAPER_DERAIN_IMAGES = 256, 2
# Scale of the seeded final layer relative to its He initialization: large
# enough that r_hat is far from 0, small enough that y_hat is mostly unclamped.
FINAL_LAYER_SCALE = 0.1

# The published width at a spatial size where one taped pair stays well under 1 GB.
PAPER_TRAIN_SIZE, PAPER_TRAIN_SCENES, PAPER_TRAIN_FRAMES = 64, 8, 4
PAPER_TRAIN_CHUNK = 4  # steps per train() call; each call resumes and writes a checkpoint
# Central-difference steps, largest first: a smaller one is tried when the
# larger one crosses a branch of the objective.
FD_STEPS = (1e-7, 1e-8)
FD_TOL = 1e-4
FD_CANDIDATES = 4  # coordinates tried per tensor before the finite-difference check gives up

# Streams drawn from the workload seed; the program sees only what they generate.
_TRAIN_SCENES, _HELD_OUT_SCENES, _IMAGES, _FINAL_LAYER, _WARMUP, _PROBE = range(6)


class Run:
    """What one benchmark process measures: seed, run length, tracer, work directory."""

    def __init__(self, seed: int, seconds: float, tracer, workdir):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.checks: dict[str, tuple[bool, str]] = {}
        self.info: dict[str, float] = {}
        self.failed = 0
        self.errors: dict[str, int] = {}  # error message -> operations it failed

    def root(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def path(self, name: str) -> str:
        return f"{self.workdir}/{name}"

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def scene_seeds(self, stream: int, n: int) -> list[int]:
        return [int(s) for s in self.rng(stream).integers(0, 2**31 - 1, size=n)]

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a check; a check made again (once per round) keeps its first failure."""
        if self.checks.get(name, (True, ""))[0]:
            self.checks[name] = (bool(ok), detail)

    def set_up(self, fn):
        """Run ``fn`` SETUP_REPEATS times; returns its last result and the median duration."""
        durations = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            result = fn()
            durations.append(time.perf_counter() - start)
        return result, statistics.median(durations)

    def until_done(self, min_rounds: int = 1):
        """Yields round numbers until the run length has passed and ``min_rounds`` have run."""
        start = time.perf_counter()
        n = 0
        while n < min_rounds or time.perf_counter() - start < self.seconds:
            yield n
            n += 1

    def attempt(self, operations: int, fn, *args):
        """``fn(*args)``, or None when it raises one of the program's errors.

        A failure counts ``operations`` operations as failed: all of a training
        round's steps (``trainer.train`` returns no history when a step
        raises), or one image or frame.
        """
        try:
            return fn(*args)
        except PROGRAM_ERRORS as exc:
            self.failed += operations
            message = f"{type(exc).__name__}: {exc}"
            self.errors[message] = self.errors.get(message, 0) + operations
            return None

    def probe_peak_mb(self, fn) -> float:
        """tracemalloc peak over one more unit of work, traced runs only."""
        if not self.tracer:
            return 0.0
        tracemalloc.start()
        try:
            with self.root(PROBE_ROOT):
                fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


class StepClock:
    """Times every trainer.train_step call and keeps the first call's inputs and gradients."""

    def __init__(self):
        self.ms: list[float] = []
        self.first = None

    def __enter__(self):
        self._original = original = tr.train_step

        def timed(model, opt, pairs, cfg):
            before = None
            if self.first is None:
                before = {k: p.data.copy() for k, p in model.parameters().items()}
            start = time.perf_counter()
            report = original(model, opt, pairs, cfg)
            self.ms.append(1e3 * (time.perf_counter() - start))
            if before is not None:
                grads = {k: p.grad.copy() for k, p in model.parameters().items()}
                self.first = (before, grads, list(pairs), report)
            return report

        tr.train_step = timed
        return self

    def __exit__(self, *exc):
        tr.train_step = self._original


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rain_for(size: int) -> dt.RainParams:
    """The medium preset, tuned for 32x32, scaled to keep its streak density and length."""
    k = size / 32.0
    medium = dt.RAIN_PRESETS["medium"]
    return dataclasses.replace(
        medium,
        count=(round(medium.count[0] * k * k), round(medium.count[1] * k * k)),
        length=(medium.length[0] * k, medium.length[1] * k),
    )


def _seeded_model(run: Run, cfg: dn.ModelConfig):
    """build_model, with the final layer drawn from the workload seed instead of zeros.

    A zero final layer makes r_hat = 0 and y_hat = x exactly, so reference
    checks would compare zeros and every saturated pixel would sit on the
    clamp edge, where the objective has no derivative.
    """
    model = dn.build_model(cfg)
    final_k, final_b = model.final.kernel, model.final.bias
    rng = run.rng(_FINAL_LAYER)
    he = math.sqrt(2.0 / (9 * final_k.shape[2]))
    final_k.data = rng.normal(0.0, FINAL_LAYER_SCALE * he, size=final_k.shape)
    final_b.data = rng.normal(0.0, 0.01, size=final_b.shape)
    return model


def _params(model) -> dict[str, np.ndarray]:
    return {k: p.data for k, p in model.parameters().items()}


def _check_reference_rhat(run: Run, name: str, model, x: np.ndarray, r_hat: np.ndarray) -> None:
    expected = ref.forward(_params(model), model.config.depth, x)["r_hat"]
    scale = float(np.abs(expected).max())
    err = float(np.abs(r_hat - expected).max()) / scale if scale > 0 else math.inf
    run.check(name, err <= 1e-9, f"max |r_hat - reference| / max |reference| = {err:.2e} (scale {scale:.3g})")


def _terms_finite(history) -> bool:
    return all(
        math.isfinite(v) for r in history for v in (r.coh, r.div, r.fea, r.b, r.c, r.s, r.total)
    )


# -- desk-train ---------------------------------------------------------------


def desk_train(run: Run) -> dict:
    cfg = tr.desk_train_config(seed=run.seed)
    rain = dt.RAIN_PRESETS["medium"]

    def set_up():
        with run.root("bench.setup"):
            train = [dt.gen_scene(s, DESK_SIZE, DESK_FRAMES, rain) for s in run.scene_seeds(_TRAIN_SCENES, DESK_TRAIN_SCENES)]
            held = [dt.gen_scene(s, DESK_SIZE, DESK_FRAMES, rain) for s in run.scene_seeds(_HELD_OUT_SCENES, DESK_HELD_OUT)]
            dt.write_dataset(train, run.path("train"))
            dt.write_dataset(held, run.path("held_out"))
            train, held = dt.load_dataset(run.path("train")), dt.load_dataset(run.path("held_out"))
            model = dn.build_model(cfg.model)
            pairs = [tr.sample_pair(train, run.rng(_WARMUP)) for _ in range(cfg.batch_size)]
            tr.train_step(model, tr.AdamOptimizer(model.parameters()), pairs, cfg)
        return train, held

    (train_set, held_set), setup_s = run.set_up(set_up)
    ckpt, log = run.path("desk.ckpt"), run.path("desk.log")
    model = dn.build_model(cfg.model)
    opt = tr.AdamOptimizer(model.parameters())
    history, train_s, attempted, gain = [], 0.0, 0, None
    with StepClock() as clock:
        for n in run.until_done(DESK_MIN_ROUNDS):
            attempted += DESK_ROUND_STEPS
            steps = (n + 1) * DESK_ROUND_STEPS
            trained = run.attempt(DESK_ROUND_STEPS, _train_more, run, train_set, cfg, model, opt, steps, ckpt, log)
            if trained is None:
                break
            history += trained[0]
            train_s += trained[1]
            attempted += sum(len(s.frames) for s in held_set)
            gain = _evaluate_and_check(run, ckpt, held_set, model)
    rss = peak_rss_mb()

    def probe():
        fresh = dn.build_model(cfg.model)
        pairs = [tr.sample_pair(train_set, run.rng(_PROBE)) for _ in range(cfg.batch_size)]
        tr.train_step(fresh, tr.AdamOptimizer(fresh.parameters()), pairs, cfg)

    peak_mb = run.probe_peak_mb(probe)
    run.check("desk: every loss term is finite", _terms_finite(history))
    if history:
        tenth = max(len(history) // 10, 1)
        first = statistics.mean(r.total for r in history[:tenth])
        last = statistics.mean(r.total for r in history[-tenth:])
        run.check("desk: loss over the last tenth of steps is below the first tenth", last < first, f"{first:.5g} -> {last:.5g}")
        run.info.update({"desk.steps": len(history), "train.step_ms.p90": float(np.percentile(clock.ms, 90))})
    if gain is not None:
        run.info["eval.psnr_gain_db"] = gain
        run.check(
            f"desk: held-out PSNR gain >= {DESK_MIN_GAIN_DB:g} dB after the last round",
            gain >= DESK_MIN_GAIN_DB,
            f"{gain:.3f} dB after {len(history)} steps, by the reference PSNR",
        )
    return {
        "attempted": attempted,
        "end_to_end": {"setup_s": setup_s, "items_per_s": _rate(len(history) * cfg.batch_size, train_s), "peak_rss_mb": rss},
        "op_ms": clock.ms,
        "phases": {"train": ("bench.train", "trainer.train_step"), "eval": ("bench.frame", "bench.frame")},
        "peak_mb": peak_mb,
    }


def _rate(items: int, seconds: float) -> float:
    return items / seconds if seconds > 0 else 0.0


def _train_more(run: Run, dataset, cfg, model, opt, steps: int, ckpt: str, log: str):
    """Resume training to ``steps`` steps in all through trainer.train; returns (history, seconds)."""
    start = time.perf_counter()
    with run.root("bench.train"):
        _, history = tr.train(
            dataset, dataclasses.replace(cfg, steps=steps), model=model, opt=opt, checkpoint_path=ckpt, log_path=log
        )
    return history, time.perf_counter() - start


def _score_frame(run: Run, model, frame: np.ndarray, bg: np.ndarray):
    with run.root("bench.frame"):
        result = dn.derain(model, dt.normalize(frame))
        derained = dt.denormalize(result.y_hat)
        row = (mt.psnr(frame, bg), mt.ssim(frame, bg), mt.psnr(derained, bg), mt.ssim(derained, bg))
    return row, (frame, bg, derained, result.r_hat.data)


def _evaluate_and_check(run: Run, ckpt: str, scenes, trained) -> float | None:
    """Score every held-out frame as ``rainproto eval`` does, then check the scores.

    Returns the held-out PSNR gain in dB by the reference PSNR, or None when
    no frame was scored; the frame rate of the last eval goes to ``run.info``.
    """
    start = time.perf_counter()
    loaded = run.attempt(sum(len(s.frames) for s in scenes), tr.load_checkpoint, ckpt)
    if loaded is None:
        return None
    model = loaded[0]
    rows, outputs = [], []
    for scene in scenes:
        for frame in scene.frames:
            scored = run.attempt(1, _score_frame, run, model, frame, scene.background)
            if scored is not None:
                rows.append(scored[0])
                outputs.append(scored[1])
    if not outputs:
        return None
    run.info["eval.frames_per_s"] = len(outputs) / (time.perf_counter() - start)

    run.check(
        "desk: the checkpoint reloads to the trained parameters",
        all(np.array_equal(a, b) for a, b in zip(_params(trained).values(), _params(model).values())),
    )
    worst = 0.0
    for (frame, bg, derained, _), row in zip(outputs, rows):
        expected = (ref.psnr(frame, bg), ref.ssim(frame, bg), ref.psnr(derained, bg), ref.ssim(derained, bg))
        worst = max(worst, max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(row, expected)))
    run.check("desk: rainproto.metrics PSNR and SSIM match the reference", worst <= 1e-9, f"worst difference {worst:.2e}")
    for i in range(0, len(outputs), max(len(outputs) // DESK_CHECKED_FRAMES, 1)):
        frame, _, _, r_hat = outputs[i]
        _check_reference_rhat(run, f"desk: r_hat of held-out frame {i} matches the reference", model, 2.0 * frame - 1.0, r_hat)
    return statistics.mean(ref.psnr(d, bg) - ref.psnr(f, bg) for f, bg, d, _ in outputs)


# -- paper-derain -------------------------------------------------------------


def _derain_image(model, src: str, out_clean: str, out_rain: str):
    """One PPM in, two PPMs out, as ``rainproto derain`` does."""
    img = dt.read_ppm(src)
    x = dt.normalize(img)
    result = dn.derain(model, x)
    dt.write_ppm(out_clean, dt.denormalize(result.y_hat))
    rain = result.r_hat.data
    r_lo, r_hi = float(rain.min()), float(rain.max())
    vis = (rain - r_lo) / (r_hi - r_lo) if r_hi > r_lo else np.zeros_like(rain)
    dt.write_ppm(out_rain, vis, comment=f"rain layer remapped to [0,1]: min={r_lo:.6g} max={r_hi:.6g}")
    return x.data, result, vis


def paper_derain(run: Run) -> dict:
    size = PAPER_DERAIN_SIZE
    ckpt = run.path("paper.ckpt")
    inputs = [run.path(f"in_{i}.ppm") for i in range(PAPER_DERAIN_IMAGES)]
    out_clean, out_rain = run.path("clean.ppm"), run.path("rain.ppm")

    def set_up():
        with run.root("bench.setup"):
            seeds = run.scene_seeds(_IMAGES, PAPER_DERAIN_IMAGES // 2)
            frames = [f for s in seeds for f in dt.gen_scene(s, size, 2, _rain_for(size)).frames]
            for path, frame in zip(inputs, frames):
                dt.write_ppm(path, frame)
            model = _seeded_model(run, dn.paper_model_config(seed=run.seed))
            tr.save_checkpoint(model, tr.AdamOptimizer(model.parameters()), ckpt)
            model, _ = tr.load_checkpoint(ckpt)
            _derain_image(model, inputs[0], out_clean, out_rain)
        return model

    model, setup_s = run.set_up(set_up)
    image_ms, first, attempted = [], None, 0
    clamp_ok, ppm_err = True, 0.0
    for n in run.until_done():
        attempted += 1
        start = time.perf_counter()
        with run.root("bench.image"):
            derained = run.attempt(1, _derain_image, model, inputs[n % len(inputs)], out_clean, out_rain)
        if derained is None:
            continue
        image_ms.append(1e3 * (time.perf_counter() - start))
        x, result, vis = derained
        r_hat, y_hat = result.r_hat.data, result.y_hat.data
        clamp_ok &= bool(np.array_equal(y_hat, np.clip(x - r_hat, -1.0, 1.0)))
        ppm_err = max(
            ppm_err,
            float(np.abs(dt.read_ppm(out_clean) - np.clip((y_hat + 1.0) / 2.0, 0.0, 1.0)).max()),
            float(np.abs(dt.read_ppm(out_rain) - vis).max()),
        )
        if first is None:
            first = (x, r_hat)
    rss = peak_rss_mb()
    peak_mb = run.probe_peak_mb(lambda: _derain_image(model, inputs[0], out_clean, out_rain))

    run.check("paper-derain: y_hat == clamp(x - r_hat, -1, 1) on every image", clamp_ok)
    run.check("paper-derain: written PPMs decode to the outputs within 0.5/255", ppm_err <= 0.5 / 255 + 1e-12, f"worst {ppm_err * 255:.4f}/255")
    if first is not None:
        _check_reference_rhat(run, "paper-derain: r_hat of the first image matches the reference", model, *first)
    return {
        "attempted": attempted,
        "end_to_end": {"setup_s": setup_s, "items_per_s": _rate(len(image_ms), 1e-3 * sum(image_ms)), "peak_rss_mb": rss},
        "op_ms": image_ms,
        "phases": {"image": ("bench.image", "bench.image")},
        "peak_mb": peak_mb,
    }


# -- paper-train --------------------------------------------------------------


def paper_train(run: Run) -> dict:
    size = PAPER_TRAIN_SIZE
    model_cfg = dataclasses.replace(dn.paper_model_config(seed=run.seed), input_size=(size, size))
    cfg = dataclasses.replace(tr.paper_train_config(seed=run.seed), model=model_cfg, batch_size=1)

    def set_up():
        with run.root("bench.setup"):
            seeds = run.scene_seeds(_TRAIN_SCENES, PAPER_TRAIN_SCENES)
            dataset = [dt.gen_scene(s, size, PAPER_TRAIN_FRAMES, _rain_for(size)) for s in seeds]
            model = dn.build_model(model_cfg)
            tr.train_step(model, tr.AdamOptimizer(model.parameters()), [tr.sample_pair(dataset, run.rng(_WARMUP))], cfg)
        return dataset

    dataset, setup_s = run.set_up(set_up)
    ckpt, log = run.path("paper.ckpt"), run.path("paper.log")
    model = _seeded_model(run, model_cfg)
    opt = tr.AdamOptimizer(model.parameters())
    history, train_s, attempted = [], 0.0, 0
    with StepClock() as clock:
        for n in run.until_done():
            attempted += PAPER_TRAIN_CHUNK
            steps = (n + 1) * PAPER_TRAIN_CHUNK
            trained = run.attempt(PAPER_TRAIN_CHUNK, _train_more, run, dataset, cfg, model, opt, steps, ckpt, log)
            if trained is None:
                break
            history += trained[0]
            train_s += trained[1]
    rss = peak_rss_mb()
    peak_mb = 0.0
    run.check("paper-train: every loss term is finite", _terms_finite(history))
    if clock.first is not None:
        params0, grads, pairs, report = clock.first

        def probe():
            fresh = dn.build_model(model_cfg)
            tr.train_step(fresh, tr.AdamOptimizer(fresh.parameters()), pairs, cfg)

        peak_mb = run.probe_peak_mb(probe)
        _check_first_step_gradient(run, params0, grads, pairs, report, cfg)
    return {
        "attempted": attempted,
        "end_to_end": {"setup_s": setup_s, "items_per_s": _rate(len(history) * cfg.batch_size, train_s), "peak_rss_mb": rss},
        "op_ms": clock.ms,
        "phases": {"train": ("bench.train", "trainer.train_step")},
        "peak_mb": peak_mb,
    }


def _check_first_step_gradient(run: Run, params0, grads, pairs, report, cfg) -> None:
    """Central differences of the reference objective against the first step's gradient.

    Each tensor is probed at its largest-gradient coordinate. When the +h and
    -h evaluations take different branches (a relu, the clamp, an absolute
    value, the hinge or the cohesion argmax), the step straddles a point where
    the objective has no derivative, or jumps, and a difference quotient means
    nothing there: a smaller step is tried, then the next-largest coordinate.
    """
    depth = cfg.model.depth
    params = {k: v.copy() for k, v in params0.items()}
    total, _ = ref.pair_loss(params, depth, pairs, cfg.loss)
    rel = abs(total - report.total) / abs(report.total)
    run.check("paper-train: the reference objective equals the first step's total loss", rel <= 1e-9, f"relative difference {rel:.2e}")
    worst, probed, skipped, missing = 0.0, 0, 0, []
    for name, grad in grads.items():
        flat = params[name].reshape(-1)
        fd = None
        for idx in np.argsort(-np.abs(grad).reshape(-1), kind="stable")[:FD_CANDIDATES]:
            fd = _central_difference(params, flat, idx, depth, pairs, cfg.loss)
            if fd is not None:
                ad = float(grad.reshape(-1)[idx])
                worst = max(worst, abs(ad - fd) / max(abs(ad), abs(fd)))
                probed += 1
                break
            skipped += 1
        if fd is None:
            missing.append(name)
    run.check(
        "paper-train: first-step gradient matches central differences",
        worst <= FD_TOL and not missing,
        f"worst relative error {worst:.2e} over {probed} tensors, {skipped} coordinates skipped; unprobed {missing}",
    )


def _central_difference(params, flat, idx, depth, pairs, weights) -> float | None:
    """d(objective)/d(flat[idx]) by the first of FD_STEPS whose two evaluations take the same branches."""
    orig = flat[idx]
    try:
        for h in FD_STEPS:
            flat[idx] = orig + h
            plus, branches_plus = ref.pair_loss(params, depth, pairs, weights)
            flat[idx] = orig - h
            minus, branches_minus = ref.pair_loss(params, depth, pairs, weights)
            if all(np.array_equal(a, b) for a, b in zip(branches_plus, branches_minus)):
                return (plus - minus) / (2.0 * h)
        return None
    finally:
        flat[idx] = orig


WORKLOADS = {"desk-train": desk_train, "paper-derain": paper_derain, "paper-train": paper_train}


def report_checks(run: Run) -> bool:
    for name, (ok, detail) in run.checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""), file=sys.stderr)
    for message, operations in run.errors.items():
        print(f"ERROR {operations} operation(s) failed: {message}", file=sys.stderr)
    return all(ok for ok, _ in run.checks.values())
