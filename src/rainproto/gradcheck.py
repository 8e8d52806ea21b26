"""Finite-difference verification of every operator and loss, plus end-to-end.

Each check compares reverse-mode gradients against central differences with
relative error |ad - fd| / max(1, |fd|). Elementary operators must agree to
1e-5, composites (the prototype unit, the losses, and the full model) to 1e-4.
Random inputs are nudged away from non-smooth loci (relu kinks, pool ties,
hinge corners, clamp edges) where the two-sided difference is meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import losses as ls
from . import numerics as nm
from . import rspu
from .derainnet import ModelConfig, build_model
from .losses import LossConfig
from .numerics import Graph, Tensor, backward
from .trainer import pair_terms

ELEMENTARY_TOL = 1e-5
COMPOSITE_TOL = 1e-4
# Large parameter tensors are probed at this many evenly spaced coordinates;
# small tensors are probed exhaustively.
MAX_COORDS = 48


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _probe_coords(size: int) -> np.ndarray:
    if size <= MAX_COORDS:
        return np.arange(size)
    return np.unique(np.linspace(0, size - 1, MAX_COORDS).astype(int))


def _check(name: str, f: Callable[[], Tensor], params: dict[str, Tensor], tol: float) -> CheckResult:
    graph = Graph()
    with graph:
        loss = f()
    for p in params.values():
        p.grad = None
    backward(loss, graph)
    worst = 0.0
    for p in params.values():
        ad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        coords = _probe_coords(p.size)
        fd = nm.finite_diff_grad(lambda _: f(), p, coords=coords)
        rel = np.abs(ad[coords] - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    return CheckResult(name=name, max_rel_err=worst, tolerance=tol)


def _away_from(rng: np.random.Generator, shape, lo: float, hi: float, avoid=(), margin: float = 1e-3) -> np.ndarray:
    """Uniform sample with every value pushed at least ``margin`` from each avoid point."""
    x = rng.uniform(lo, hi, size=shape)
    for point in avoid:
        close = np.abs(x - point) < margin
        x[close] = point + margin * np.where(x[close] >= point, 1.0, -1.0) * 2.0
    return x


def _tiebreak_windows(rng: np.random.Generator, shape, margin: float = 1e-3) -> np.ndarray:
    """Random tensor whose 2x2 pool windows have a clear, isolated maximum."""
    h, w, c = shape
    x = rng.uniform(-1.0, 1.0, size=shape)
    wins = x.reshape(h // 2, 2, w // 2, 2, c)
    top = wins.max(axis=(1, 3), keepdims=True)
    near = (top - wins < margin) & (wins < top)
    wins[near] -= 2 * margin
    return wins.reshape(h, w, c)


def _elementary_checks(rng: np.random.Generator, sizes: tuple[int, int, int]) -> list[CheckResult]:
    h, w, c = sizes
    results = []

    def run(name, f, params):
        results.append(_check(name, f, params, ELEMENTARY_TOL))

    a = Tensor(rng.uniform(-1, 1, (h, w, c)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (h, w, c)), requires_grad=True)
    run("add", lambda: nm.reduce_sum(nm.mul(nm.add(a, b), a)), {"a": a, "b": b})
    run("sub", lambda: nm.reduce_sum(nm.mul(nm.sub(a, b), b)), {"a": a, "b": b})
    run("mul", lambda: nm.reduce_sum(nm.mul(a, b)), {"a": a, "b": b})
    denom = Tensor(_away_from(rng, (h, w, c), 0.5, 2.0), requires_grad=True)
    run("div", lambda: nm.reduce_sum(nm.div(a, denom)), {"a": a, "b": denom})

    za = Tensor(_away_from(rng, (h, w, c), -1, 1, avoid=(0.0,)), requires_grad=True)
    run("absolute", lambda: nm.reduce_sum(nm.absolute(za)), {"x": za})
    run("relu", lambda: nm.reduce_sum(nm.relu(za)), {"x": za})
    run("sigmoid", lambda: nm.reduce_sum(nm.sigmoid(a)), {"x": a})
    ca = Tensor(_away_from(rng, (h, w, c), -2, 2, avoid=(-1.0, 1.0)), requires_grad=True)
    run("clamp", lambda: nm.reduce_sum(nm.mul(nm.clamp(ca), ca)), {"x": ca})

    run("softmax_axis", lambda: nm.reduce_sum(nm.mul(nm.softmax_axis(a, axis=2), b)), {"x": a})
    run("reduce_sum", lambda: nm.reduce_sum(nm.mul(nm.reduce_sum(a, axes=(0,)), nm.reduce_sum(b, axes=(0,)))), {"x": a})
    run("reduce_mean", lambda: nm.reduce_sum(nm.mul(nm.reduce_mean(a, axes=(1,)), nm.reduce_mean(b, axes=(1,)))), {"x": a})
    na = Tensor(rng.uniform(0.3, 1.0, (h, w, c)), requires_grad=True)  # norms bounded away from 0
    run("vector_l2", lambda: nm.reduce_sum(nm.vector_l2(na, axis=2)), {"x": na})

    ma = Tensor(rng.uniform(-1, 1, (h, c)), requires_grad=True)
    mb = Tensor(rng.uniform(-1, 1, (c, w)), requires_grad=True)
    run("matmul", lambda: nm.reduce_sum(nm.mul(nm.matmul(ma, mb), nm.matmul(ma, mb))), {"a": ma, "b": mb})
    run("transpose", lambda: nm.reduce_sum(nm.mul(nm.transpose(ma), nm.transpose(ma))), {"x": ma})
    run("reshape", lambda: nm.reduce_sum(nm.mul(nm.reshape(a, (h * w, c)), nm.reshape(b, (h * w, c)))), {"x": a})
    run("concat", lambda: nm.reduce_sum(nm.mul(nm.concat([a, b], axis=2), nm.concat([b, a], axis=2))), {"a": a, "b": b})
    row = Tensor(rng.uniform(-1, 1, (1, c)), requires_grad=True)
    run("broadcast_to", lambda: nm.reduce_sum(nm.mul(nm.broadcast_to(row, (h, c)), ma)), {"x": row})
    idx = rng.integers(0, h, size=2 * h)
    run("gather_rows", lambda: nm.reduce_sum(nm.mul(nm.gather_rows(ma, idx), nm.gather_rows(ma, idx))), {"x": ma})

    cin, cout = c, c + 1
    cx = Tensor(rng.uniform(-1, 1, (h, w, cin)), requires_grad=True)
    ck = Tensor(rng.uniform(-1, 1, (3, 3, cin, cout)), requires_grad=True)
    cb = Tensor(rng.uniform(-1, 1, (cout,)), requires_grad=True)
    run(
        "conv2d",
        lambda: nm.reduce_mean(nm.mul(nm.conv2d(cx, ck, cb, 1, 1), nm.conv2d(cx, ck, cb, 1, 1))),
        {"x": cx, "k": ck, "b": cb},
    )
    run(
        "conv2d_stride2",
        lambda: nm.reduce_mean(nm.mul(nm.conv2d(cx, ck, cb, 2, 1), nm.conv2d(cx, ck, cb, 2, 1))),
        {"x": cx, "k": ck, "b": cb},
    )
    tk = Tensor(rng.uniform(-1, 1, (3, 3, cout, cin)), requires_grad=True)
    run(
        "conv_transpose2d",
        lambda: nm.reduce_mean(nm.mul(nm.conv_transpose2d(cx, tk), nm.conv_transpose2d(cx, tk))),
        {"x": cx, "k": tk},
    )
    ph, pw = h + h % 2, w + w % 2  # even extents
    px = Tensor(_tiebreak_windows(rng, (ph, pw, c)), requires_grad=True)
    run("maxpool2d", lambda: nm.reduce_sum(nm.mul(nm.maxpool2d(px), nm.maxpool2d(px))), {"x": px})
    return results


def _composite_checks(rng: np.random.Generator) -> list[CheckResult]:
    results = []

    def run(name, f, params):
        results.append(_check(name, f, params, COMPOSITE_TOL))

    h, w, c, m = 4, 4, 3, 2
    bank = rspu.AttentionBank.create(c, m, rng)
    x = Tensor(rng.uniform(-1, 1, (h, w, c)), requires_grad=True)
    proj = Tensor(rng.uniform(-1, 1, (h, w, c)))
    proj_p = Tensor(rng.uniform(-1, 1, (m, c)))
    proj_a = Tensor(rng.uniform(-1, 1, (h * w, m)))

    def rspu_loss():
        fused, prototypes, alpha = rspu.rspu_forward(x, bank)
        return nm.add(
            nm.reduce_sum(nm.mul(fused, proj)),
            nm.add(nm.reduce_sum(nm.mul(prototypes, proj_p)), nm.reduce_sum(nm.mul(alpha, proj_a))),
        )

    run("rspu_forward", rspu_loss, {"x": x, "bank.weight": bank.weight, "bank.bias": bank.bias})

    feats = Tensor(rng.uniform(-1, 1, (h, w, c)), requires_grad=True)
    protos = Tensor(rng.uniform(-1, 1, (3, c)), requires_grad=True)
    alpha_rows = nm.softmax_axis(Tensor(rng.uniform(-2, 2, (h * w, 3))), axis=1)
    cfg = LossConfig()
    run("cohesion_loss", lambda: ls.cohesion_loss(feats, protos, alpha_rows), {"x": feats, "P": protos})
    run("divergence_loss", lambda: ls.divergence_loss(protos, cfg.delta), {"P": protos})
    run(
        "feature_prototype_loss",
        lambda: ls.feature_prototype_loss(feats, protos, alpha_rows, cfg),
        {"x": feats, "P": protos},
    )

    # keep |a - b| bounded away from the absolute-value kink
    ya = Tensor(rng.uniform(0.2, 0.9, (h, w, 3)), requires_grad=True)
    yb = Tensor(rng.uniform(-0.9, -0.2, (h, w, 3)), requires_grad=True)
    yc = Tensor(rng.uniform(0.2, 0.9, (h, w, 3)), requires_grad=True)
    run("background_consistency", lambda: ls.background_consistency(ya, yb), {"a": ya, "b": yb})
    run("cross_consistency", lambda: ls.cross_consistency(ya, yb), {"a": ya, "b": yb})
    run(
        "self_consistency",
        lambda: ls.self_consistency(ya, yb, nm.mul(yc, 0.1)),
        {"x": ya, "y": yb, "r": yc},
    )

    terms = {k: Tensor(rng.uniform(0.1, 1.0, ()), requires_grad=True) for k in ("coh", "div", "b", "c", "s")}
    run(
        "total_loss",
        lambda: ls.total_loss(terms["coh"], terms["div"], terms["b"], terms["c"], terms["s"], cfg)[0],
        terms,
    )
    return results


def _end_to_end_check(rng: np.random.Generator) -> CheckResult:
    """total_loss through a desk-width model on a 16x16 pair."""
    cfg = ModelConfig(input_size=(16, 16), base_channels=8, depth=2, prototype_count=4, seed=int(rng.integers(1 << 31)))
    model = build_model(cfg)
    # randomize the final layer: at the zero init r_hat is identically 0, which
    # parks the self-consistency term exactly on the |.| kink and the clamp edge
    model.final.kernel.data = rng.normal(0.0, 0.02, size=model.final.kernel.shape)
    model.final.bias.data = rng.normal(0.0, 0.02, size=model.final.bias.shape)
    # [0, 1] frames; normalized they span [-0.7, 0.7], clear of the clamp edges
    frame_w = rng.uniform(0.15, 0.85, (16, 16, 3))
    frame_v = rng.uniform(0.15, 0.85, (16, 16, 3))
    loss_cfg = LossConfig()

    def f():
        return ls.total_loss(*pair_terms(model, frame_w, frame_v, loss_cfg), loss_cfg)[0]

    return _check("end_to_end", f, model.parameters(), COMPOSITE_TOL)


def run_suite(seed: int = 0, sizes: tuple[int, int, int] = (4, 4, 3)) -> list[CheckResult]:
    """Run every gradient check; returns one result per check, in suite order."""
    rng = np.random.default_rng([int(seed), 0x6C])
    results = _elementary_checks(rng, sizes)
    results += _composite_checks(rng)
    results.append(_end_to_end_check(rng))
    return results
