"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything is computed in 64-bit floats with channel-last (H, W, C) layout.
Operations record themselves onto the innermost active :class:`Graph`; calling
:func:`backward` on a scalar replays the tape in reverse and accumulates
gradients into every participating tensor with ``requires_grad`` set.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "no_recording",
    "backward",
    "finite_diff_grad",
    "add",
    "sub",
    "mul",
    "div",
    "absolute",
    "relu",
    "sigmoid",
    "clamp",
    "softmax_axis",
    "reduce_sum",
    "reduce_mean",
    "vector_l2",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "broadcast_to",
    "gather_rows",
    "conv2d",
    "conv_transpose2d",
    "maxpool2d",
]


class Tensor:
    """Dense multi-dimensional float64 array, optionally tracked for gradients.

    A tensor is immutable once it participates in a recorded graph; only the
    ``grad`` buffer is written (by :func:`backward`). Non-finite values are
    rejected at construction so NaN/Inf surface as errors, never as state.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # asarray with order='C' keeps 0-d scalars 0-d (ascontiguousarray would not)
        arr = np.asarray(data, dtype=np.float64, order="C")
        # any NaN or Inf makes the sum non-finite; only then (or when finite
        # values overflow it) is the elementwise scan needed
        if not math.isfinite(arr.sum()) and not np.all(np.isfinite(arr)):
            raise ValueError("tensor contains non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Graph:
    """Tape of executed operations, in execution (topological) order.

    Use as a context manager around a forward pass; one :func:`backward` is
    allowed per recording.
    """

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GRAPH_STACK.pop()

    def __len__(self) -> int:
        return len(self._records)


_GRAPH_STACK: list[Graph] = []
_SUSPEND_DEPTH = 0


def _active_graph() -> Graph | None:
    if _SUSPEND_DEPTH or not _GRAPH_STACK:
        return None
    return _GRAPH_STACK[-1]


@contextmanager
def no_recording():
    """Suppress tape recording inside the block (used by the finite-diff oracle)."""
    global _SUSPEND_DEPTH
    _SUSPEND_DEPTH += 1
    try:
        yield
    finally:
        _SUSPEND_DEPTH -= 1


def _emit(out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    graph = _active_graph()
    if graph is not None and out.requires_grad:
        graph._records.append((inputs, out, vjp))
    return out


def backward(loss: Tensor, graph: Graph) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar (size 1) and ``graph`` must hold exactly one
    un-consumed recording of the forward pass that produced it.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if graph._consumed:
        raise RuntimeError("graph already backpropagated; record a new forward pass")
    graph._consumed = True
    loss.grad = np.ones_like(loss.data)
    for inputs, out, vjp in reversed(graph._records):
        if out.grad is None:
            continue
        grads = vjp(out.grad)
        for tensor, g in zip(inputs, grads):
            if g is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                # the bits of zeros-then-add (-0.0 included) in one pass
                tensor.grad = np.add(0.0, g, out=np.empty_like(tensor.data))
            else:
                tensor.grad += g


def finite_diff_grad(f: Callable[[Tensor], "Tensor | float"], x: Tensor, h: float = 1e-6, coords=None) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``f`` at ``x``.

    Independent oracle for gradient checks: perturbs ``x.data`` in place one
    flat coordinate at a time, evaluates ``f(x)`` with recording suspended so
    it never touches the tape, and restores every value it moved. Returns the
    full gradient shaped like ``x``, or, given flat ``coords``, one derivative
    per coordinate.
    """
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    flat = x.data.reshape(-1)  # a view: Tensor data is C-contiguous
    probe = range(flat.size) if coords is None else coords
    grad = np.zeros(len(probe))
    with no_recording():
        for n, i in enumerate(probe):
            orig = flat[i]
            flat[i] = orig + h
            fp = _scalar(f(x))
            flat[i] = orig - h
            fm = _scalar(f(x))
            flat[i] = orig
            grad[n] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape) if coords is None else grad


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a gradient onto a scalar operand's shape (the only broadcast we allow)."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def _binary(a, b, name: str, fwd, vjp_a, vjp_b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ValueError(f"{name}: shape mismatch {a.shape} vs {b.shape} (only scalar broadcast allowed)")
    out = Tensor(fwd(a.data, b.data), a.requires_grad or b.requires_grad)

    def vjp(g):
        ga = _reduce_to(vjp_a(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _reduce_to(vjp_b(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _emit(out, (a, b), vjp)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(
        a, b, "div",
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


def _unary(x, fwd, make_vjp) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(fwd(x.data), x.requires_grad)
    vjp_inner = make_vjp(x.data, out.data)
    return _emit(out, (x,), lambda g: (vjp_inner(g),))


def absolute(x) -> Tensor:
    # subgradient at 0 defined as 0
    return _unary(x, np.abs, lambda xd, od: lambda g: g * np.sign(xd))


def relu(x) -> Tensor:
    # derivative at 0 defined as 0
    return _unary(x, lambda xd: np.maximum(xd, 0.0), lambda xd, od: lambda g: g * (xd > 0))


def _sigmoid_values(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x) -> Tensor:
    return _unary(x, _sigmoid_values, lambda xd, od: lambda g: g * od * (1.0 - od))


def clamp(x, lo: float = -1.0, hi: float = 1.0) -> Tensor:
    # derivative 1 on [lo, hi], 0 outside
    return _unary(
        x,
        lambda xd: np.clip(xd, lo, hi),
        lambda xd, od: lambda g: g * ((xd >= lo) & (xd <= hi)),
    )


def softmax_axis(x, axis: int) -> Tensor:
    """Softmax along one axis, computed with max-subtraction for stability."""
    x = _as_tensor(x)
    axis = _check_axis(axis, x.data.ndim, "softmax_axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s, x.requires_grad)

    def vjp(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _emit(out, (x,), vjp)


def _check_axis(axis: int, ndim: int, name: str) -> int:
    if not -ndim <= axis < ndim:
        raise ValueError(f"{name}: axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


def _reduce(x, axes: Sequence[int] | None, mean: bool) -> Tensor:
    """Sum or mean over the given axes (all axes when None)."""
    x = _as_tensor(x)
    ndim = x.data.ndim
    if axes is None:
        norm_axes = tuple(range(ndim))
    else:
        norm_axes = tuple(_check_axis(a, ndim, "reduce") for a in axes)
        if len(set(norm_axes)) != len(norm_axes):
            raise ValueError(f"reduce: duplicate axes {tuple(axes)}")
    count = int(np.prod([x.shape[a] for a in norm_axes])) if norm_axes else 1
    data = x.data.mean(axis=norm_axes) if mean else x.data.sum(axis=norm_axes)
    out = Tensor(data, x.requires_grad)

    def vjp(g):
        expanded = np.expand_dims(g, norm_axes) if norm_axes else g
        full = np.broadcast_to(expanded, x.shape).copy()
        if mean:
            full /= count
        return (full,)

    return _emit(out, (x,), vjp)


def reduce_sum(x, axes: Sequence[int] | None = None) -> Tensor:
    return _reduce(x, axes, mean=False)


def reduce_mean(x, axes: Sequence[int] | None = None) -> Tensor:
    return _reduce(x, axes, mean=True)


def vector_l2(x, axis: int) -> Tensor:
    """Euclidean norm along one axis; the zero-vector subgradient is 0."""
    x = _as_tensor(x)
    axis = _check_axis(axis, x.data.ndim, "vector_l2")
    norms = np.sqrt((x.data * x.data).sum(axis=axis))
    out = Tensor(norms, x.requires_grad)

    def vjp(g):
        n = np.expand_dims(norms, axis)
        coef = np.divide(x.data, n, out=np.zeros_like(x.data), where=n > 0)
        return (np.expand_dims(g, axis) * coef,)

    return _emit(out, (x,), vjp)


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def vjp(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _emit(out, (a, b), vjp)


def transpose(x) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ValueError(f"transpose expects a 2-d tensor, got shape {x.shape}")
    out = Tensor(x.data.T.copy(), x.requires_grad)
    return _emit(out, (x,), lambda g: (g.T,))


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ValueError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape), x.requires_grad)
    return _emit(out, (x,), lambda g: (g.reshape(x.shape),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    ndim = tensors[0].data.ndim
    axis = _check_axis(axis, ndim, "concat")
    for t in tensors[1:]:
        if t.data.ndim != ndim or any(
            i != axis and t.shape[i] != tensors[0].shape[i] for i in range(ndim)
        ):
            raise ValueError(f"concat: shape mismatch {[t.shape for t in tensors]}")
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
    )
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _emit(out, tuple(tensors), vjp)


def broadcast_to(x, shape: Sequence[int]) -> Tensor:
    """Explicit broadcast; the elementwise ops themselves never broadcast."""
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    try:
        data = np.broadcast_to(x.data, shape).copy()
    except ValueError:
        raise ValueError(f"broadcast_to: cannot broadcast {x.shape} to {shape}") from None

    def vjp(g):
        pad = len(shape) - x.data.ndim
        if pad:
            g = g.sum(axis=tuple(range(pad)))
        expanded = tuple(i for i in range(x.data.ndim) if x.shape[i] == 1 and g.shape[i] != 1)
        if expanded:
            g = g.sum(axis=expanded, keepdims=True)
        return (g,)

    return _emit(Tensor(data, x.requires_grad), (x,), vjp)


def gather_rows(x, indices) -> Tensor:
    """Select rows x[indices[i]]; backward scatter-adds into the source rows only."""
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a 1-d index array")
    if x.data.ndim < 1 or (idx.size and (idx.min() < 0 or idx.max() >= x.shape[0])):
        raise ValueError(f"gather_rows: indices out of range for shape {x.shape}")
    out = Tensor(x.data[idx], x.requires_grad)

    width = math.prod(x.shape[1:])

    def vjp(g):
        # bincount adds in index order, as np.add.at does, so the sums agree bit for bit
        flat = (idx[:, None] * width + np.arange(width)).ravel()
        gx = np.bincount(flat, weights=g.ravel(), minlength=x.size)
        return (gx.reshape(x.shape),)

    return _emit(out, (x,), vjp)


# -- spatial operators (channel-last layout) --------------------------------


def _windows(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Stride-spaced kh x kw patches as a view of ``padded``: [H', W', kh, kw, C]."""
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(0, 1))
    return windows[::stride, ::stride].transpose(0, 1, 3, 4, 2)


def _conv_out_size(size: int, k: int, pad: int, stride: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _patches(xd: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """The whole im2col patch matrix of ``xd``: [H', W', kh, kw, C], C-contiguous."""
    if pad:
        xd = np.pad(xd, ((pad, pad), (pad, pad), (0, 0)))
    return np.ascontiguousarray(_windows(xd, kh, kw, stride))


# Bytes of patch matrix built at a time. Blocks this large stay far above the
# GEMMs (M*N*K <= 1e6) that OpenBLAS hands to its small-matrix kernel, whose
# sums differ in the last bits.
_BLOCK_BYTES = 32 << 20


def _patch_blocks(oh: int, ow: int, kshape, stride: int, pad: int) -> int:
    """Row blocks a conv's float64 patch matrix is built in; 1 means whole.

    A 1x1 stride-1 unpadded kernel's patch matrix is its input itself, which a
    copy into a buffer would only cost time, so it is always whole.
    """
    kh, kw, cin, _ = kshape
    if kh == kw == stride == 1 and pad == 0:
        return 1
    return min(oh, -(-oh * ow * kh * kw * cin * 8 // _BLOCK_BYTES))


def _conv_forward(xd: np.ndarray, kd: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """im2col convolution of ``xd`` with ``kd``; keeps no patches.

    A patch matrix larger than ``_BLOCK_BYTES`` is built a block of whole
    output rows at a time in one reused buffer, each block's GEMM writing
    straight into the output. A block's input rows are copied into one reused
    slab with zero edges, so the input is never padded whole. Splitting a GEMM
    by rows keeps the order of every output's sum, so the output is the same,
    bit for bit, as that of the one GEMM over all patches.
    """
    kh, kw, cin, cout = kd.shape
    h, w, _ = xd.shape
    oh, ow = _conv_out_size(h, kh, pad, stride), _conv_out_size(w, kw, pad, stride)
    k = kh * kw * cin
    kmat = kd.reshape(k, cout)
    blocks = _patch_blocks(oh, ow, kd.shape, stride, pad)
    if blocks == 1:
        return (_patches(xd, kh, kw, stride, pad).reshape(oh * ow, k) @ kmat).reshape(oh, ow, cout)
    # even bounds: block heights differ by at most one row
    bounds = [oh * i // blocks for i in range(blocks + 1)]
    tallest = -(-oh // blocks)
    slab = np.zeros(((tallest - 1) * stride + kh, w + 2 * pad, cin))
    buf = np.empty((tallest, ow, kh, kw, cin))
    out = np.empty((oh, ow, cout))
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        top = r0 * stride - pad  # input row of the slab's first row
        n = (r1 - r0 - 1) * stride + kh
        lo = max(top, 0)
        hi = max(min(top + n, h), lo)
        slab[: lo - top] = 0.0
        slab[lo - top : hi - top, pad : pad + w] = xd[lo:hi]
        slab[hi - top : n] = 0.0
        rows = buf[: r1 - r0]
        np.copyto(rows, _windows(slab[:n], kh, kw, stride))
        np.matmul(rows.reshape(-1, k), kmat, out=out[r0:r1].reshape(-1, cout))
    return out


def _tap_span(t: int, size: int, out_size: int, stride: int, pad: int) -> tuple[int, int, int]:
    """Output positions [lo, hi) whose kernel tap ``t`` falls inside the
    unpadded input along one axis, and the input position of the first one."""
    lo = min(max(-(-(pad - t) // stride), 0), out_size)
    hi = max(min((size - 1 + pad - t) // stride + 1, out_size), lo)
    return lo, hi, lo * stride + t - pad


def _conv_vjp_kernel(xd: np.ndarray, g: np.ndarray, kshape, stride: int, pad: int) -> np.ndarray:
    """Adjoint of _conv_forward with respect to the kernel: patches.T @ g.

    A patch matrix that ``_conv_forward`` builds whole is rebuilt whole for
    one GEMM. A larger one is never built: each kernel tap's (H', W', Cin)
    slice of it is copied into one reused buffer, zero where the tap falls on
    padding, and its GEMM writes that tap's rows of the gradient. Below the
    block budget the two differ in the last bits (OpenBLAS's small-matrix
    kernel), above it they agree, so the split keeps results bit for bit.
    """
    kh, kw, cin, cout = kshape
    h, w, _ = xd.shape
    oh, ow = g.shape[:2]
    g2 = g.reshape(oh * ow, cout)
    if _patch_blocks(oh, ow, kshape, stride, pad) == 1:
        gk = _patches(xd, kh, kw, stride, pad).reshape(oh * ow, kh * kw * cin).T @ g2
        return gk.reshape(kshape)
    gk = np.empty(kshape)
    tap = np.empty((oh, ow, cin))
    for i in range(kh):
        r0, r1, x0 = _tap_span(i, h, oh, stride, pad)
        for j in range(kw):
            c0, c1, y0 = _tap_span(j, w, ow, stride, pad)
            tap[:r0] = 0.0
            tap[r1:] = 0.0
            tap[:, :c0] = 0.0
            tap[:, c1:] = 0.0
            tap[r0:r1, c0:c1] = xd[x0 : x0 + stride * (r1 - r0) : stride, y0 : y0 + stride * (c1 - c0) : stride]
            np.matmul(tap.reshape(oh * ow, cin).T, g2, out=gk[i, j])
    return gk


def _conv_vjp_input(g: np.ndarray, kd: np.ndarray, in_shape, stride: int, pad: int) -> np.ndarray:
    """Adjoint of _conv_forward with respect to the input, one kernel tap at a time.

    Each tap's (H'*W', Cin) product ``g @ kd[i, j].T`` is scatter-added into
    the input positions it reaches as soon as it is made, so no patch-sized
    matrix is built. Taps go in row-major order, so every input element sums
    its contributions in the order of the one GEMM over all taps followed by
    the same scatter-adds.
    """
    kh, kw, cin, cout = kd.shape
    h, w, _ = in_shape
    oh, ow = g.shape[:2]
    g2 = g.reshape(oh * ow, cout)
    gx = np.zeros(in_shape)
    part = np.empty((oh, ow, cin))
    for i in range(kh):
        r0, r1, x0 = _tap_span(i, h, oh, stride, pad)
        for j in range(kw):
            c0, c1, y0 = _tap_span(j, w, ow, stride, pad)
            np.matmul(g2, kd[i, j].T, out=part.reshape(oh * ow, cin))
            gx[x0 : x0 + stride * (r1 - r0) : stride, y0 : y0 + stride * (c1 - c0) : stride] += part[r0:r1, c0:c1]
    return gx


def conv2d(x, kernel, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d correlation of an [H, W, Cin] tensor with a [kh, kw, Cin, Cout] kernel.

    Stride-1 3x3 convolutions with padding 1 preserve the spatial extent;
    1x1 kernels serve as per-pixel affine maps.
    """
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    if stride < 1:
        raise ValueError(f"conv2d: non-positive stride {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: negative padding {padding}")
    if x.data.ndim != 3 or kernel.data.ndim != 4 or x.shape[2] != kernel.shape[2]:
        raise ValueError(f"conv2d: shape mismatch input {x.shape}, kernel {kernel.shape}")
    kh, kw, _, cout = kernel.shape
    if _conv_out_size(x.shape[0], kh, padding, stride) < 1 or _conv_out_size(x.shape[1], kw, padding, stride) < 1:
        raise ValueError(f"conv2d: kernel {kernel.shape} does not fit input {x.shape} with padding {padding}")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (cout,):
            raise ValueError(f"conv2d: bias shape {bias.shape} does not match {cout} output channels")

    out_data = _conv_forward(x.data, kernel.data, stride, padding)
    if bias is not None:
        out_data += bias.data
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    out = Tensor(out_data, any(t.requires_grad for t in inputs))

    def vjp(g):
        gx = _conv_vjp_input(g, kernel.data, x.shape, stride, padding) if x.requires_grad else None
        gk = None
        if kernel.requires_grad:
            gk = _conv_vjp_kernel(x.data, g, kernel.shape, stride, padding)
        if bias is None:
            return gx, gk
        gb = g.sum(axis=(0, 1)) if bias.requires_grad else None
        return gx, gk, gb

    return _emit(out, inputs, vjp)


def conv_transpose2d(x, kernel) -> Tensor:
    """Stride-2 transposed convolution mapping [H, W, Cin] to [2H, 2W, Cout].

    The kernel layout is [kh, kw, Cout, Cin]. Implemented as the exact adjoint
    of a stride-2 convolution, so the gradient with respect to the input is
    that strided convolution itself.
    """
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4 or kernel.shape[3] != x.shape[2]:
        raise ValueError(f"conv_transpose2d: shape mismatch input {x.shape}, kernel {kernel.shape}")
    kh, kw, cout, cin = kernel.shape
    h, w, _ = x.shape
    stride = 2
    pad_h, pad_w = (kh - 1) // 2, (kw - 1) // 2
    if pad_h != pad_w or kh != kw:
        raise ValueError(f"conv_transpose2d: kernel must be square, got {kernel.shape}")
    # Adjoint consistency: a stride-2 conv with this padding maps 2H back to H.
    if _conv_out_size(2 * h, kh, pad_h, stride) != h or _conv_out_size(2 * w, kw, pad_w, stride) != w:
        raise ValueError(f"conv_transpose2d: kernel size {kh} incompatible with exact 2x upscaling")

    out_shape = (2 * h, 2 * w, cout)
    out_data = _conv_vjp_input(x.data, kernel.data, out_shape, stride, pad_h)
    out = Tensor(out_data, x.requires_grad or kernel.requires_grad)

    def vjp(g):
        gx = _conv_forward(g, kernel.data, stride, pad_h) if x.requires_grad else None
        gk = None
        if kernel.requires_grad:
            gk = _conv_vjp_kernel(g, x.data, kernel.shape, stride, pad_h)
        return gx, gk

    return _emit(out, (x, kernel), vjp)


def maxpool2d(x) -> Tensor:
    """2x2 max pooling with stride 2; gradient routes to the window argmax.

    Ties break toward the first position in (row, column) window order.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ValueError(f"maxpool2d expects an [H, W, C] tensor, got {x.shape}")
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2d: odd spatial extent {h}x{w}")
    hh, ww = h // 2, w // 2
    windows = x.data.reshape(hh, 2, ww, 2, c).transpose(0, 2, 1, 3, 4).reshape(hh, ww, 4, c)
    argmax = windows.argmax(axis=2)  # first occurrence on ties
    out = Tensor(np.take_along_axis(windows, argmax[:, :, None, :], axis=2)[:, :, 0, :], x.requires_grad)

    def vjp(g):
        scatter = np.zeros_like(windows)
        np.put_along_axis(scatter, argmax[:, :, None, :], g[:, :, None, :], axis=2)
        gx = scatter.reshape(hh, ww, 2, 2, c).transpose(0, 2, 1, 3, 4).reshape(h, w, c)
        return (np.ascontiguousarray(gx),)

    return _emit(out, (x,), vjp)
