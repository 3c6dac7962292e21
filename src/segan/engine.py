"""Reverse-mode autodiff over batched 1-D signal tensors.

Define-by-run: every op computes its result and hands it to `_make` with its
parents and a closure that routes the upstream gradient back to them; `_make`
alone decides whether to record that node (gradients enabled and some parent
requiring grad). A closure keeps only its parents' data and its own output.
`backward(loss)` walks the recorded graph in reverse topological order and
releases each recorded node's gradient once its closure has passed it on,
so the walk holds a few gradients at a time, whatever the graph's depth.
Convention for conv-shaped data is (batch, length, channels); reductions
and reshapes may produce other ranks.

Only the operations this model family needs are provided. float32 is the
training dtype; build the same graph from float64 arrays when verifying
against finite differences.
"""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager

import numpy as np

from .errors import NonScalarLossError, ShapeMismatchError

LEAKY_ALPHA = 0.3       # LeakyReLU negative-side slope
VBN_EPS = 1e-5          # virtual batch norm variance floor
_grad_enabled = True
_check_finite = False


def set_debug_checks(on: bool) -> None:
    """Enable per-op finiteness assertions (slow; off by default)."""
    global _check_finite
    _check_finite = bool(on)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy array plus the bookkeeping needed for backprop.

    An intermediate's `grad` is allocated when backward first reaches it
    and released (set to None) once backward has passed it to the parents;
    leaves keep theirs. Parameters pre-allocate it so unused parameters
    report zero gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def sum(self) -> "Tensor":
        return _reduce(self, np.sum, scale=1.0)

    def mean(self) -> "Tensor":
        return _reduce(self, np.mean, scale=1.0 / self.data.size)

    def mean_axis(self, axis: int) -> "Tensor":
        """Mean along one axis, keepdims=True."""
        n = self.data.shape[axis]

        def back(g):
            _accum(self, np.broadcast_to(g / n, self.data.shape))
        return _make(np.mean(self.data, axis=axis, keepdims=True), (self,), back)

    def reshape(self, *shape) -> "Tensor":
        orig = self.data.shape

        def back(g):
            _accum(self, g.reshape(orig))
        return _make(self.data.reshape(*shape), (self,), back)


def _unwritten_zeros(shape, dtype) -> np.ndarray:
    """A zero array on its own anonymous mapping, whose pages become
    resident only when written. np.zeros gives that only while calloc can
    take fresh pages: once it reuses freed heap memory it clears it by
    writing, so in a process that loads one model after another the
    buffers would become resident again."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype, count).reshape(shape)


class Parameter(Tensor):
    """A named trainable tensor whose gradient buffer always exists and
    starts at zero.

    The buffer holds no resident memory until a backward pass or zero_grad
    first writes it, so a model loaded only to run forward costs its
    weights alone.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name
        self.grad = _unwritten_zeros(self.data.shape, self.data.dtype)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _make(data: np.ndarray, parents, back) -> Tensor:
    """Wrap an op's result; the one place graph nodes are recorded. The
    parents (None entries, an absent bias, dropped) and `back` are kept only
    when gradients are on and some parent requires grad."""
    if _check_finite and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values produced by an op")
    parents = tuple(p for p in parents if p is not None)
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = parents
        out._backward = back
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def _reduce(x: Tensor, fn, scale: float) -> Tensor:
    def back(g):
        _accum(x, np.broadcast_to(g * scale, x.data.shape).astype(x.data.dtype, copy=False))
    return _make(np.asarray(fn(x.data)), (x,), back)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return _make(a.data + b.data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))
    return _make(a.data - b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _make(a.data * b.data, (a, b), back)


def div(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
    return _make(a.data / b.data, (a, b), back)


def sqrt(x: Tensor) -> Tensor:
    root = np.sqrt(x.data)

    def back(g):
        _accum(x, g * (0.5 / root))
    return _make(root, (x,), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(g):
        _accum(x, g * (1.0 - y * y))
    return _make(y, (x,), back)


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at x == 0 (np.sign convention)."""
    def back(g):
        _accum(x, g * np.sign(x.data))
    return _make(np.abs(x.data), (x,), back)


def leaky_relu(x: Tensor) -> Tensor:
    """prelu with every channel's slope fixed at LEAKY_ALPHA."""
    return prelu(x, Tensor(np.full(x.data.shape[-1], LEAKY_ALPHA, x.data.dtype)))


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    """Rectifier with a trainable negative-side slope per channel.

    `slopes` has one entry per channel (last axis of x).
    """
    if slopes.data.shape != (x.data.shape[-1],):
        raise ShapeMismatchError(
            f"prelu slopes {slopes.data.shape} do not match channels {x.data.shape[-1]}")
    a = slopes.data
    # For 0 < a <= 1, max(x, a*x) picks x where x > 0 and a*x elsewhere, and
    # equal operands carry the same bits. Other slopes keep the np.where form
    # on their channels: at a == 0, 0 * inf is NaN, and for a < 0 the sign of
    # a zero result would rest on which operand np.maximum returns on a tie.
    y = a * x.data
    np.maximum(x.data, y, out=y)
    outside = ~((a > 0) & (a <= 1))
    if outside.any():
        xo = x.data[..., outside]
        y[..., outside] = np.where(xo > 0, xo, a[outside] * xo)

    def back(g):
        pos = x.data > 0
        _accum(x, g * np.where(pos, 1.0, a))
        if slopes.requires_grad:
            neg_part = np.where(pos, 0.0, x.data) * g
            _accum(slopes, neg_part.sum(axis=tuple(range(x.data.ndim - 1))))
    return _make(y, (x, slopes), back)


# ---------------------------------------------------------------------------
# structural ops


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel (last) axis; batch/length must match."""
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeMismatchError(
            f"concat_channels leading dims differ: {a.data.shape} vs {b.data.shape}")
    ca = a.data.shape[-1]

    def back(g):
        _accum(a, g[..., :ca])
        _accum(b, g[..., ca:])
    return _make(np.concatenate([a.data, b.data], axis=-1), (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on flattened activations: (B, N) @ (N, M) + (M,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatchError(
            f"linear expects (B,N)@(N,M); got {x.data.shape} and {w.data.shape}")
    y = x.data @ w.data
    if b is not None:
        y = y + b.data

    def back(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        if b is not None:
            _accum(b, g.sum(axis=0))
    return _make(y, (x, w, b), back)


# ---------------------------------------------------------------------------
# convolutions

def _conv_geometry(length: int, width: int, stride: int) -> tuple[int, int, int]:
    """Output length and total/left zero padding for same-style conv."""
    out_len = -(-length // stride)
    pad_total = max((out_len - 1) * stride + width - length, 0)
    return out_len, pad_total, pad_total // 2


def _check_conv(op: str, x: Tensor, w: Tensor, b: Tensor | None, stride: int,
                in_axis: int) -> tuple[int, int]:
    """Validate a conv call; return (length, width). `in_axis` is the
    weight axis that meets x's channels: 1 for conv1d, 2 for its transpose.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeMismatchError(f"{op} expects a (B,L,C) input and a (width,C,C) weight")
    _, length, cin = x.data.shape
    width, wcin, cout = w.data.shape[0], w.data.shape[in_axis], w.data.shape[3 - in_axis]
    if wcin != cin:
        raise ShapeMismatchError(f"{op} channel mismatch: input {cin}, weight {wcin}")
    if width % 2 == 0:
        raise ShapeMismatchError(f"{op} filter width must be odd, got {width}")
    if length < 1 or stride < 1:
        raise ShapeMismatchError(f"{op} needs L >= 1 and stride >= 1")
    if b is not None and b.data.shape != (cout,):
        raise ShapeMismatchError(f"{op} bias shape {b.data.shape} != ({cout},)")
    return length, width


# Three kernels serve both convolutions. A tap k connects long position
# o*stride + k with short position o through w[k] (long channels, short
# channels): conv1d runs long -> short, conv1d_transpose short -> long.
# Each kernel is one GEMM per block of short positions over im2col columns
# (Chellapilla et al. 2006): row o holds the width taps of long channels
# that meet short position o. A block's columns may take the larger of
# _BLOCK_BYTES and the bytes of the layer's own weights, so a layer whose
# weights outweigh its columns runs as one GEMM and reads each weight once,
# and the extra scratch never exceeds memory the weights already hold.
# Blocks hold whole examples when one fits in that bound, else runs of
# positions of one example, so the scratch memory and the summation order
# depend on shapes alone.

_BLOCK_BYTES = 2 << 20


def _pad(a: np.ndarray, pad_total: int, pad_left: int) -> np.ndarray:
    out = np.zeros((a.shape[0], a.shape[1] + pad_total, a.shape[2]), dtype=a.dtype)
    out[:, pad_left:pad_left + a.shape[1]] = a
    return out


def _columns(long: np.ndarray, stride: int, short_len: int, width: int) -> np.ndarray:
    """Read-only (B, short_len, width, C) view: [:, o] is long[:, o*stride : o*stride + width]."""
    sb, sl, sc = long.strides
    return np.lib.stride_tricks.as_strided(
        long, (long.shape[0], short_len, width, long.shape[2]), (sb, stride * sl, sl, sc),
        writeable=False)


def _blocks(batch: int, rows: int, row_bytes: int, weight_bytes: int) -> list[tuple[slice, slice]]:
    """(examples, positions) slices covering batch x rows, each block at
    most max(_BLOCK_BYTES, weight_bytes) of row_bytes-sized rows (one row at
    the least)."""
    per = max(1, max(_BLOCK_BYTES, weight_bytes) // row_bytes)
    if per >= rows:
        n = per // rows
        return [(slice(b, b + n), slice(0, rows)) for b in range(0, batch, n)]
    return [(slice(b, b + 1), slice(o, min(o + per, rows)))
            for b in range(batch) for o in range(0, rows, per)]


def _correlate(long: np.ndarray, w: np.ndarray, stride: int, short_len: int, dtype) -> np.ndarray:
    """Long -> short: out[:, o] = sum_k long[:, o*stride + k] @ w[k]."""
    width, c_long, c_short = w.shape
    cols = _columns(long, stride, short_len, width)
    wk = w.reshape(width * c_long, c_short)
    out = np.empty((long.shape[0], short_len, c_short), dtype=dtype)
    for ex, pos in _blocks(long.shape[0], short_len, width * c_long * long.itemsize, w.nbytes):
        blk = cols[ex, pos]
        out[ex, pos] = (blk.reshape(-1, width * c_long) @ wk).reshape(*blk.shape[:2], c_short)
    return out


def _scatter(short: np.ndarray, w: np.ndarray, stride: int, long_len: int, dtype) -> np.ndarray:
    """Short -> long, the adjoint of _correlate: out[:, o*stride + k] += short[:, o] @ w[k].T.

    Each block's columns come from one GEMM and are folded into the output
    by strided adds: stride taps per add (contiguous runs of stride * C_long
    values), or one tap per add when C_long is 1, where runs of two values
    make numpy's adds 2-4x slower.
    """
    width, c_long, c_short = w.shape
    batch, short_len = short.shape[:2]
    group = stride if c_long > 1 else 1
    # room for every tap of every block: rows of stride positions
    rows = max(-(-long_len // stride), short_len + -(-width // stride))
    out = np.zeros((batch, rows * stride * c_long), dtype=dtype)
    wk = w.reshape(width * c_long, c_short).T
    step = stride * c_long
    for ex, pos in _blocks(batch, short_len, width * c_long * short.itemsize, w.nbytes):
        blk = short[ex, pos]
        n = blk.shape[1]
        cols = (blk.reshape(-1, c_short) @ wk).reshape(blk.shape[0], n, width * c_long)
        for k in range(0, width, group):
            c = min(group, width - k) * c_long
            at = (pos.start * stride + k) * c_long
            dst = out[ex, at:at + n * step].reshape(-1, n, step)
            dst[:, :, :c] += cols[:, :, k * c_long:k * c_long + c]
    return out.reshape(batch, rows * stride, c_long)[:, :long_len]


def _tap_grad(long: np.ndarray, short: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Gradient of <short, _correlate(long, w)> with respect to w."""
    width, c_long, c_short = w.shape
    cols = _columns(long, stride, short.shape[1], width)
    gw = np.zeros((c_short, width * c_long), dtype=w.dtype)
    for ex, pos in _blocks(long.shape[0], short.shape[1], width * c_long * long.itemsize, w.nbytes):
        gw += short[ex, pos].reshape(-1, c_short).T @ cols[ex, pos].reshape(-1, width * c_long)
    return gw.T.reshape(width, c_long, c_short)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 2) -> Tensor:
    """Strided cross-correlation. x: (B, L, Cin), w: (width, Cin, Cout).

    Zero padding totals width - stride when L divides by the stride (split
    floor left / ceil right), so output length is always ceil(L / stride).
    """
    length, width = _check_conv("conv1d", x, w, b, stride, in_axis=1)
    out_len, pad_total, pad_left = _conv_geometry(length, width, stride)
    y = _correlate(_pad(x.data, pad_total, pad_left), w.data, stride, out_len, x.data.dtype)
    if b is not None:
        y += b.data

    def back(g):
        # the padded input is rebuilt, not kept: it would live as long as the graph
        if b is not None:
            _accum(b, g.sum(axis=(0, 1)))
        if w.requires_grad:
            _accum(w, _tap_grad(_pad(x.data, pad_total, pad_left), g, w.data, stride))
        if x.requires_grad:
            gxp = _scatter(g, w.data, stride, length + pad_total, x.data.dtype)
            _accum(x, gxp[:, pad_left:pad_left + length])
    return _make(y, (x, w, b), back)


def conv1d_transpose(y: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 2) -> Tensor:
    """Fractional-stride upsampling conv: the linear adjoint of conv1d.

    y: (B, L, Cin), w: (width, Cout, Cin); output (B, L*stride, Cout).
    With zero bias, <conv1d(x, w), y> == <x, conv1d_transpose(y, w)> for any
    w viewed with swapped channel roles (same memory layout).
    """
    length, width = _check_conv("conv1d_transpose", y, w, b, stride, in_axis=2)
    out_len = length * stride
    _, pad_total, pad_left = _conv_geometry(out_len, width, stride)
    op = _scatter(y.data, w.data, stride, out_len + pad_total, y.data.dtype)
    res = op[:, pad_left:pad_left + out_len]
    res = res + b.data if b is not None else res.copy()

    def back(g):
        if b is not None:
            _accum(b, g.sum(axis=(0, 1)))
        gp = _pad(g, pad_total, pad_left)
        if w.requires_grad:
            _accum(w, _tap_grad(gp, y.data, w.data, stride))
        if y.requires_grad:
            _accum(y, _correlate(gp, w.data, stride, y.data.shape[1], y.data.dtype))
    return _make(res, (y, w, b), back)


# ---------------------------------------------------------------------------
# normalization and losses


def virtual_batch_norm(x: Tensor, ref_mean: np.ndarray, ref_var: np.ndarray,
                       n_ref: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each example with reference-batch stats blended 1/(n_ref+1)
    with the example's own per-channel stats.

    ref_mean/ref_var are frozen arrays (no gradient); gamma/beta are
    per-channel trainables. Differentiable through the example's own
    mean/variance contribution.
    """
    w_ref = n_ref / (n_ref + 1.0)
    w_new = 1.0 / (n_ref + 1.0)
    dt = x.data.dtype
    ex_mean = x.mean_axis(1)
    centered = sub(x, ex_mean)
    ex_var = mul(centered, centered).mean_axis(1)
    mu = add(Tensor((w_ref * ref_mean).astype(dt)), mul(ex_mean, Tensor(np.asarray(w_new, dt))))
    var = add(Tensor((w_ref * ref_var + VBN_EPS).astype(dt)), mul(ex_var, Tensor(np.asarray(w_new, dt))))
    norm = div(sub(x, mu), sqrt(var))
    return add(mul(norm, gamma), beta)


def l1_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference; subgradient 0 where a == b."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"l1_loss shapes differ: {a.data.shape} vs {b.data.shape}")
    return absolute(sub(a, b)).mean()


def lsq_loss(d_out: Tensor, target: float) -> Tensor:
    """Half mean squared distance to a 0/1 target (real=1, fake=0)."""
    if target not in (0, 1, 0.0, 1.0):
        raise ValueError(f"lsq_loss target must be 0 or 1, got {target}")
    diff = sub(d_out, Tensor(np.asarray(target, d_out.data.dtype)))
    return mul(mul(diff, diff).mean(), Tensor(np.asarray(0.5, d_out.data.dtype)))


# ---------------------------------------------------------------------------
# backprop driver


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into the .grad of the leaves below `loss`.
    Recorded nodes end with grad None, so a second call over the same graph
    adds exactly one more gradient."""
    if loss.data.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def sample_z(batch: int, length: int, channels: int,
             seed: int | np.random.Generator = 0) -> Tensor:
    """Standard-normal float32 latent block (batch, length, channels); seed-deterministic.
    A Generator as `seed` is drawn from in place, so successive blocks from
    one Generator equal one block drawn whole."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((batch, length, channels)).astype(np.float32))
