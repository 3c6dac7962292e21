"""Reverse-mode autodiff over batched 1-D signal tensors.

Define-by-run: every op computes its result and hands it to `_make` with its
parents and a closure that routes the upstream gradient back to them; `_make`
alone decides whether to record that node (gradients enabled and some parent
requiring grad). A closure keeps only its parents' data and its own output.
`backward(loss)` walks the recorded graph in reverse topological order and
hands each recorded node's gradient to its closure read-only, then releases
it, so the walk holds a few gradients at a time, whatever the graph's depth;
a node's first gradient is the whole array a closure made for it (`_accum`).
Convention for conv-shaped data is (batch, length, channels); reductions
and reshapes may produce other ranks.

Only the operations this model family needs are provided. float32 is the
training dtype; build the same graph from float64 arrays when verifying
against finite differences.
"""

from __future__ import annotations

import ctypes
import glob
import math
import mmap
import os
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

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
    """Add g to t.grad. A recorded node without a gradient keeps g itself, not
    a zeroed copy plus an add, when g is whole, writeable and of the node's
    shape and dtype: an array a closure just made and hands to it alone, never
    the read-only gradient `backward` gave the closure or a view of it. A leaf's
    gradient is read by callers, so it starts zeroed: 0.0 + -0.0 is +0.0, a kept
    array may hold -0.0 there, and a node's zero signs reach no leaf."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif (t._backward is not None and g.base is None and g.flags.writeable
          and g.shape == t.data.shape and g.dtype == t.data.dtype):
        t.grad = g
    else:
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
        # one array per gradient, multiplied by g in place; the scalars carry
        # g's dtype, so each array has the dtype of its product with g.
        # np.where(pos, 1, a) is built as pos * (1 - a) + a, which is far
        # faster, on channels where (1 - a) + a is exactly 1; elsewhere (and
        # at a == -0.0, since +0 + -0 is +0) the np.where form stays.
        pos = x.data > 0
        one = g.dtype.type(1)
        b = one - a
        gx = pos * b
        gx += a
        slow = ((b + a) != one) | ((a == 0) & np.signbit(a))
        if slow.any():
            gx[..., slow] = np.where(pos[..., slow], one, a[slow])
        gx *= g
        _accum(x, gx)
        if slopes.requires_grad:
            # np.where(pos, 0, x) bit for bit: x's bits times 0 or 1 as
            # integers, so +inf gives +0 where x * ~pos would give NaN
            bits = x.data.view(f"i{x.data.itemsize}") * ~pos
            neg_part = bits.view(x.data.dtype).astype(np.result_type(g, x.data), copy=False)
            neg_part *= g
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
        for p, part in ((a, g[..., :ca]), (b, g[..., ca:])):
            if p.requires_grad:
                _accum(p, part.copy())      # whole, so a recorded parent keeps it
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
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b is not None and b.requires_grad:
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
# _correlate and _tap_grad are one GEMM per block of examples over im2col
# columns (Chellapilla et al. 2006): row o holds the width taps of long
# channels that meet short position o. One scratch rule holds for them and
# for both forms of _scatter: each walks the plan _blocks makes from its
# own bytes per example and frees a block's scratch before it makes the
# next. A block holds as many whole examples as fit in the larger of
# _BLOCK_BYTES and the layer's weight bytes, and one at the least, so a
# layer whose weights outweigh its rows runs as one GEMM and reads each
# weight once, and the scratch memory depends on shapes alone.

_BLOCK_BYTES = 2 << 20
_BLAS_MIN_ROWS = 1024   # fewer short rows than this and the numpy fold is faster
_BLAS_MAX_C_SHORT = 256   # past one K panel BLAS adds its partial sums in another order


def _find_blas():
    """(file name, {dtype: cblas ?gemm}) of the OpenBLAS numpy has already
    loaded, or None. RTLD_NOLOAD only hands back a library that is already
    in the process, so this never loads a second BLAS."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LOCAL)
            fns = {np.dtype(np.float32): (lib.scipy_cblas_sgemm64_, ctypes.c_float),
                   np.dtype(np.float64): (lib.scipy_cblas_dgemm64_, ctypes.c_double)}
        except (OSError, AttributeError):
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        for fn, real in fns.values():
            # (order, transA, transB, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc)
            fn.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [real, ptr, i64, ptr, i64, real, ptr, i64]
            fn.restype = None
        return os.path.basename(path), {dt: fn for dt, (fn, _) in fns.items()}
    return None


_BLAS = _find_blas()


def scatter_path() -> str:
    """Which form `_scatter` takes where its selection rule allows BLAS."""
    return f"blas-accumulate ({_BLAS[0]})" if _BLAS is not None else "numpy-fold"


def _gemm_accumulate(out: np.ndarray, row: int, a: np.ndarray, b: np.ndarray) -> None:
    """out[row:row + len(a), :len(b)] += a @ b.T, as one ?gemm at beta = 1.

    Every operand must be a C-contiguous 2-D array of one float dtype, a and
    b must share their inner size, and the rows written must lie inside
    out; anything else raises ValueError before BLAS is reached.
    """
    if (_BLAS is None or any(not isinstance(x, np.ndarray) or x.ndim != 2 or x.size == 0
                             or not x.flags.c_contiguous for x in (out, a, b))
            or not out.flags.writeable):
        raise ValueError("_gemm_accumulate needs BLAS and non-empty C-contiguous 2-D arrays")
    gemm = _BLAS[1].get(out.dtype)
    if gemm is None or a.dtype != out.dtype or b.dtype != out.dtype:
        raise ValueError(f"_gemm_accumulate dtypes {out.dtype}, {a.dtype}, {b.dtype}: "
                         "need one of float32 or float64")
    (m, k), (n, kb), (rows, ldc) = a.shape, b.shape, out.shape
    if kb != k or n > ldc or not 0 <= row <= rows - m:
        raise ValueError(f"_gemm_accumulate shapes out {out.shape} at row {row}, "
                         f"a {a.shape}, b {b.shape} do not fit")
    c = out.ctypes.data + row * ldc * out.itemsize
    # row-major (101), A as stored (111), B transposed (112)
    gemm(101, 111, 112, m, n, k, 1.0, a.ctypes.data, k, b.ctypes.data, k, 1.0, c, ldc)


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


def _blocks(batch: int, example_bytes: int, weight_bytes: int) -> list[slice]:
    """Slices of whole examples covering the batch, each as many examples
    of example_bytes as fit in max(_BLOCK_BYTES, weight_bytes), and one at
    the least."""
    n = max(1, max(_BLOCK_BYTES, weight_bytes) // example_bytes)
    return [slice(b, min(b + n, batch)) for b in range(0, batch, n)]


def _correlate(long: np.ndarray, w: np.ndarray, stride: int, short_len: int, dtype) -> np.ndarray:
    """Long -> short: out[:, o] = sum_k long[:, o*stride + k] @ w[k]."""
    width, c_long, c_short = w.shape
    cols = _columns(long, stride, short_len, width)
    wk = w.reshape(width * c_long, c_short)
    out = np.empty((long.shape[0], short_len, c_short), dtype=dtype)
    for ex in _blocks(long.shape[0], short_len * width * c_long * long.itemsize, w.nbytes):
        # GEMM on a contiguous copy of the overlapping windows runs about
        # twice as fast as on the view, and writes straight into out
        blk = np.ascontiguousarray(cols[ex]).reshape(-1, width * c_long)
        dst = out[ex].reshape(-1, c_short)
        assert dst.base is out
        np.matmul(blk, wk, out=dst)
        del blk     # before the next block's copy is made
    return out


def _scatter(short: np.ndarray, w: np.ndarray, stride: int, long_len: int, dtype) -> np.ndarray:
    """Short -> long, the adjoint of _correlate: out[:, o*stride + k] += short[:, o] @ w[k].T.

    The output is R rows of stride positions per example, R = max(ceil(long_len
    / stride), short_len + groups), so tap group g (taps g*stride to g*stride +
    stride - 1) of short position o adds to row o + g. Both forms walk one
    plan of whole-example blocks into that output, so no two blocks share
    an output; each adds an output's taps in ascending group order with the
    GEMM's inner sum over C_short, so they give the same bits while C_short
    fits one K panel:
    - BLAS accumulation, when numpy's OpenBLAS was found, C_long > 1,
      C_short <= _BLAS_MAX_C_SHORT, all arrays share one float dtype and
      there are at least _BLAS_MIN_ROWS short rows. A block's examples are
      zero-padded to R rows, and each tap group is one ?gemm at beta = 1
      into the output from the block's first row + g. A padding row adds
      0 * w, +0.0 for finite weights, which leaves every sum as it was.
    - The numpy fold everywhere else: each block's columns come from one
      GEMM and are folded into the output by strided adds, stride taps per
      add (contiguous runs of stride * C_long values), or one tap per add
      when C_long is 1, where runs of two values make numpy's adds 2-4x
      slower.
    """
    width, c_long, c_short = w.shape
    batch, short_len = short.shape[:2]
    groups = -(-width // stride)
    step = stride * c_long
    group = stride if c_long > 1 else 1
    blas = (_BLAS is not None and c_long > 1 and c_short <= _BLAS_MAX_C_SHORT
            and batch * short_len >= _BLAS_MIN_ROWS and short.dtype == w.dtype == dtype)
    rows = max(-(-long_len // stride), short_len + groups)
    out = np.zeros((batch, rows * step), dtype=dtype)
    wk = w.reshape(width * c_long, c_short)
    example_bytes = (rows * c_short if blas else short_len * width * c_long) * short.itemsize
    for ex in _blocks(batch, example_bytes, w.nbytes):
        blk = short[ex]
        m = blk.shape[0]
        if blas:
            a = np.zeros((m, rows, c_short), dtype=dtype)
            a[:, :short_len] = blk
            a = a.reshape(-1, c_short)[:(m - 1) * rows + short_len]
            for g in range(groups):
                _gemm_accumulate(out.reshape(-1, step), ex.start * rows + g, a,
                                 wk[g * step:(g + 1) * step])
            del a       # before the next block's copy is made
        else:
            cols = (blk.reshape(-1, c_short) @ wk.T).reshape(m, short_len, width * c_long)
            for k in range(0, width, group):
                c = min(group, width - k) * c_long
                dst = out[ex, k * c_long:k * c_long + short_len * step].reshape(m, short_len, step)
                dst[:, :, :c] += cols[:, :, k * c_long:k * c_long + c]
            del cols    # before the next block's columns are made
    return out.reshape(batch, rows * stride, c_long)[:, :long_len]


def _tap_grad(long: np.ndarray, short: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Gradient of <short, _correlate(long, w)> with respect to w, written in
    w's (width * C_long, C_short) layout. The first block's product is the
    result; each later block's is added a slice of rows at a time, a slice
    at most an eighth of the block bound, or of one example's columns where
    those pass it, so the scratch beside the result is one column block and
    one slice."""
    width, c_long, c_short = w.shape
    k = width * c_long
    cols = _columns(long, stride, short.shape[1], width)
    example_bytes = short.shape[1] * k * long.itemsize
    step = max(1, max(_BLOCK_BYTES, w.nbytes, example_bytes) // 8 // (c_short * w.itemsize))
    gw = None
    for ex in _blocks(long.shape[0], example_bytes, w.nbytes):
        blk = cols[ex].reshape(-1, k)
        s = short[ex].reshape(-1, c_short)
        if gw is None:
            gw = blk.T @ s
        else:
            for r in range(0, k, step):
                gw[r:r + step] += blk[:, r:r + step].T @ s
        del blk     # before the next block's columns are copied
    return gw.reshape(width, c_long, c_short)


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
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 1)))
        if w.requires_grad:
            _accum(w, _tap_grad(_pad(x.data, pad_total, pad_left), g, w.data, stride))
        if x.requires_grad:
            gxp = _scatter(g, w.data, stride, length + pad_total, x.data.dtype)
            _accum(x, gxp[:, pad_left:pad_left + length].copy())   # whole, so a recorded x keeps it
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
        if b is not None and b.requires_grad:
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
    with the example's own per-channel stats, then apply the LeakyReLU.

    ref_mean/ref_var are frozen arrays (no gradient); gamma/beta are
    per-channel trainables of x's dtype. Six small nodes on (B, 1, C)
    statistics feed one normalize node, so the graph keeps no array of x's
    shape but the output. Each node repeats, in order, the float operations
    of the same formula built from elementwise nodes and a prelu, so values
    and gradients carry that composite's bits.
    """
    w_ref = n_ref / (n_ref + 1.0)
    dt = x.data.dtype
    w_new = Tensor(np.asarray(1.0 / (n_ref + 1.0), dt))
    ex_mean = x.mean_axis(1)
    ex_var = _centered_second_moment(x, ex_mean)
    mu = add(Tensor((w_ref * ref_mean).astype(dt)), mul(ex_mean, w_new))
    var = add(Tensor((w_ref * ref_var + VBN_EPS).astype(dt)), mul(ex_var, w_new))
    return _normalize(x, mu, var, gamma, beta)


def _centered_second_moment(x: Tensor, m: Tensor) -> Tensor:
    """mean((x - m)**2) over axis 1, keepdims=True; m is x.mean_axis(1)."""
    n = x.data.shape[1]
    c = x.data - m.data
    c *= c

    def back(g):
        # d/dc of mean(c * c) is 2 * c * g / n, summed as c * (g / n) twice
        c = x.data - m.data
        c *= g / n
        c += c
        _accum(m, -c.sum(axis=1, keepdims=True))
        _accum(x, c)
    return _make(np.mean(c, axis=1, keepdims=True), (x, m), back)


def _normalize(x: Tensor, mu: Tensor, var: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """max(v, LEAKY_ALPHA * v) of v = (x - mu) / sqrt(var) * gamma + beta, mu
    and var (B, 1, C). Backward takes the rectifier's mask from the output
    (exact for slopes in (0, 1)), and negates after summing (bit-exact)."""
    y = x.data - mu.data
    y /= np.sqrt(var.data)
    y *= gamma.data
    y += beta.data
    np.maximum(y, LEAKY_ALPHA * y, out=y)

    def back(g):
        # np.where(y > 0, 1, LEAKY_ALPHA) as a multiply-add: both sums are
        # exact in float32 and float64, and a NaN y takes LEAKY_ALPHA
        t = g.dtype.type
        gy = (y > 0) * t(1 - LEAKY_ALPHA)
        gy += t(LEAKY_ALPHA)
        gy *= g                                     # gradient of the rectifier's input
        s = np.sqrt(var.data)
        xm = x.data - mu.data
        if gamma.requires_grad:     # numpy reuses this line's temporaries in place
            _accum(gamma, (xm / s * gy).sum(axis=(0, 1)))
        if beta.requires_grad:
            _accum(beta, gy.sum(axis=(0, 1)))
        gy *= gamma.data                            # gradient of the normalized x
        xm *= gy
        xm /= s * s
        _accum(var, -xm.sum(axis=1, keepdims=True) * (0.5 / s))
        gy /= s                                     # gradient of x - mu
        _accum(mu, -gy.sum(axis=1, keepdims=True))
        _accum(x, gy)
    return _make(y, (x, mu, var, gamma, beta), back)


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
            node.grad.flags.writeable = False
            node._backward(node.grad)
            node.grad = None


def sample_z(batch: int, length: int, channels: int,
             seed: int | np.random.Generator = 0) -> Tensor:
    """Standard-normal float32 latent block (batch, length, channels); seed-deterministic.
    A Generator as `seed` is drawn from in place, so successive blocks from
    one Generator equal one block drawn whole."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((batch, length, channels)).astype(np.float32))
