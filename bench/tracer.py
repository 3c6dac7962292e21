"""Spans recorded around calls into segan's public functions, from outside
the package.

`Tracer.install` swaps a module attribute (in every `segan.*` module that
holds a reference to it) for a timing wrapper; `uninstall` puts the
originals back. Spans are kept in memory as flat parallel lists and
aggregated once the measurement ends.

Two levels exist. `PROBES` are the few calls the end-to-end metrics need
(one per training step or per file), cheap enough for the untraced run.
`install(full=True)` adds every layer's public functions and the autodiff
engine: each op, each backward closure (charged to the op, or composite
op, that created the graph node) and the graph walk itself.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name): the calls the end-to-end metrics read.
PROBES = (
    ("segan.trainer", "train", "trainer.train"),
    ("segan.trainer", "train_step", "trainer.train_step"),
    ("segan.trainer", "enhance_file", "trainer.enhance_file"),
    ("segan.model", "load_checkpoint", "model.load_checkpoint"),
    ("segan.model", "g_forward", "model.g_forward"),
    ("segan.wiener", "enhance_wiener", "wiener.enhance_wiener"),
    ("segan.metrics", "ssnr", "metrics.ssnr"),
    ("segan.metrics", "llr", "metrics.llr"),
)

# Every other public function a per-layer metric names.
LAYER_FUNCTIONS = (
    ("segan.model", "d_forward", "model.d_forward"),
    ("segan.model", "set_reference_batch", "model.set_reference_batch"),
    ("segan.model", "save_checkpoint", "model.save_checkpoint"),
    ("segan.checkpoint", "load_tensors", "checkpoint.load_tensors"),
    ("segan.checkpoint", "save_tensors", "checkpoint.save_tensors"),
    ("segan.audio_io", "read_wav", "audio_io.read_wav"),
    ("segan.audio_io", "write_wav", "audio_io.write_wav"),
    ("segan.audio_io", "resample_48k_to_16k", "audio_io.resample"),
    ("segan.audio_io", "preemphasis", "audio_io.preemphasis"),
    ("segan.audio_io", "deemphasis", "audio_io.deemphasis"),
    ("segan.audio_io", "chunk", "audio_io.chunk"),
    ("segan.audio_io", "reassemble", "audio_io.reassemble"),
    ("segan.dataset", "load_manifest", "dataset.load_manifest"),
    ("segan.dataset", "build_pairs", "dataset.build_pairs"),
    ("segan.wiener", "stft", "wiener.stft"),
    ("segan.wiener", "wiener_gains", "wiener.wiener_gains"),
    ("segan.wiener", "istft", "wiener.istft"),
)

COUNTED = (("segan.metrics", "levinson", "metrics.levinson"),)

NAMED_OPS = ("conv1d", "conv1d_transpose", "virtual_batch_norm", "prelu", "leaky_relu")
CONV_OPS = ("conv1d", "conv1d_transpose")
# engine functions that are not graph ops
NOT_OPS = ("backward", "zero_grads", "no_grad", "set_debug_checks")
# Tensor methods that create graph nodes themselves
TENSOR_OPS = ("reshape", "sum", "mean", "mean_axis")


class Spans:
    """Flat span store. `parent` is the index of the enclosing open span,
    or -1; `attr` holds an optional per-span value (layer name, batch size,
    byte count).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attr: list = []
        self._open: list[int] = []

    def __len__(self):
        return len(self.name)

    def begin(self, name: str, attr=None) -> int:
        i = len(self.name)
        self.name.append(name)
        self.start.append(self.clock())
        self.end.append(math.nan)
        self.parent.append(self._open[-1] if self._open else -1)
        self.attr.append(attr)
        self._open.append(i)
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        while self._open:
            if self._open.pop() == i:
                break

    def add(self, name: str, start: float, end: float, parent: int = -1, attr=None) -> int:
        """Record a closed span directly (hand-built traces)."""
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.attr.append(attr)
        return len(self.name) - 1

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def where(self, name: str, lo: int = 0) -> list[int]:
        return [i for i in range(lo, len(self.name)) if self.name[i] == name]


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover (overlapping children counted once).
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(spans.parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(spans)):
        lo, hi = spans.start[i], spans.end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans.start[c]):
            a, b = max(spans.start[c], lo), min(spans.end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


PHASES = ("d_real", "g_forward", "d_fake", "g_update")


def attribute_phases(step_start: float, step_end: float, events) -> dict[str, float]:
    """Split one training step into its four phases from the end times of
    the public calls made inside it.

    `events` holds (end_time, kind) with kind "opt_d" (RMSprop.step on the
    discriminator), "opt_g" (on the generator) or "g_forward"; other kinds
    are ignored. Phase boundaries: d_real ends at the first D step; g_forward
    at the last g_forward before the second D step (or the G step); d_fake
    at the second D step; g_update at the G step. Whatever follows the G
    step is the remainder, so the five values sum to the step time.
    """
    ev = sorted(events)
    opt_d = [t for t, k in ev if k == "opt_d"]
    opt_g = [t for t, k in ev if k == "opt_g"]
    g_fwd = [t for t, k in ev if k == "g_forward"]
    out = dict.fromkeys(PHASES, 0.0)
    cursor = step_start
    if opt_d:
        out["d_real"] = opt_d[0] - cursor
        cursor = opt_d[0]
    second_d = opt_d[1] if len(opt_d) > 1 else None
    limit = second_d if second_d is not None else (opt_g[0] if opt_g else step_end)
    inside = [t for t in g_fwd if cursor <= t <= limit]
    if inside:
        out["g_forward"] = inside[-1] - cursor
        cursor = inside[-1]
    if second_d is not None:
        out["d_fake"] = second_d - cursor
        cursor = second_d
    if opt_g:
        out["g_update"] = opt_g[-1] - cursor
        cursor = opt_g[-1]
    out["remainder"] = step_end - cursor
    return out


@dataclass
class ConvCall:
    """Shape-derived work of one conv call (computed, not measured)."""
    layer: str
    madds: int
    fwd_bytes: int
    in_size: int
    w_size: int
    out_size: int
    itemsize: int


def conv_work(op: str, x, w, stride: int) -> ConvCall:
    """Multiply-adds the tap-loop kernels compute, and the minimum bytes a
    call must move (read input and weight, write output).

    conv1d: x (B, L, Cin), w (K, Cin, Cout), output length ceil(L/stride).
    conv1d_transpose: y (B, L, Cin), w (K, Cout, Cin), output L*stride.
    """
    batch, length, cin = x.data.shape
    width = w.data.shape[0]
    if op == "conv1d":
        cout = w.data.shape[2]
        out_len = -(-length // stride)
        madds = batch * out_len * width * cin * cout
    else:
        cout = w.data.shape[1]
        out_len = length * stride
        madds = batch * length * width * cin * cout
    out_size = batch * out_len * cout
    item = x.data.itemsize
    layer = getattr(w, "name", "unnamed")
    if layer.endswith(".w"):
        layer = layer[:-2]
    return ConvCall(layer, madds, (x.data.size + w.data.size + out_size) * item,
                    x.data.size, w.data.size, out_size, item)


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.memory: dict[str, float] = {}
        self._memory_call: dict[str, int] = {}
        self._undo: list = []
        self._depth = 0
        self._new_nodes: list = []
        self._hidden_peak = 0
        self._full = False

    # -- installation -------------------------------------------------------

    def install(self, full: bool = False) -> None:
        self._full = full
        for module, attr, name in PROBES + (LAYER_FUNCTIONS if full else ()):
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is not None:
                self._replace(fn, self._timed(fn, name))
        if full:
            for module, attr, name in COUNTED:
                fn = getattr(sys.modules.get(module), attr, None)
                if fn is not None:
                    self._replace(fn, self._counted(fn, name))
            self._install_optim()
            self._install_engine()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def suspended(self):
        """Calls made inside the block (output checks) are not recorded."""
        self.uninstall()
        try:
            yield
        finally:
            self.install(self._full)

    def trace_memory(self, span_name: str, call_index: int) -> None:
        """Run tracemalloc during the call_index-th call (0-based) of
        span_name and record its peak above the level at entry, in MB.
        """
        self._memory_call[span_name] = call_index

    def _replace(self, original, wrapper) -> None:
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", None) or ""
            if mname != "segan" and not mname.startswith("segan."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_attr(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, name):
        spans, calls = self.spans, self.calls
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*a, **k):
                calls[name] += 1
                return self._stepped(fn(*a, **k), name)
            return gen_wrapper

        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            index = calls[name]
            calls[name] += 1
            watch = self._memory_call.get(name) == index and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                self._hidden_peak = 0
            elif name == "model.g_forward" and tracemalloc.is_tracing():
                return self._g_forward_memory(fn, a, k)
            i = spans.begin(name)
            try:
                out = fn(*a, **k)
            finally:
                spans.finish(i)
                if watch:
                    peak = max(tracemalloc.get_traced_memory()[1], self._hidden_peak)
                    tracemalloc.stop()
                    self.memory[name] = (peak - base) / 1e6
            if note is not None:
                spans.attr[i] = note(a, k, out)
            return out
        return wrapper

    def _g_forward_memory(self, fn, a, k):
        """g_forward inside a memory-traced call: also record the peak the
        forward pass adds above the memory held at its entry. reset_peak()
        hides the enclosing call's earlier peak, so it is kept aside."""
        cur, peak_so_far = tracemalloc.get_traced_memory()
        self._hidden_peak = max(self._hidden_peak, peak_so_far)
        tracemalloc.reset_peak()
        i = self.spans.begin("model.g_forward")
        try:
            out = fn(*a, **k)
        finally:
            self.spans.finish(i)
            g_peak = tracemalloc.get_traced_memory()[1]
            self.memory["model.g_forward"] = max(self.memory.get("model.g_forward", 0.0),
                                                 (g_peak - cur) / 1e6)
        self.spans.attr[i] = _lead(a[1] if len(a) > 1 else k.get("noisy"))
        return out

    def _stepped(self, it, name):
        spans = self.spans
        while True:
            i = spans.begin(name)
            try:
                item = next(it)
            except StopIteration:
                spans.finish(i)
                return
            except BaseException:
                spans.finish(i)
                raise
            spans.finish(i)
            yield item

    def _counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return wrapper

    def _install_optim(self) -> None:
        optim = sys.modules.get("segan.optim")
        cls = getattr(optim, "RMSprop", None)
        if cls is None:
            return
        step = cls.step
        spans, counts, calls = self.spans, self.counts, self.calls

        @functools.wraps(step)
        def timed_step(opt, *a, **k):
            params = getattr(opt, "params", [])
            side = "d" if params and getattr(params[0], "name", "").startswith("d.") else "g"
            name = f"optim.{side}_step"
            calls[name] += 1
            counts["optim.elements"] += sum(p.data.size for p in params if p.grad is not None)
            i = spans.begin(name)
            try:
                return step(opt, *a, **k)
            finally:
                spans.finish(i)
        self._patch_attr(cls, "step", timed_step)

    def _install_engine(self) -> None:
        eg = sys.modules.get("segan.engine")
        if eg is None:
            return
        for attr, fn in list(vars(eg).items()):
            if (inspect.isfunction(fn) and fn.__module__ == eg.__name__
                    and not attr.startswith("_") and attr not in NOT_OPS):
                self._replace(fn, self._op(fn, attr if attr in NAMED_OPS else "other"))
        tensor = getattr(eg, "Tensor", None)
        for attr in TENSOR_OPS:
            fn = getattr(tensor, attr, None)
            if fn is not None:
                self._patch_attr(tensor, attr, self._op(fn, "other"))
        make = getattr(eg, "_make", None)
        if make is not None:
            self._replace(make, self._node_maker(make))
        backward = getattr(eg, "backward", None)
        if backward is not None:
            self._replace(backward, self._backward(backward))

    def _op(self, fn, cat):
        spans, counts = self.spans, self.counts
        name = f"engine.{cat}.fwd"
        sig = inspect.signature(fn) if cat in CONV_OPS else None

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if self._depth:
                return fn(*a, **k)
            if self._new_nodes:
                self._adopt("other", None)
            work = _conv_call(cat, sig, a, k) if sig is not None else None
            if work is not None:
                counts["conv.madds"] += work.madds
                counts["conv.bytes"] += work.fwd_bytes
                counts["conv.calls"] += 1
            self._depth = 1
            i = spans.begin(name, work.layer if work is not None else None)
            try:
                return fn(*a, **k)
            finally:
                spans.finish(i)
                self._depth = 0
                self._adopt(cat, work)
        return wrapper

    def _node_maker(self, make):
        counts = self.counts

        @functools.wraps(make)
        def wrapper(*a, **k):
            out = make(*a, **k)
            if getattr(out, "_parents", ()):
                self._new_nodes.append(out)
                counts["engine.nodes"] += 1
            return out
        return wrapper

    def _adopt(self, cat, work) -> None:
        """Charge the backward closures of the nodes created since the last
        op to `cat` (and, for a conv, to its layer)."""
        nodes, self._new_nodes = self._new_nodes, []
        name = f"engine.{cat}.bwd"
        for node in nodes:
            closure = getattr(node, "_backward", None)
            if closure is not None:
                node._backward = self._timed_closure(closure, name, node._parents, work)

    def _timed_closure(self, closure, name, parents, work):
        # holds the node's parents, never the node: a node -> closure -> node
        # cycle would keep every graph alive until the cyclic collector runs
        spans, counts = self.spans, self.counts
        layer = work.layer if work is not None else None

        def timed(g):
            i = spans.begin(name, layer)
            try:
                closure(g)
            finally:
                spans.finish(i)
            if work is not None:
                x_rg = bool(parents) and parents[0].requires_grad
                w_rg = len(parents) > 1 and parents[1].requires_grad
                counts["conv.madds"] += work.madds * (x_rg + w_rg)
                counts["conv.bytes"] += work.itemsize * (
                    work.out_size + work.in_size + work.w_size
                    + x_rg * work.in_size + w_rg * work.w_size)
                counts["conv.calls"] += 1
        return timed

    def _backward(self, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if self._new_nodes:
                self._adopt("other", None)
            i = spans.begin("engine.backward")
            try:
                return fn(*a, **k)
            finally:
                spans.finish(i)
        return wrapper


def _conv_call(op, sig, a, k):
    try:
        bound = sig.bind(*a, **k)
    except TypeError:
        return None
    bound.apply_defaults()
    values = list(bound.arguments.values())
    stride = bound.arguments.get("stride", 1)
    if len(values) < 2 or not hasattr(values[0], "data") or not hasattr(values[1], "data"):
        return None
    if values[0].data.ndim != 3 or values[1].data.ndim != 3:
        return None
    return conv_work(op, values[0], values[1], int(stride))


def _lead(x) -> int:
    """Leading dimension of an array or Tensor (windows or examples)."""
    shape = getattr(getattr(x, "data", x), "shape", None)
    return int(shape[0]) if shape else 0


def _path_bytes(a, k, out):
    path = a[0] if a else k.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _keep_result(a, k, out):
    return out


_NOTES = {
    "model.g_forward": lambda a, k, out: _lead(a[1] if len(a) > 1 else k.get("noisy")),
    "trainer.train_step": lambda a, k, out: _lead(a[4] if len(a) > 4 else k.get("noisy")),
    "trainer.train": _keep_result,
    "checkpoint.load_tensors": _path_bytes,
    "checkpoint.save_tensors": _path_bytes,
}
