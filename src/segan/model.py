"""Generator and discriminator topologies, their config, and checkpoints.

One code path covers both the full-scale network (window 16384, 11 encoder
layers) and reduced desk variants; only the config differs. The generator
is a strided conv encoder, a bottleneck where the latent block joins, and a
mirrored transposed-conv decoder fed by per-layer skip concatenations. The
discriminator runs the same conv stack over a (candidate, noisy) channel
pair with virtual batch norm and a LeakyReLU after every layer, then a 1x1
conv and a final linear neuron.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import engine as eg
from .checkpoint import load_tensors, save_tensors
from .engine import LEAKY_ALPHA, VBN_EPS, Parameter, Tensor, no_grad
from .errors import (
    ConfigError,
    CorruptCheckpointError,
    MissingRefBatchError,
    ShapeMismatchError,
)

WEIGHT_STD = 0.02
PRELU_INIT = 0.25


@dataclass(frozen=True)
class GeneratorConfig:
    window: int = 16384
    filter_width: int = 31
    stride: int = 2
    enc_channels: tuple[int, ...] = (16, 32, 32, 64, 64, 128, 128, 256, 256, 512, 1024)
    z_channels: int = 1024

    def __post_init__(self):
        object.__setattr__(self, "enc_channels", tuple(int(c) for c in self.enc_channels))
        if len(self.enc_channels) < 1:
            raise ConfigError("need at least one encoder layer")
        if any(c < 1 for c in self.enc_channels):
            raise ConfigError(f"channel counts must be positive: {self.enc_channels}")
        if self.filter_width < 1 or self.filter_width % 2 == 0:
            raise ConfigError(f"filter_width must be odd and positive, got {self.filter_width}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.z_channels < 1:
            raise ConfigError(f"z_channels must be positive, got {self.z_channels}")
        total = self.stride ** len(self.enc_channels)
        if self.window % total != 0 or self.window // total < 1:
            raise ConfigError(
                f"window {self.window} not divisible by stride^{len(self.enc_channels)} = {total}")

    @property
    def depth(self) -> int:
        return len(self.enc_channels)

    @property
    def bottleneck_len(self) -> int:
        return self.window // self.stride ** self.depth


def _enc_in_channels(cfg: GeneratorConfig) -> list[int]:
    return [1] + list(cfg.enc_channels[:-1])


@dataclass
class Generator:
    cfg: GeneratorConfig
    enc_w: list[Parameter]
    enc_b: list[Parameter]
    enc_a: list[Parameter]
    dec_w: list[Parameter]   # ordered deepest-first (application order)
    dec_b: list[Parameter]
    dec_a: list[Parameter]   # one per decoder layer except the outermost

    def parameters(self) -> list[Parameter]:
        return [*self.enc_w, *self.enc_b, *self.enc_a,
                *self.dec_w, *self.dec_b, *self.dec_a]


@dataclass
class Discriminator:
    cfg: GeneratorConfig
    conv_w: list[Parameter]
    conv_b: list[Parameter]
    gamma: list[Parameter]
    beta: list[Parameter]
    head_w: Parameter        # 1x1 conv collapsing channels to 1
    head_b: Parameter
    out_w: Parameter         # final linear neuron
    out_b: Parameter
    ref_mean: list[np.ndarray] | None = None
    ref_var: list[np.ndarray] | None = None
    n_ref: int = 0

    def parameters(self) -> list[Parameter]:
        return [*self.conv_w, *self.conv_b, *self.gamma, *self.beta,
                self.head_w, self.head_b, self.out_w, self.out_b]


def _seeded_maker(seed: int):
    """Parameter maker for fresh networks: `fill` is a constant, or None for
    a N(0, WEIGHT_STD) draw; draws follow the order of the make calls."""
    rng = np.random.default_rng(seed)

    def make(name, shape, fill):
        data = rng.normal(0, WEIGHT_STD, shape) if fill is None else np.full(shape, fill)
        return Parameter(name, data, dtype=np.float32)
    return make


def _generator(cfg: GeneratorConfig, make) -> Generator:
    """The generator's parameter layout, made in `parameters()` order."""
    width = cfg.filter_width
    enc = list(enumerate(zip(_enc_in_channels(cfg), cfg.enc_channels), start=1))
    # decoder layer k mirrors encoder layer k: outputs enc_in[k-1] channels;
    # the deepest input is bottleneck+z, every other input is doubled by a skip
    dec = [(k, enc_cin, 2 * cfg.enc_channels[k - 1] if k < cfg.depth
            else cfg.enc_channels[-1] + cfg.z_channels) for k, (enc_cin, _) in reversed(enc)]
    return Generator(
        cfg,
        [make(f"g.enc{k}.w", (width, cin, cout), None) for k, (cin, cout) in enc],
        [make(f"g.enc{k}.b", (cout,), 0.0) for k, (_, cout) in enc],
        [make(f"g.enc{k}.a", (cout,), PRELU_INIT) for k, (_, cout) in enc],
        [make(f"g.dec{k}.w", (width, cout, cin), None) for k, cout, cin in dec],
        [make(f"g.dec{k}.b", (cout,), 0.0) for k, cout, _ in dec],
        [make(f"g.dec{k}.a", (cout,), PRELU_INIT) for k, cout, _ in dec if k > 1])


def _discriminator(cfg: GeneratorConfig, make) -> Discriminator:
    """The discriminator's parameter layout, made in `parameters()` order."""
    width = cfg.filter_width
    conv = list(enumerate(zip([2] + list(cfg.enc_channels[:-1]), cfg.enc_channels), start=1))
    return Discriminator(
        cfg,
        [make(f"d.conv{k}.w", (width, cin, cout), None) for k, (cin, cout) in conv],
        [make(f"d.conv{k}.b", (cout,), 0.0) for k, (_, cout) in conv],
        [make(f"d.vbn{k}.gamma", (cout,), 1.0) for k, (_, cout) in conv],
        [make(f"d.vbn{k}.beta", (cout,), 0.0) for k, (_, cout) in conv],
        make("d.head.w", (1, cfg.enc_channels[-1], 1), None),
        make("d.head.b", (1,), 0.0),
        make("d.out.w", (cfg.bottleneck_len, 1), None),
        make("d.out.b", (1,), 0.0))


def build_generator(cfg: GeneratorConfig, seed: int = 0) -> Generator:
    return _generator(cfg, _seeded_maker(seed))


def build_discriminator(cfg: GeneratorConfig, seed: int = 0) -> Discriminator:
    return _discriminator(cfg, _seeded_maker(seed))


def _as_bwc(x, window: int) -> Tensor:
    """Coerce (B, window) or (B, window, 1) array/Tensor to a (B, window, 1) Tensor."""
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
    if t.data.ndim == 2:
        t = t.reshape(t.data.shape[0], t.data.shape[1], 1)
    if t.data.ndim != 3 or t.data.shape[1] != window or t.data.shape[2] != 1:
        raise ShapeMismatchError(f"expected (B, {window}[, 1]) signal, got {t.data.shape}")
    return t


def g_forward(gen: Generator, noisy, z: Tensor) -> Tensor:
    """Enhance a batch of windows. noisy: (B, window, 1); z matches the
    bottleneck (B, bottleneck_len, z_channels); output (B, window, 1) in
    (-1, 1). Each skip is popped at its concat, so only a graph keeps it.
    """
    cfg = gen.cfg
    x = _as_bwc(noisy, cfg.window)
    want_z = (x.data.shape[0], cfg.bottleneck_len, cfg.z_channels)
    if z.data.shape != want_z:
        raise ShapeMismatchError(f"z shape {z.data.shape} != {want_z}")
    enc_out = []
    h = x
    for w, b, a in zip(gen.enc_w, gen.enc_b, gen.enc_a):
        h = eg.prelu(eg.conv1d(h, w, b, stride=cfg.stride), a)
        enc_out.append(h)
    h = eg.concat_channels(enc_out.pop(), z)
    for i, k in enumerate(range(cfg.depth, 0, -1)):
        h = eg.conv1d_transpose(h, gen.dec_w[i], gen.dec_b[i], stride=cfg.stride)
        if k > 1:
            h = eg.concat_channels(eg.prelu(h, gen.dec_a[i]), enc_out.pop())
        else:
            h = eg.tanh(h)
    return h


def _d_trunk(disc: Discriminator, candidate, noisy, norm) -> Tensor:
    """The discriminator's conv stack over (candidate, noisy) channel pairs:
    each layer is conv, then norm(layer index, h), LeakyReLU included."""
    cfg = disc.cfg
    h = eg.concat_channels(_as_bwc(candidate, cfg.window), _as_bwc(noisy, cfg.window))
    for i in range(cfg.depth):
        h = norm(i, eg.conv1d(h, disc.conv_w[i], disc.conv_b[i], stride=cfg.stride))
    return h


def set_reference_batch(disc: Discriminator, candidate, noisy) -> None:
    """Compute and freeze per-layer normalization stats from a fixed
    reference batch of real (candidate, noisy) pairs. The reference pass
    normalizes each layer with the batch's own statistics.
    """
    means, variances = [], []

    def batch_norm(i, h):
        mu, var = h.data.mean(axis=(0, 1)), h.data.var(axis=(0, 1))
        means.append(mu)
        variances.append(var)
        y = disc.gamma[i].data * (h.data - mu) / np.sqrt(var + VBN_EPS) + disc.beta[i].data
        return Tensor(np.maximum(y, LEAKY_ALPHA * y, out=y))

    with no_grad():
        n_ref = _d_trunk(disc, candidate, noisy, batch_norm).data.shape[0]
    disc.ref_mean, disc.ref_var, disc.n_ref = means, variances, n_ref


def d_forward(disc: Discriminator, candidate, noisy) -> Tensor:
    """Score a (candidate, noisy) pair batch: channel 0 is the candidate
    (clean or enhanced), channel 1 the noisy condition. Returns an
    unbounded (B, 1) score.
    """
    if disc.ref_mean is None:
        raise MissingRefBatchError("discriminator needs set_reference_batch before scoring")

    def vbn(i, h):
        return eg.virtual_batch_norm(h, disc.ref_mean[i], disc.ref_var[i], disc.n_ref,
                                     disc.gamma[i], disc.beta[i])

    h = _d_trunk(disc, candidate, noisy, vbn)
    h = eg.conv1d(h, disc.head_w, disc.head_b, stride=1)
    h = h.reshape(h.data.shape[0], disc.cfg.bottleneck_len)
    return eg.linear(h, disc.out_w, disc.out_b)


def shape_ledger(cfg: GeneratorConfig) -> list[tuple[str, int, int]]:
    """Pure arithmetic enumeration of (layer, length, channels) through the
    generator: input, each encoder output, bottleneck after the latent
    concat, each decoder output.
    """
    rows = [("input", cfg.window, 1)]
    length = cfg.window
    for k, ch in enumerate(cfg.enc_channels, start=1):
        length //= cfg.stride
        rows.append((f"enc{k}", length, ch))
    rows.append(("bottleneck+z", length, cfg.enc_channels[-1] + cfg.z_channels))
    enc_in = _enc_in_channels(cfg)
    for k in range(cfg.depth, 0, -1):
        length *= cfg.stride
        rows.append((f"dec{k}", length, enc_in[k - 1]))
    return rows


# ---------------------------------------------------------------------------
# checkpointing


def _cfg_tensors(cfg: GeneratorConfig) -> dict[str, np.ndarray]:
    """One float32 vector `cfg.<field>` per config field: a scalar field
    stored as one element, a tuple field as one element per entry."""
    return {f"cfg.{f.name}": np.array(getattr(cfg, f.name), dtype=np.float32).reshape(-1)
            for f in fields(GeneratorConfig)}


# save_checkpoint stores integers as float32, exact up to 2**24 in magnitude
_FLOAT32_EXACT = 1 << 24


def _stored_ints(t: dict[str, np.ndarray], name: str, path, scalar: bool) -> tuple[int, ...]:
    """The integers tensor `name` holds: one when `scalar`, else at least one."""
    if name not in t:
        raise CorruptCheckpointError(f"{path}: missing tensor {name}")
    v = t[name].reshape(-1)
    if v.size == 0 or (scalar and v.size != 1):
        raise CorruptCheckpointError(
            f"{path}: tensor {name} holds {v.size} values, expected "
            f"{'1' if scalar else 'at least 1'}")
    ok = np.isfinite(v) & (v == np.round(v)) & (np.abs(v) <= _FLOAT32_EXACT)
    if not ok.all():
        raise CorruptCheckpointError(
            f"{path}: tensor {name} holds {v[~ok][0]}, expected an integer of "
            f"magnitude at most 2**24")
    return tuple(int(x) for x in v)


def _cfg_from_tensors(t: dict[str, np.ndarray], path) -> GeneratorConfig:
    values = {}
    for f in fields(GeneratorConfig):
        scalar = not isinstance(f.default, tuple)
        ints = _stored_ints(t, f"cfg.{f.name}", path, scalar)
        values[f.name] = ints[0] if scalar else ints
    return GeneratorConfig(**values)


def save_checkpoint(path, gen: Generator, disc: Discriminator | None = None) -> None:
    tensors = _cfg_tensors(gen.cfg)
    for p in gen.parameters():
        tensors[p.name] = p.data
    if disc is not None:
        if disc.ref_mean is None:
            raise MissingRefBatchError("refusing to save a discriminator without reference stats")
        for p in disc.parameters():
            tensors[p.name] = p.data
        for i, (mu, var) in enumerate(zip(disc.ref_mean, disc.ref_var), start=1):
            tensors[f"d.vbn{i}.ref_mean"] = mu
            tensors[f"d.vbn{i}.ref_var"] = var
        tensors["d.n_ref"] = np.array([disc.n_ref], dtype=np.float32)
    save_tensors(path, tensors)


def load_checkpoint(path) -> tuple[Generator, Discriminator | None, GeneratorConfig]:
    """Build G, and D when the file holds `d.*` tensors, straight from the
    stored tensors. Every parameter is a view of the file's copy-on-write
    mapping, so a payload that is never read costs nothing: enhancement
    builds D but never touches its weights.
    """
    stored = load_tensors(path)
    cfg = _cfg_from_tensors(stored, path)
    consumed = set(_cfg_tensors(cfg))

    def take(name, shape):
        if name not in stored:
            raise CorruptCheckpointError(f"{path}: missing tensor {name}")
        if stored[name].shape != shape:
            raise CorruptCheckpointError(
                f"{path}: tensor {name} has shape {stored[name].shape}, expected {shape}")
        consumed.add(name)
        return stored[name]

    def make(name, shape, fill):
        return Parameter(name, take(name, shape), dtype=np.float32)

    gen = _generator(cfg, make)
    disc = None
    if any(name.startswith("d.") for name in stored):
        disc = _discriminator(cfg, make)
        disc.n_ref = _stored_ints(stored, "d.n_ref", path, scalar=True)[0]
        if disc.n_ref < 1:
            raise CorruptCheckpointError(
                f"{path}: tensor d.n_ref holds {disc.n_ref}, expected at least 1")
        consumed.add("d.n_ref")
        disc.ref_mean, disc.ref_var = [], []
        for i, ch in enumerate(cfg.enc_channels, start=1):
            disc.ref_mean.append(take(f"d.vbn{i}.ref_mean", (ch,)))
            disc.ref_var.append(take(f"d.vbn{i}.ref_var", (ch,)))

    extra = set(stored) - consumed
    if extra:
        raise CorruptCheckpointError(f"{path}: unexpected tensor {sorted(extra)[0]}")
    return gen, disc, cfg
