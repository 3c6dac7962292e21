"""Finite-difference verification of every differentiable op.

Each case builds a tiny float64 graph from fresh parameters, reduces it to a
scalar through a fixed random projection (so every output coordinate gets a
distinct weight), and compares backprop gradients against central
differences coordinate by coordinate.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np

from . import engine as eg
from .engine import Parameter, Tensor, backward
from .errors import ConfigError
from .model import (GeneratorConfig, _discriminator, _generator, d_forward, g_forward,
                    set_reference_batch)


def grad_check(build_loss, params: list[Parameter], eps: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error is |fd - an| / max(|fd|, |an|); coordinates where both
    magnitudes fall below 1e-7 count as exact agreement, and a non-finite
    value on either side makes the error inf.
    """
    if not eps > 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    for p in params:
        p.zero_grad()
    backward(build_loss())
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = float(build_loss().data)
            flat[i] = saved - eps
            f_minus = float(build_loss().data)
            flat[i] = saved
            fd = (f_plus - f_minus) / (2.0 * eps)
            an_i = an_flat[i]
            if not (np.isfinite(fd) and np.isfinite(an_i)):
                return float("inf")
            if abs(fd) < 1e-7 and abs(an_i) < 1e-7:
                continue
            worst = max(worst, abs(fd - an_i) / max(abs(fd), abs(an_i)))
    return worst


def _param(rng, name, shape):
    return Parameter(name, rng.standard_normal(shape))


def _projected(out: Tensor, rng) -> Tensor:
    w = Tensor(rng.standard_normal(out.data.shape))
    return eg.mul(out, w).sum()


def _away_from_zero(rng, shape, gap=0.3):
    x = rng.standard_normal(shape)
    return x + np.sign(x) * gap


def _case_add(rng):
    a, b = _param(rng, "a", (4, 5, 6)), _param(rng, "b", (1, 1, 6))
    return lambda: _projected(eg.add(a, b), np.random.default_rng(1)), [a, b]


def _case_sub(rng):
    a, b = _param(rng, "a", (4, 5, 6)), _param(rng, "b", (4, 5, 6))
    return lambda: _projected(eg.sub(a, b), np.random.default_rng(1)), [a, b]


def _case_mul(rng):
    a, b = _param(rng, "a", (4, 5, 6)), _param(rng, "b", (6,))
    return lambda: _projected(eg.mul(a, b), np.random.default_rng(1)), [a, b]


def _case_tanh(rng):
    x = _param(rng, "x", (10, 12))
    return lambda: _projected(eg.tanh(x), np.random.default_rng(1)), [x]


def _case_absolute(rng):
    x = Parameter("x", _away_from_zero(rng, (10, 12)))
    return lambda: _projected(eg.absolute(x), np.random.default_rng(1)), [x]


def _case_mean(rng):
    x = _param(rng, "x", (10, 12))
    return lambda: x.mean(), [x]


def _case_sum(rng):
    x = _param(rng, "x", (10, 12))
    return lambda: x.sum(), [x]


def _case_mean_axis(rng):
    x = _param(rng, "x", (4, 6, 5))
    return lambda: _projected(x.mean_axis(1), np.random.default_rng(1)), [x]


def _case_reshape(rng):
    x = _param(rng, "x", (10, 12))
    return lambda: _projected(x.reshape(12, 10), np.random.default_rng(1)), [x]


def _case_prelu(rng):
    x = Parameter("x", _away_from_zero(rng, (2, 20, 3)))
    a = Parameter("a", rng.uniform(0.1, 0.6, (3,)))
    return lambda: _projected(eg.prelu(x, a), np.random.default_rng(1)), [x, a]


def _case_concat(rng):
    a, b = _param(rng, "a", (2, 10, 3)), _param(rng, "b", (2, 10, 2))
    return lambda: _projected(eg.concat_channels(a, b), np.random.default_rng(1)), [a, b]


def _case_linear(rng):
    x, w, b = _param(rng, "x", (10, 6)), _param(rng, "w", (6, 7)), _param(rng, "b", (7,))
    return lambda: _projected(eg.linear(x, w, b), np.random.default_rng(1)), [x, w, b]


def _case_conv1d_s1(rng):
    x, w, b = _param(rng, "x", (2, 12, 3)), _param(rng, "w", (3, 3, 4)), _param(rng, "b", (4,))
    return lambda: _projected(eg.conv1d(x, w, b, stride=1), np.random.default_rng(1)), [x, w, b]


def _case_conv1d_s2(rng):
    x, w, b = _param(rng, "x", (2, 12, 3)), _param(rng, "w", (5, 3, 4)), _param(rng, "b", (4,))
    return lambda: _projected(eg.conv1d(x, w, b, stride=2), np.random.default_rng(1)), [x, w, b]


def _case_conv1d_transpose(rng):
    y, w, b = _param(rng, "y", (2, 6, 3)), _param(rng, "w", (5, 4, 3)), _param(rng, "b", (4,))
    return lambda: _projected(eg.conv1d_transpose(y, w, b, stride=2), np.random.default_rng(1)), [y, w, b]


def _case_conv1d_one_channel(rng):
    # the enc1 shape class: one input channel, SEGAN's width 31 at stride 2
    x, w, b = _param(rng, "x", (2, 32, 1)), _param(rng, "w", (31, 1, 4)), _param(rng, "b", (4,))
    return lambda: _projected(eg.conv1d(x, w, b, stride=2), np.random.default_rng(1)), [x, w, b]


def _case_conv1d_transpose_one_channel(rng):
    # the dec1 shape class: one output channel, width 31 at stride 2
    y, w, b = _param(rng, "y", (2, 16, 3)), _param(rng, "w", (31, 1, 3)), _param(rng, "b", (1,))
    return lambda: _projected(eg.conv1d_transpose(y, w, b, stride=2), np.random.default_rng(1)), [y, w, b]


def _case_vbn(rng, n_ref, off_kink=False):
    x = _param(rng, "x", (2, 20, 3))
    gamma = Parameter("gamma", rng.uniform(0.5, 1.5, (3,)))
    beta = _param(rng, "beta", (3,))
    ref_mean = rng.standard_normal(3)
    ref_var = rng.uniform(0.5, 1.5, 3)
    if off_kink:
        # zero-mean channels 0.3 or more from 0, small beta: no output near the kink
        half = _away_from_zero(rng, (2, 10, 3))
        x.data[:] = np.concatenate([half, -half], axis=1)
        ref_mean[:] = 0.0
        beta.data *= 0.02

    def loss():
        out = eg.virtual_batch_norm(x, ref_mean, ref_var, n_ref, gamma, beta)
        return _projected(out, np.random.default_rng(1))
    return loss, [x, gamma, beta]


def _case_l1_loss(rng):
    a = _param(rng, "a", (2, 60, 1))
    b = Parameter("b", a.data + _away_from_zero(rng, (2, 60, 1), gap=0.2))
    return lambda: eg.l1_loss(a, b), [a, b]


def _case_lsq_loss(rng):
    d = _param(rng, "d", (128, 1))
    return lambda: eg.lsq_loss(d, 1.0), [d]


# the whole networks at a size finite differences can walk
_NET = GeneratorConfig(window=32, filter_width=5, enc_channels=(2, 3, 4), z_channels=2)
# how near its kink a rectifier's input may be: ten times the default eps
_KINK_GAP = 1e-4


def _kink_margin(loss: Tensor) -> float:
    """The least |value| of the PReLU and VBN nodes in loss's graph. Their
    slopes lie in (0, 1), so no rectifier's input is nearer its kink."""
    margin, seen, stack = np.inf, set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward.__qualname__.split(".")[0] in ("prelu", "_normalize"):
                margin = min(margin, float(np.abs(node.data).min()))
            stack.extend(p for p in node._parents if p._backward is not None)
    return margin


def _off_kinks(case):
    """`case`, redrawn until every rectifier input in its loss graph lies
    _KINK_GAP or more from the kink."""
    def redrawn(rng):
        for _ in range(100):
            build_loss, params = case(rng)
            if _kink_margin(build_loss()) >= _KINK_GAP:
                return build_loss, params
        raise RuntimeError(f"{case.__name__}: 100 draws, each with a rectifier input at its kink")
    return redrawn


def _networks(rng):
    """float64 G and D with N(0, 0.3^2) weights, D's reference stats taken
    from a batch of three (clean, noisy) windows, that batch and its z."""
    def make(name, shape, fill):
        return Parameter(name, 0.3 * rng.standard_normal(shape) if fill is None
                         else np.full(shape, float(fill)))
    gen, disc = _generator(_NET, make), _discriminator(_NET, make)
    noisy, clean = (Tensor(rng.uniform(-0.5, 0.5, (3, _NET.window, 1))) for _ in range(2))
    set_reference_batch(disc, clean, noisy)
    z = Tensor(rng.standard_normal((3, _NET.bottleneck_len, _NET.z_channels)))
    return gen, disc, noisy, clean, z


def _case_generator(rng):
    # G's phase-3 loss, the adversarial term plus 100 x L1, with respect to
    # G through a frozen D, as in training; the L1 target sits 0.01 or more
    # from G's output, off |.|'s kink, and close enough that the loss stays
    # small beside its differences
    gen, disc, noisy, _, z = _networks(rng)
    for p in disc.parameters():
        p.requires_grad = False
    with eg.no_grad():
        off = 0.01 * _away_from_zero(rng, noisy.shape, 1.0)
        target = Tensor(g_forward(gen, noisy, z).data + off)
    lam = Tensor(np.asarray(100.0))

    def loss():
        fake = g_forward(gen, noisy, z)
        return eg.add(eg.lsq_loss(d_forward(disc, fake, noisy), 1.0),
                      eg.mul(eg.l1_loss(fake, target), lam))
    return loss, gen.parameters()


def _case_discriminator(rng):
    # D's real-plus-fake least-squares loss with respect to D
    gen, disc, noisy, clean, z = _networks(rng)
    with eg.no_grad():
        fake = g_forward(gen, noisy, z)

    def loss():
        return eg.add(eg.lsq_loss(d_forward(disc, clean, noisy), 1.0),
                      eg.lsq_loss(d_forward(disc, fake, noisy), 0.0))
    return loss, disc.parameters()


OP_CASES = {
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "tanh": _case_tanh,
    "absolute": _case_absolute,
    "mean": _case_mean,
    "sum": _case_sum,
    "mean_axis": _case_mean_axis,
    "reshape": _case_reshape,
    "leaky_relu": partial(_case_vbn, n_ref=16, off_kink=True),   # VBN's rectifier
    "prelu": _case_prelu,
    "concat_channels": _case_concat,
    "linear": _case_linear,
    "conv1d_stride1": _case_conv1d_s1,
    "conv1d_stride2": _case_conv1d_s2,
    "conv1d_transpose": _case_conv1d_transpose,
    "conv1d_one_channel": _case_conv1d_one_channel,
    "conv1d_transpose_one_channel": _case_conv1d_transpose_one_channel,
    "virtual_batch_norm": partial(_case_vbn, n_ref=16),
    # the example's own statistics carry half the weight
    "virtual_batch_norm_n_ref_1": partial(_case_vbn, n_ref=1),
    "l1_loss": _case_l1_loss,
    "lsq_loss": _case_lsq_loss,
    "generator": _off_kinks(_case_generator),
    "discriminator": _off_kinks(_case_discriminator),
}


def check_all_ops(seed: int = 0, eps: float = 1e-5) -> dict[str, float]:
    """Run every op case; returns op name -> max relative gradient error."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    results = {}
    for name, case in OP_CASES.items():
        # seeded by name, so adding or removing a case leaves the others' data alone
        build_loss, params = case(np.random.default_rng([seed, zlib.crc32(name.encode())]))
        results[name] = grad_check(build_loss, params, eps=eps)
    return results
