"""Generator/discriminator wiring, shape ledger, and model checkpoints."""

import json
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import params_digest, reference_stats_oracle

from segan import engine as eg, model
from segan.checkpoint import load_tensors, save_tensors
from segan.engine import Tensor, backward, sample_z
from segan.errors import (ConfigError, CorruptCheckpointError,
                          MissingRefBatchError, ShapeMismatchError)
from segan.model import (GeneratorConfig, build_discriminator,
                         build_generator, d_forward, g_forward,
                         load_checkpoint, save_checkpoint,
                         set_reference_batch, shape_ledger)
from segan.optim import RMSprop

TINY = GeneratorConfig(window=64, filter_width=5, enc_channels=(2, 3), z_channels=4)
REDUCED = GeneratorConfig(window=1024, enc_channels=(16, 32, 64, 128), z_channels=128)


def _tiny_z(batch, seed=0):
    return sample_z(batch, TINY.bottleneck_len, TINY.z_channels, seed=seed)


# ---------------------------------------------------------------------------
# Shape ledger

def test_full_scale_ledger():
    rows = shape_ledger(GeneratorConfig())
    assert rows == [
        ("input", 16384, 1),
        ("enc1", 8192, 16), ("enc2", 4096, 32), ("enc3", 2048, 32),
        ("enc4", 1024, 64), ("enc5", 512, 64), ("enc6", 256, 128),
        ("enc7", 128, 128), ("enc8", 64, 256), ("enc9", 32, 256),
        ("enc10", 16, 512), ("enc11", 8, 1024),
        ("bottleneck+z", 8, 2048),
        ("dec11", 16, 512), ("dec10", 32, 256), ("dec9", 64, 256),
        ("dec8", 128, 128), ("dec7", 256, 128), ("dec6", 512, 64),
        ("dec5", 1024, 64), ("dec4", 2048, 32), ("dec3", 4096, 32),
        ("dec2", 8192, 16), ("dec1", 16384, 1),
    ]


def test_reduced_ledger():
    rows = shape_ledger(REDUCED)
    assert rows[4] == ("enc4", 64, 128)
    assert rows[5] == ("bottleneck+z", 64, 256)
    assert rows[-1] == ("dec1", 1024, 1)
    lengths = [r[1] for r in rows[5:]]
    assert lengths == [64, 128, 256, 512, 1024]


def test_ledger_lengths_halve_then_double():
    rows = shape_ledger(TINY)
    assert [r[1] for r in rows] == [64, 32, 16, 16, 32, 64]


# ---------------------------------------------------------------------------
# Config validation

def test_config_validation():
    with pytest.raises(ConfigError, match="divisible"):
        GeneratorConfig(window=100)
    with pytest.raises(ConfigError, match="odd"):
        GeneratorConfig(filter_width=30)
    with pytest.raises(ConfigError, match="stride"):
        GeneratorConfig(stride=0)
    with pytest.raises(ConfigError, match="z_channels"):
        GeneratorConfig(z_channels=0)
    with pytest.raises(ConfigError, match="encoder layer"):
        GeneratorConfig(enc_channels=())
    with pytest.raises(ConfigError, match="positive"):
        GeneratorConfig(window=64, enc_channels=(4, 0))


def test_bottleneck_len():
    assert GeneratorConfig().bottleneck_len == 8
    assert REDUCED.bottleneck_len == 64
    assert TINY.bottleneck_len == 16


# ---------------------------------------------------------------------------
# Builders

def test_build_generator_deterministic():
    a = build_generator(TINY, seed=1)
    b = build_generator(TINY, seed=1)
    c = build_generator(TINY, seed=2)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_parameter_inventory():
    gen = build_generator(TINY)
    depth = TINY.depth
    assert len(gen.parameters()) == 6 * depth - 1
    disc = build_discriminator(TINY)
    assert len(disc.parameters()) == 4 * depth + 4
    for p in gen.parameters() + disc.parameters():
        assert p.data.dtype == np.float32


def test_weight_init_statistics():
    cfg = GeneratorConfig(window=512, enc_channels=(16, 32, 64), z_channels=32)
    gen = build_generator(cfg, seed=0)
    w = gen.enc_w[-1].data  # (31, 32, 64): enough draws to pin the std
    assert abs(w.std() - 0.02) < 0.002
    assert abs(w.mean()) < 0.001
    assert np.all(gen.enc_b[0].data == 0.0)
    assert np.all(gen.enc_a[0].data == np.float32(0.25))
    disc = build_discriminator(cfg, seed=0)
    assert np.all(disc.gamma[0].data == 1.0)
    assert np.all(disc.beta[0].data == 0.0)


def test_discriminator_head_shapes():
    disc = build_discriminator(REDUCED)
    assert disc.out_w.data.shape == (64, 1)
    assert disc.head_w.data.shape == (1, 128, 1)
    tiny = build_discriminator(TINY)
    assert tiny.conv_w[0].data.shape == (5, 2, 2)


# ---------------------------------------------------------------------------
# Generator forward

def test_g_forward_shape_range_and_purity():
    gen = build_generator(TINY, seed=3)
    rng = np.random.default_rng(0)
    noisy = rng.uniform(-0.9, 0.9, (2, 64)).astype(np.float32)
    z = _tiny_z(2)
    out1 = g_forward(gen, noisy, z)
    out2 = g_forward(gen, noisy, z)
    assert out1.data.shape == (2, 64, 1)
    assert out1.data.dtype == np.float32
    assert np.all(np.abs(out1.data) < 1.0)
    assert np.array_equal(out1.data, out2.data)


def test_g_forward_accepts_3d_input():
    gen = build_generator(TINY, seed=3)
    noisy = np.zeros((1, 64, 1), dtype=np.float32)
    assert g_forward(gen, noisy, _tiny_z(1)).data.shape == (1, 64, 1)


def test_g_forward_validation():
    gen = build_generator(TINY, seed=3)
    with pytest.raises(ShapeMismatchError):
        g_forward(gen, np.zeros((1, 63)), _tiny_z(1))
    with pytest.raises(ShapeMismatchError):
        g_forward(gen, np.zeros((1, 64)), _tiny_z(2))
    with pytest.raises(ShapeMismatchError):
        g_forward(gen, np.zeros((1, 64)), sample_z(1, 8, TINY.z_channels))


def _reference_g_forward(gen, noisy, z, skip_gain=None, detach_bottleneck=False):
    """g_forward rebuilt from engine ops, with two ablations: scale every
    skip tensor by skip_gain, or cut the gradient path through the bottleneck.
    """
    stride = gen.cfg.stride
    h = Tensor(noisy[..., None])
    enc_out = []
    for w, b, a in zip(gen.enc_w, gen.enc_b, gen.enc_a):
        h = eg.prelu(eg.conv1d(h, w, b, stride=stride), a)
        enc_out.append(h)
    bottleneck = enc_out[-1].detach() if detach_bottleneck else enc_out[-1]
    h = eg.concat_channels(bottleneck, z)
    skips = enc_out[-2::-1]
    for i, (w, b) in enumerate(zip(gen.dec_w, gen.dec_b)):
        h = eg.conv1d_transpose(h, w, b, stride=stride)
        if i == len(skips):
            return eg.tanh(h)
        skip = skips[i]
        if skip_gain is not None:
            skip = eg.mul(skip, Tensor(np.asarray(skip_gain, skip.data.dtype)))
        h = eg.concat_channels(eg.prelu(h, gen.dec_a[i]), skip)


def test_reference_forward_matches_g_forward_bitwise():
    gen = build_generator(TINY, seed=3)
    noisy = np.random.default_rng(1).uniform(-0.5, 0.5, (2, 64)).astype(np.float32)
    z = _tiny_z(2)
    backward(g_forward(gen, noisy, z).sum())
    grads = [p.grad.copy() for p in gen.parameters()]
    for p in gen.parameters():
        p.zero_grad()
    ref = _reference_g_forward(gen, noisy, z)
    assert np.array_equal(ref.data, g_forward(gen, noisy, z).data)
    backward(ref.sum())
    for p, g in zip(gen.parameters(), grads):
        assert np.array_equal(p.grad, g), p.name


def test_skip_connections_carry_signal():
    gen = build_generator(TINY, seed=3)
    noisy = np.random.default_rng(1).uniform(-0.5, 0.5, (1, 64)).astype(np.float32)
    z = _tiny_z(1)
    base = g_forward(gen, noisy, z).data
    ablated = _reference_g_forward(gen, noisy, z, skip_gain=0.0).data
    assert not np.array_equal(base, ablated)
    scaled = _reference_g_forward(gen, noisy, z, skip_gain=1.0).data
    assert np.allclose(scaled, base, atol=1e-7)


def test_detach_bottleneck_leaves_skip_gradients_alive():
    gen = build_generator(TINY, seed=3)
    noisy = np.random.default_rng(1).uniform(-0.5, 0.5, (1, 64)).astype(np.float32)
    out = _reference_g_forward(gen, noisy, _tiny_z(1), detach_bottleneck=True)
    backward(out.sum())
    # the deepest encoder layer only feeds the (cut) bottleneck path
    assert np.all(gen.enc_w[-1].grad == 0.0)
    # shallower layers still reach the output through their skips
    assert np.any(gen.enc_w[0].grad != 0.0)


def test_full_graph_reaches_every_generator_parameter():
    gen = build_generator(TINY, seed=3)
    noisy = np.random.default_rng(1).uniform(-0.5, 0.5, (2, 64)).astype(np.float32)
    out = g_forward(gen, noisy, _tiny_z(2))
    backward(out.sum())
    for p in gen.parameters():
        assert p.grad is not None and np.any(p.grad != 0.0), p.name


def test_g_forward_frees_each_skip_once_concatenated(monkeypatch):
    # without a graph, each encoder output dies as soon as the concat that
    # reads it returns: the bottleneck concat reads the deepest as its first
    # operand, each decoder concat one skip as its second
    skips, concat = [], eg.concat_channels

    def spy(a, b):
        assert all(ref() is None for ref in skips), [ref() is None for ref in skips]
        skips.append(weakref.ref(b if skips else a))
        return concat(a, b)
    monkeypatch.setattr(eg, "concat_channels", spy)
    gen = build_generator(REDUCED, seed=3)
    noisy = np.random.default_rng(1).uniform(-0.5, 0.5, (2, REDUCED.window)).astype(np.float32)
    z = sample_z(2, REDUCED.bottleneck_len, REDUCED.z_channels, seed=0)
    with eg.no_grad():
        g_forward(gen, noisy, z)
    assert len(skips) == REDUCED.depth
    assert all(ref() is None for ref in skips)


# ---------------------------------------------------------------------------
# Discriminator forward

def _ref_batch(rng, batch=4):
    return (rng.uniform(-0.5, 0.5, (batch, 64)).astype(np.float32),
            rng.uniform(-0.5, 0.5, (batch, 64)).astype(np.float32))


def test_d_forward_shape():
    disc = build_discriminator(TINY, seed=4)
    rng = np.random.default_rng(2)
    set_reference_batch(disc, *_ref_batch(rng))
    score = d_forward(disc, *_ref_batch(rng, batch=3))
    assert score.data.shape == (3, 1)
    assert np.all(np.isfinite(score.data))


def test_d_forward_requires_reference():
    disc = build_discriminator(TINY, seed=4)
    with pytest.raises(MissingRefBatchError):
        d_forward(disc, np.zeros((1, 64)), np.zeros((1, 64)))


def test_d_forward_channel_order_matters():
    disc = build_discriminator(TINY, seed=4)
    rng = np.random.default_rng(2)
    set_reference_batch(disc, *_ref_batch(rng))
    a, b = _ref_batch(rng, batch=2)
    assert not np.array_equal(d_forward(disc, a, b).data,
                              d_forward(disc, b, a).data)


def test_d_zero_parameters_score_zero():
    disc = build_discriminator(TINY, seed=4)
    for p in disc.parameters():
        p.data[...] = 0.0
    rng = np.random.default_rng(2)
    set_reference_batch(disc, *_ref_batch(rng))
    score = d_forward(disc, *_ref_batch(rng, batch=2))
    assert np.array_equal(score.data, np.zeros((2, 1), dtype=np.float32))


def test_reference_stats_shape_and_effect():
    disc = build_discriminator(TINY, seed=4)
    rng = np.random.default_rng(2)
    set_reference_batch(disc, *_ref_batch(rng))
    assert disc.n_ref == 4
    assert len(disc.ref_mean) == TINY.depth
    assert disc.ref_mean[0].shape == (TINY.enc_channels[0],)
    probe = _ref_batch(np.random.default_rng(5), batch=2)
    s1 = d_forward(disc, *probe).data.copy()
    set_reference_batch(disc, *_ref_batch(np.random.default_rng(9)))
    s2 = d_forward(disc, *probe).data
    assert not np.array_equal(s1, s2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("channel_axis", [False, True], ids=["BW", "BW1"])
@pytest.mark.parametrize("cfg", [TINY, REDUCED], ids=["tiny", "reduced"])
def test_reference_stats_match_raw_numpy_oracle(cfg, channel_axis, seed):
    rng = np.random.default_rng(seed)
    disc = build_discriminator(cfg, seed=seed)
    for p in disc.gamma + disc.beta:
        p.data[...] = rng.uniform(-1.5, 1.5, p.data.shape)
    shape = (4, cfg.window, 1) if channel_axis else (4, cfg.window)
    cand, noisy = (rng.uniform(-0.5, 0.5, shape).astype(np.float32) for _ in range(2))
    set_reference_batch(disc, cand, noisy)
    means, variances, n_ref = reference_stats_oracle(disc, cand, noisy)
    assert disc.n_ref == n_ref
    for got, want in zip(disc.ref_mean + disc.ref_var, means + variances, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    probe = [rng.uniform(-0.5, 0.5, (3, cfg.window)).astype(np.float32) for _ in range(2)]
    score = d_forward(disc, *probe).data
    disc.ref_mean, disc.ref_var, disc.n_ref = means, variances, n_ref
    assert np.array_equal(score, d_forward(disc, *probe).data)


def test_reference_batch_validation():
    disc = build_discriminator(TINY, seed=4)
    with pytest.raises(ShapeMismatchError):
        set_reference_batch(disc, np.zeros((2, 63)), np.zeros((2, 63)))
    with pytest.raises(ShapeMismatchError):
        set_reference_batch(disc, np.zeros((2, 64)), np.zeros((3, 64)))


# ---------------------------------------------------------------------------
# Model checkpoints

def test_generator_checkpoint_round_trip(tmp_path):
    gen = build_generator(TINY, seed=6)
    path = tmp_path / "g.sgn"
    save_checkpoint(path, gen)
    loaded, disc, cfg = load_checkpoint(path)
    assert disc is None
    assert cfg == TINY
    noisy = np.random.default_rng(0).uniform(-0.5, 0.5, (2, 64)).astype(np.float32)
    z = _tiny_z(2)
    assert np.array_equal(g_forward(gen, noisy, z).data,
                          g_forward(loaded, noisy, z).data)


def test_full_checkpoint_round_trip(tmp_path):
    gen = build_generator(TINY, seed=6)
    disc = build_discriminator(TINY, seed=7)
    rng = np.random.default_rng(2)
    set_reference_batch(disc, *_ref_batch(rng))
    path = tmp_path / "gd.sgn"
    save_checkpoint(path, gen, disc)
    _, loaded, cfg = load_checkpoint(path)
    assert cfg == TINY
    assert loaded is not None
    assert loaded.n_ref == disc.n_ref
    for a, b in zip(disc.ref_mean, loaded.ref_mean):
        assert np.array_equal(a, b)
    probe = _ref_batch(np.random.default_rng(5), batch=2)
    assert np.array_equal(d_forward(disc, *probe).data,
                          d_forward(loaded, *probe).data)


def test_save_refuses_disc_without_reference(tmp_path):
    gen = build_generator(TINY)
    disc = build_discriminator(TINY)
    with pytest.raises(MissingRefBatchError):
        save_checkpoint(tmp_path / "x.sgn", gen, disc)


def _edit_archive(path, mutate):
    tensors = load_tensors(path)
    mutate(tensors)
    save_tensors(path, tensors)


def test_checkpoint_round_trips_every_config_field(tmp_path):
    cfg = GeneratorConfig(window=243, filter_width=7, stride=3, enc_channels=(3, 5), z_channels=6)
    for f in fields(GeneratorConfig):
        assert getattr(cfg, f.name) != f.default, f.name
    gen = build_generator(cfg, seed=4)
    path = tmp_path / "g.sgn"
    save_checkpoint(path, gen)
    assert {name for name in load_tensors(path) if name.startswith("cfg.")} == {
        f"cfg.{f.name}" for f in fields(GeneratorConfig)}
    loaded, _, got = load_checkpoint(path)
    assert got == cfg
    noisy = np.random.default_rng(1).uniform(-0.5, 0.5, (2, 243)).astype(np.float32)
    z = sample_z(2, cfg.bottleneck_len, cfg.z_channels, seed=2)
    assert np.array_equal(g_forward(gen, noisy, z).data, g_forward(loaded, noisy, z).data)


@pytest.mark.parametrize("field", [f.name for f in fields(GeneratorConfig)])
def test_load_names_missing_config_tensor(tmp_path, field):
    path = tmp_path / "g.sgn"
    save_checkpoint(path, build_generator(TINY))
    _edit_archive(path, lambda t: t.pop(f"cfg.{field}"))
    with pytest.raises(CorruptCheckpointError, match=f"missing tensor cfg.{field}$"):
        load_checkpoint(path)


def test_load_names_missing_tensor(tmp_path):
    path = tmp_path / "g.sgn"
    save_checkpoint(path, build_generator(TINY))
    _edit_archive(path, lambda t: t.pop("g.enc1.w"))
    with pytest.raises(CorruptCheckpointError, match="missing tensor g.enc1.w"):
        load_checkpoint(path)


def test_load_names_misshapen_tensor(tmp_path):
    path = tmp_path / "g.sgn"
    save_checkpoint(path, build_generator(TINY))
    _edit_archive(path, lambda t: t.update({"g.enc1.b": np.zeros(7, np.float32)}))
    with pytest.raises(CorruptCheckpointError, match="g.enc1.b"):
        load_checkpoint(path)


def test_load_rejects_unexpected_tensor(tmp_path):
    path = tmp_path / "g.sgn"
    save_checkpoint(path, build_generator(TINY))
    _edit_archive(path, lambda t: t.update({"bogus": np.zeros(1, np.float32)}))
    with pytest.raises(CorruptCheckpointError, match="unexpected tensor bogus"):
        load_checkpoint(path)


def test_load_names_missing_ref_stats(tmp_path):
    gen = build_generator(TINY, seed=6)
    disc = build_discriminator(TINY, seed=7)
    set_reference_batch(disc, *_ref_batch(np.random.default_rng(2)))
    path = tmp_path / "gd.sgn"
    save_checkpoint(path, gen, disc)
    _edit_archive(path, lambda t: t.pop("d.vbn1.ref_mean"))
    with pytest.raises(CorruptCheckpointError, match="d.vbn1.ref_mean"):
        load_checkpoint(path)


def test_load_draws_no_random_numbers(tmp_path, monkeypatch):
    gen = build_generator(TINY, seed=6)
    disc = build_discriminator(TINY, seed=7)
    set_reference_batch(disc, *_ref_batch(np.random.default_rng(2)))
    path = tmp_path / "gd.sgn"
    save_checkpoint(path, gen, disc)

    def no_rng(*_a, **_k):
        raise AssertionError("load_checkpoint drew random numbers")
    monkeypatch.setattr(model.np.random, "default_rng", no_rng)
    loaded_gen, loaded_disc, _ = load_checkpoint(path)
    assert params_digest(loaded_gen.parameters()) == params_digest(gen.parameters())
    assert params_digest(loaded_disc.parameters()) == params_digest(disc.parameters())
    for p in loaded_gen.parameters() + loaded_disc.parameters():
        assert p.data.dtype == np.float32 and p.data.dtype.isnative
        assert np.array_equal(p.grad, np.zeros_like(p.data))


_LOAD_RSS_SCRIPT = """
import json, resource, sys
from segan.model import load_checkpoint
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
gen, disc, _ = load_checkpoint(sys.argv[1])
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
params = gen.parameters() + (disc.parameters() if disc is not None else [])
print(json.dumps({
    "grown_bytes": grown * 1024,
    "weight_bytes": sum(p.data.nbytes for p in params),
    "zero_grads": all(p.grad.shape == p.data.shape and p.grad.dtype == p.data.dtype
                      and not p.grad.any() for p in params),
}))
"""

BIG = GeneratorConfig(window=4, filter_width=31, enc_channels=(384, 768), z_channels=16)


def _fresh_load(path):
    """Load `path` in a fresh interpreter; the script's JSON report of
    ru_maxrss growth and weight bytes."""
    # A process started by exec inherits the ru_maxrss of the one that
    # forked it, so the load runs in an interpreter started by a small relay
    # interpreter rather than by this large test process.
    src = str(Path(model.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    relay = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    proc = subprocess.run([sys.executable, "-c", relay,
                           sys.executable, "-c", _LOAD_RSS_SCRIPT, str(path)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_loaded_gradient_buffers_take_no_memory_until_written(tmp_path):
    path = tmp_path / "big.sgn"
    save_checkpoint(path, build_generator(BIG, seed=0))
    got = _fresh_load(path)
    assert got["weight_bytes"] >= 64 << 20
    assert got["grown_bytes"] < 1.5 * got["weight_bytes"], got
    assert got["zero_grads"]


def test_fresh_load_maps_payloads_without_reading_them(tmp_path):
    disc = build_discriminator(BIG, seed=1)
    rng = np.random.default_rng(0)
    set_reference_batch(disc, rng.uniform(-0.5, 0.5, (2, 4)), rng.uniform(-0.5, 0.5, (2, 4)))
    path = tmp_path / "big.sgn"
    save_checkpoint(path, build_generator(BIG, seed=0), disc)
    got = _fresh_load(path)
    assert got["weight_bytes"] >= 96 << 20
    assert got["grown_bytes"] < 0.1 * got["weight_bytes"], got


def test_loaded_model_keeps_its_weights_when_its_file_is_saved_over(tmp_path):
    path = tmp_path / "g.sgn"
    save_checkpoint(path, build_generator(TINY, seed=6))
    loaded, _, _ = load_checkpoint(path)
    save_checkpoint(path, build_generator(TINY, seed=7))
    assert params_digest(loaded.parameters()) == params_digest(build_generator(TINY, seed=6).parameters())
    assert (params_digest(load_checkpoint(path)[0].parameters())
            == params_digest(build_generator(TINY, seed=7).parameters()))


def test_training_a_loaded_model_leaves_its_file_unchanged(tmp_path):
    path = tmp_path / "g.sgn"
    save_checkpoint(path, build_generator(TINY, seed=6))
    blob = path.read_bytes()
    loaded, _, _ = load_checkpoint(path)
    before = params_digest(loaded.parameters())
    opt = RMSprop(loaded.parameters())
    noisy, clean = np.random.default_rng(3).uniform(-0.5, 0.5, (2, 2, 64)).astype(np.float32)
    backward(eg.l1_loss(g_forward(loaded, noisy, _tiny_z(2)), Tensor(clean[..., None])))
    opt.step()
    assert params_digest(loaded.parameters()) != before
    assert path.read_bytes() == blob


def test_load_truncated_file(tmp_path):
    path = tmp_path / "g.sgn"
    save_checkpoint(path, build_generator(TINY))
    path.write_bytes(path.read_bytes()[:50])
    with pytest.raises(CorruptCheckpointError, match="truncated"):
        load_checkpoint(path)
