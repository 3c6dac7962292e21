"""Three-phase training loop, gradient isolation, and file enhancement."""

import tracemalloc
import weakref

import numpy as np
import pytest

from segan import engine as eg
from segan import trainer
from segan.audio_io import PREEMPH, chunk, preemphasis, read_wav, reassemble, write_wav
from segan.dataset import Corpus, build_pairs
from segan.engine import Tensor, backward, sample_z
from segan.checkpoint import load_tensors, save_tensors
from segan.errors import (ConfigError, CorruptCheckpointError, NonFiniteLossError,
                          WrongRateError)
from segan.model import (GeneratorConfig, build_discriminator,
                         build_generator, g_forward, load_checkpoint,
                         save_checkpoint, set_reference_batch)
from segan.optim import RMSprop
from segan.trainer import (ENHANCE_BATCH, Z_MODES, TrainConfig, _z_seed_for,
                           enhance_file, train, train_step)

from helpers import (emphasis_oracle, enhance_whole_file, params_digest, read_raw_pcm,
                     reduced_adversarial, write_raw_wav)

TINY = GeneratorConfig(window=64, filter_width=5, enc_channels=(2, 3), z_channels=4)


def _batch(rng, n=4, window=64):
    return (rng.uniform(-0.5, 0.5, (n, window)).astype(np.float32),
            rng.uniform(-0.5, 0.5, (n, window)).astype(np.float32))


def _tiny_corpus(count, rng, window=64):
    """`count` random (noisy, clean) windows laid end to end, hop == window."""
    parts = [rng.uniform(-0.5, 0.5, (2, window)) for _ in range(count)]
    noisy, clean = np.concatenate(parts or [np.zeros((2, 0))], axis=1).astype(np.float32)
    return Corpus(noisy=noisy, clean=clean, starts=np.arange(0, count * window, window),
                  window=window, hop=window, utterances=count)


class SpyRMSprop(RMSprop):
    """Records parameter digests and raw gradients around every step."""

    def __init__(self, params, **kw):
        super().__init__(params, **kw)
        self.pre = []
        self.post = []
        self.grads = []

    def step(self):
        self.pre.append(params_digest(self.params))
        self.grads.append([p.grad.copy() for p in self.params])
        super().step()
        self.post.append(params_digest(self.params))


# ---------------------------------------------------------------------------
# Loss wiring

def test_constant_discriminator_and_zero_lambda_leave_generator_fixed():
    # A discriminator whose every weight is zero scores any input with its
    # output bias alone, so no gradient can reach the generator through it;
    # with the regression weight at zero the generator must not move.
    gen = build_generator(TINY, seed=3)
    disc = build_discriminator(TINY, seed=4)
    for p in disc.parameters():
        p.data[...] = 0.0
    disc.out_b.data[...] = 1.0
    rng = np.random.default_rng(0)
    set_reference_batch(disc, *_batch(rng))

    before = [p.data.copy() for p in gen.parameters()]
    cfg = TrainConfig(epochs=1, lambda_l1=0.0, seed=0)
    noisy, clean = _batch(rng)
    z = sample_z(4, TINY.bottleneck_len, TINY.z_channels, seed=1)
    rep = train_step(gen, disc, RMSprop(gen.parameters()),
                     RMSprop(disc.parameters()), noisy, clean, z, cfg)
    for p, old in zip(gen.parameters(), before):
        assert np.all(p.grad == 0.0), p.name
        assert np.array_equal(p.data, old), p.name
    assert np.isfinite(rep.g_adv) and rep.g_l1 > 0.0


def test_lambda_only_step_matches_manual_graph_bitwise():
    rng = np.random.default_rng(5)
    gen_a = build_generator(TINY, seed=9)
    gen_b = build_generator(TINY, seed=9)
    opt_a = RMSprop(gen_a.parameters())
    opt_b = RMSprop(gen_b.parameters())
    cfg = TrainConfig(epochs=1, adversarial=False, lambda_l1=100.0)

    for step in range(3):
        noisy, clean = _batch(rng)
        z = sample_z(4, TINY.bottleneck_len, TINY.z_channels, seed=step)
        train_step(gen_a, None, opt_a, None, noisy, clean, z, cfg, step=step)

        opt_b.zero_grad()
        out = g_forward(gen_b, Tensor(noisy), Tensor(z.data))
        loss = eg.mul(eg.l1_loss(out, Tensor(clean[..., None])),
                      Tensor(np.asarray(100.0, np.float32)))
        backward(loss)
        opt_b.step()

    assert params_digest(gen_a.parameters()) == params_digest(gen_b.parameters())


def test_discriminator_is_untouched_by_the_generator_phase():
    gen = build_generator(TINY, seed=3)
    disc = build_discriminator(TINY, seed=4)
    rng = np.random.default_rng(0)
    set_reference_batch(disc, *_batch(rng))
    g_opt = SpyRMSprop(gen.parameters())
    d_opt = SpyRMSprop(disc.parameters())
    cfg = TrainConfig(epochs=1, seed=0)

    steps = 3
    for step in range(steps):
        noisy, clean = _batch(rng)
        z = sample_z(4, TINY.bottleneck_len, TINY.z_channels, seed=step)
        train_step(gen, disc, g_opt, d_opt, noisy, clean, z, cfg, step=step)

    # two discriminator updates per step, one generator update
    assert len(d_opt.pre) == 2 * steps
    assert len(g_opt.pre) == steps
    for k in range(steps):
        # generating the fakes between the two halves moves nothing
        assert d_opt.pre[2 * k + 1] == d_opt.post[2 * k]
        if k + 1 < steps:
            # the generator phase sits between post[2k+1] and pre[2k+2]
            assert d_opt.pre[2 * k + 2] == d_opt.post[2 * k + 1]
    assert params_digest(disc.parameters()) == d_opt.post[-1]
    # and the discriminator did actually train in its own phases
    assert any(pre != post for pre, post in zip(d_opt.pre, d_opt.post))


def test_generator_phase_leaves_discriminator_gradients_as_phase_two_left_them():
    gen = build_generator(TINY, seed=3)
    disc = build_discriminator(TINY, seed=4)
    rng = np.random.default_rng(0)
    set_reference_batch(disc, *_batch(rng))
    d_opt = SpyRMSprop(disc.parameters())
    noisy, clean = _batch(rng)
    z = sample_z(4, TINY.bottleneck_len, TINY.z_channels)
    train_step(gen, disc, RMSprop(gen.parameters()), d_opt, noisy, clean, z,
               TrainConfig(epochs=1))
    # d_opt.grads[1]: the gradients phase 2 handed to its update
    assert len(d_opt.grads) == 2
    for p, phase2 in zip(disc.parameters(), d_opt.grads[1]):
        assert np.array_equal(p.grad, phase2), p.name
        assert p.requires_grad


@pytest.mark.parametrize("debug_checks", [False, True])
def test_generator_phase_restores_discriminator_requires_grad_on_error(monkeypatch, debug_checks):
    # a NaN regression loss fails phase 3 only: after the loop without debug
    # checks (NonFiniteLossError), inside it with them (FloatingPointError)
    gen = build_generator(TINY, seed=3)
    disc = build_discriminator(TINY, seed=4)
    rng = np.random.default_rng(0)
    set_reference_batch(disc, *_batch(rng))
    l1_loss = eg.l1_loss
    monkeypatch.setattr(eg, "l1_loss",
                        lambda a, b: eg.mul(l1_loss(a, b), Tensor(np.float32(np.nan))))
    noisy, clean = _batch(rng)
    z = sample_z(4, TINY.bottleneck_len, TINY.z_channels)
    eg.set_debug_checks(debug_checks)
    try:
        with pytest.raises(FloatingPointError if debug_checks else NonFiniteLossError):
            train_step(gen, disc, RMSprop(gen.parameters()), RMSprop(disc.parameters()),
                       noisy, clean, z, TrainConfig(epochs=1))
    finally:
        eg.set_debug_checks(False)
    assert all(p.requires_grad for p in disc.parameters())


def test_adversarial_step_requires_discriminator():
    gen = build_generator(TINY, seed=3)
    noisy, clean = _batch(np.random.default_rng(0))
    z = sample_z(4, TINY.bottleneck_len, TINY.z_channels)
    with pytest.raises(ConfigError, match="needs a discriminator"):
        train_step(gen, None, RMSprop(gen.parameters()), None,
                   noisy, clean, z, TrainConfig(epochs=1))


def test_gradient_accumulation_sums_micro_batches():
    rng = np.random.default_rng(7)
    noisy, clean = _batch(rng, n=8)
    z = sample_z(8, TINY.bottleneck_len, TINY.z_channels, seed=2)

    grads = {}
    deltas = {}
    for accum in (1, 4):
        gen = build_generator(TINY, seed=11)
        before = [p.data.copy() for p in gen.parameters()]
        opt = SpyRMSprop(gen.parameters())
        cfg = TrainConfig(epochs=1, adversarial=False, accum_steps=accum)
        train_step(gen, None, opt, None, noisy, clean, z, cfg)
        assert len(opt.grads) == 1  # one optimizer step regardless of accum
        grads[accum] = opt.grads[0]
        deltas[accum] = [p.data - old for p, old in zip(gen.parameters(), before)]

    for g1, g4 in zip(grads[1], grads[4]):
        # four quarter-batch means sum to four times the full-batch mean
        assert np.allclose(g4, 4.0 * g1, rtol=1e-4, atol=1e-7)
    for d1, d4, g1 in zip(deltas[1], deltas[4], grads[1]):
        big = np.abs(g1) > 1e-3  # where the update is not epsilon-dominated
        if np.any(big):
            assert np.allclose(d1[big], d4[big], rtol=1e-2, atol=1e-9)


def test_accum_steps_beyond_batch_size_clamps():
    rng = np.random.default_rng(1)
    gen = build_generator(TINY, seed=2)
    noisy, clean = _batch(rng, n=2)
    z = sample_z(2, TINY.bottleneck_len, TINY.z_channels)
    cfg = TrainConfig(epochs=1, adversarial=False, accum_steps=8)
    rep = train_step(gen, None, RMSprop(gen.parameters()), None,
                     noisy, clean, z, cfg)
    assert np.isfinite(rep.g_l1)


def test_gradient_accumulation_lowers_the_step_peak():
    gen, disc, g_opt, d_opt, noisy, clean, z = reduced_adversarial()
    peaks = {}
    for accum in (1, 2, 4):
        tracemalloc.start()
        try:
            train_step(gen, disc, g_opt, d_opt, noisy, clean, z,
                       TrainConfig(epochs=1, accum_steps=accum), step=accum)
            peaks[accum] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1] > peaks[2] > peaks[4], peaks
    # phase 3 rebuilds one micro-batch's G graph at a time, so the peak
    # keeps falling with the micro-batch (0.37 of accum 1's at accum 4);
    # with every micro-batch's G graph alive through phase 3 it was 0.48
    assert peaks[4] < 0.42 * peaks[1], peaks


def test_adversarial_step_peak_stays_below_42_mb():
    # each D layer's graph keeps three arrays of its activation's size (conv,
    # VBN and LeakyReLU outputs), about 34 MB in all; eight per layer read 55
    gen, disc, g_opt, d_opt, noisy, clean, z = reduced_adversarial()
    tcfg = TrainConfig(epochs=1, accum_steps=1)
    train_step(gen, disc, g_opt, d_opt, noisy, clean, z, tcfg, step=0)   # warm step
    tracemalloc.start()
    try:
        train_step(gen, disc, g_opt, d_opt, noisy, clean, z, tcfg, step=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42e6, peak / 1e6


def test_adversarial_step_peak_stays_below_26_mb():
    # each loss graph dies when its backward ends, a node keeps the gradient
    # its child's closure made, and each D layer keeps two activation-sized
    # arrays, its LeakyReLU fused into VBN's normalize node: 24.1 MB
    # measured, 26.2 with a separate LeakyReLU node, 33.8 while the D-real
    # and D-fake graphs lived to the step's end
    gen, disc, g_opt, d_opt, noisy, clean, z = reduced_adversarial()
    tcfg = TrainConfig(epochs=1, accum_steps=1)
    train_step(gen, disc, g_opt, d_opt, noisy, clean, z, tcfg, step=0)   # warm step
    tracemalloc.start()
    try:
        train_step(gen, disc, g_opt, d_opt, noisy, clean, z, tcfg, step=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26e6, peak / 1e6


@pytest.mark.parametrize("accum", [1, 2])
def test_each_discriminator_graph_dies_after_its_backward(monkeypatch, accum):
    # every D forward (D-real, D-fake, phase 3) finds each loss built before it dead
    losses, lsq_loss, d_forward = [], eg.lsq_loss, trainer.d_forward

    def record(*args):
        loss = lsq_loss(*args)
        losses.append(weakref.ref(loss))
        return loss

    def checked(*args):
        assert all(ref() is None for ref in losses), len(losses)
        return d_forward(*args)
    monkeypatch.setattr(eg, "lsq_loss", record)
    monkeypatch.setattr(trainer, "d_forward", checked)
    gen, disc = build_generator(TINY, seed=0), build_discriminator(TINY, seed=1)
    noisy, clean = _batch(np.random.default_rng(4))
    set_reference_batch(disc, clean, noisy)
    train_step(gen, disc, RMSprop(gen.parameters()), RMSprop(disc.parameters()), noisy, clean,
               sample_z(4, TINY.bottleneck_len, TINY.z_channels, seed=2),
               TrainConfig(epochs=1, accum_steps=accum))
    assert len(losses) == 3 * accum
    assert all(ref() is None for ref in losses)


@pytest.mark.parametrize("adversarial", [True, False])
@pytest.mark.parametrize("accum", [1, 2])
def test_each_generator_graph_dies_after_its_backward(monkeypatch, adversarial, accum):
    # one micro-batch reuses phase 2's G graph; several rebuild theirs in
    # phase 3, each after the previous one is gone; none reaches G's update
    built, g_forward = [], trainer.g_forward

    def record(*args):
        if not eg._grad_enabled:        # phase 2 under accumulation: no graph
            return g_forward(*args)
        assert all(ref() is None for ref in built)
        fake = g_forward(*args)
        built.append(weakref.ref(fake))
        return fake

    class Checked(RMSprop):
        def step(self):
            assert all(ref() is None for ref in built)
            super().step()
    monkeypatch.setattr(trainer, "g_forward", record)
    gen = build_generator(TINY, seed=0)
    disc = build_discriminator(TINY, seed=1) if adversarial else None
    noisy, clean = _batch(np.random.default_rng(5))
    if adversarial:
        set_reference_batch(disc, clean, noisy)
    train_step(gen, disc, Checked(gen.parameters()),
               RMSprop(disc.parameters()) if adversarial else None, noisy, clean,
               sample_z(4, TINY.bottleneck_len, TINY.z_channels, seed=2),
               TrainConfig(epochs=1, adversarial=adversarial, accum_steps=accum))
    assert len(built) == accum


def test_non_finite_loss_raises():
    gen = build_generator(TINY, seed=2)
    noisy = np.full((2, 64), np.nan, dtype=np.float32)
    clean = np.zeros((2, 64), dtype=np.float32)
    z = sample_z(2, TINY.bottleneck_len, TINY.z_channels)
    cfg = TrainConfig(epochs=1, adversarial=False)
    with pytest.raises(NonFiniteLossError, match="g_l1"):
        train_step(gen, None, RMSprop(gen.parameters()), None,
                   noisy, clean, z, cfg)


@pytest.mark.parametrize("adversarial", [False, True])
def test_non_finite_loss_applies_no_step(adversarial):
    gen = build_generator(TINY, seed=2)
    disc = build_discriminator(TINY, seed=3)
    set_reference_batch(disc, *_batch(np.random.default_rng(0)))
    g_opt, d_opt = RMSprop(gen.parameters()), RMSprop(disc.parameters())
    # one finite step first, so the caches hold something to corrupt
    noisy, clean = _batch(np.random.default_rng(1))
    z = sample_z(4, TINY.bottleneck_len, TINY.z_channels)
    cfg = TrainConfig(epochs=1, adversarial=adversarial)
    train_step(gen, disc, g_opt, d_opt, noisy, clean, z, cfg)

    def state():
        return [params_digest(gen.parameters()), params_digest(disc.parameters()),
                [c.tobytes() for c in g_opt.cache + d_opt.cache]]
    before = state()
    noisy[0, 5] = np.nan
    with pytest.raises(NonFiniteLossError):
        train_step(gen, disc, g_opt, d_opt, noisy, clean, z, cfg, step=1)
    assert state() == before


# ---------------------------------------------------------------------------
# Full loop

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(lambda_l1=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(checkpoint_every=-1)
    with pytest.raises(ConfigError):
        TrainConfig(accum_steps=0)


@pytest.mark.parametrize("field", ["lr", "lambda_l1"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-1)
    TrainConfig(seed=0)


def test_a_stopped_run_keeps_the_rows_of_its_finished_steps(tmp_path, monkeypatch):
    import segan.trainer as trainer
    real, calls = trainer.train_step, []

    def stops_at_the_third(*a, **k):
        calls.append(1)
        if len(calls) == 3:
            raise NonFiniteLossError("injected")
        return real(*a, **k)

    monkeypatch.setattr(trainer, "train_step", stops_at_the_third)
    cfg = TrainConfig(epochs=2, batch_size=2, adversarial=False, checkpoint_every=0)
    with pytest.raises(NonFiniteLossError):
        train(TINY, cfg, _tiny_corpus(4, np.random.default_rng(4)), tmp_path)
    lines = (tmp_path / "losses.csv").read_text().splitlines()
    assert lines[0] == "step,d_real,d_fake,g_adv,g_l1"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    monkeypatch.undo()
    whole = train(TINY, cfg, _tiny_corpus(4, np.random.default_rng(4)), tmp_path / "whole")
    assert whole.loss_log.read_text().splitlines()[:3] == lines


def test_corpus_and_train_set_up_peak_at_most_twice_the_corpus(tmp_path, monkeypatch):
    # the utterances exist before tracing starts; what is traced is
    # build_pairs and train() up to its first step, reference batch included
    rng = np.random.default_rng(9)
    utts = [(rng.uniform(-0.5, 0.5, 8000), rng.uniform(-0.5, 0.5, 8000), 5.0) for _ in range(32)]

    def stop(*a, **k):
        raise NonFiniteLossError("stopped before step 0")

    monkeypatch.setattr(trainer, "train_step", stop)
    cfg = TrainConfig(epochs=1, batch_size=4, adversarial=True, checkpoint_every=0)
    tracemalloc.start()
    try:
        corpus = build_pairs(utts, window=TINY.window, hop=TINY.window // 2)
        with pytest.raises(NonFiniteLossError, match="before step 0"):
            train(TINY, cfg, corpus, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    signals = corpus.noisy.nbytes + corpus.clean.nbytes
    assert signals == 2 * 4 * 32 * 8032       # 8000 samples padded to the last window's end
    assert peak <= 2 * signals, f"peak {peak} B against a corpus of {signals} B"


def test_train_rejects_bad_pairs(tmp_path):
    cfg = TrainConfig(epochs=1, adversarial=False)
    with pytest.raises(ValueError, match="no training pairs"):
        train(TINY, cfg, _tiny_corpus(0, np.random.default_rng(0)), tmp_path)
    short = _tiny_corpus(1, np.random.default_rng(0), window=32)
    with pytest.raises(ConfigError, match="does not match model window"):
        train(TINY, cfg, short, tmp_path)


def test_train_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    corpus = _tiny_corpus(8, rng)
    cfg = TrainConfig(epochs=2, batch_size=4, adversarial=False, seed=11,
                      checkpoint_every=0)
    r1 = train(TINY, cfg, corpus, tmp_path / "run1")
    r2 = train(TINY, cfg, corpus, tmp_path / "run2")
    assert r1.loss_log.read_text() == r2.loss_log.read_text()
    assert r1.final_checkpoint.read_bytes() == r2.final_checkpoint.read_bytes()
    assert len(r1.reports) == 4  # 8 pairs, batch 4, 2 epochs


def test_train_seed_changes_the_run(tmp_path):
    rng = np.random.default_rng(3)
    corpus = _tiny_corpus(8, rng)
    base = dict(epochs=1, batch_size=4, adversarial=False, checkpoint_every=0)
    r1 = train(TINY, TrainConfig(seed=1, **base), corpus, tmp_path / "a")
    r2 = train(TINY, TrainConfig(seed=2, **base), corpus, tmp_path / "b")
    assert r1.final_checkpoint.read_bytes() != r2.final_checkpoint.read_bytes()


def test_loss_log_format(tmp_path):
    rng = np.random.default_rng(4)
    corpus = _tiny_corpus(4, rng)
    cfg = TrainConfig(epochs=2, batch_size=4, adversarial=False, seed=0,
                      checkpoint_every=0)
    result = train(TINY, cfg, corpus, tmp_path)
    lines = result.loss_log.read_text().splitlines()
    assert lines[0] == "step,d_real,d_fake,g_adv,g_l1"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == i
        d_real, d_fake, g_adv, g_l1 = map(float, fields[1:])
        assert (d_real, d_fake, g_adv) == (0.0, 0.0, 0.0)
        assert g_l1 > 0.0
    assert result.reports[1].g_l1 == float(lines[2].split(",")[4])


def test_periodic_checkpoints(tmp_path):
    rng = np.random.default_rng(4)
    corpus = _tiny_corpus(8, rng)
    cfg = TrainConfig(epochs=2, batch_size=4, adversarial=False, seed=0,
                      checkpoint_every=2)
    train(TINY, cfg, corpus, tmp_path)
    assert (tmp_path / "ckpt_000002.sgn").exists()
    assert (tmp_path / "ckpt_000004.sgn").exists()
    assert (tmp_path / "ckpt_final.sgn").exists()


def test_adversarial_loop_smoke(tmp_path):
    rng = np.random.default_rng(5)
    corpus = _tiny_corpus(4, rng)
    cfg = TrainConfig(epochs=2, batch_size=4, adversarial=True, seed=0,
                      checkpoint_every=0)
    result = train(TINY, cfg, corpus, tmp_path)
    assert result.disc is not None
    for rep in result.reports:
        for v in (rep.d_real, rep.d_fake, rep.g_adv, rep.g_l1):
            assert np.isfinite(v)
    _, disc, cfg = load_checkpoint(result.final_checkpoint)
    assert cfg == TINY
    assert disc is not None and disc.n_ref == 4


def test_z_seed_per_step_is_injective():
    seen = {}
    for seed in range(3):
        for step in range(200):
            key = _z_seed_for(seed, step)
            assert key not in seen, (seed, step, seen[key])
            seen[key] = (seed, step)


# ---------------------------------------------------------------------------
# File enhancement

WIDE = GeneratorConfig(window=16384, filter_width=5, enc_channels=(2, 2),
                       z_channels=2)


def _zero_checkpoint(path, cfg=WIDE):
    gen = build_generator(cfg, seed=0)
    for p in gen.parameters():
        p.data[...] = 0.0
    save_checkpoint(path, gen)


def test_enhance_file_windows_and_reassembles_exactly(tmp_path):
    # 40000 samples against a 16384 window: three windows with the last
    # zero-padded, trimmed back to exactly 40000 on the way out.
    ckpt = tmp_path / "zero.sgn"
    _zero_checkpoint(ckpt)
    rng = np.random.default_rng(6)
    src = tmp_path / "in.wav"
    write_wav(rng.uniform(-0.5, 0.5, 40000), src)
    dst = tmp_path / "out.wav"
    enhance_file(ckpt, src, dst)
    out = read_wav(dst)
    assert len(out) == 40000
    assert read_raw_pcm(dst)[1] == 16000
    # an all-zero generator emits silence regardless of input
    assert np.array_equal(out, np.zeros(40000))


def test_enhance_file_resamples_48k(tmp_path):
    ckpt = tmp_path / "zero.sgn"
    _zero_checkpoint(ckpt)
    src = tmp_path / "in48.wav"
    _pcm_wav(src, 120000, 48000, seed=0)
    dst = tmp_path / "out.wav"
    enhance_file(ckpt, src, dst)
    pcm, rate = read_raw_pcm(dst)
    assert len(pcm) == 40000 and rate == 16000


def test_enhance_file_rejects_other_rates(tmp_path):
    ckpt = tmp_path / "zero.sgn"
    _zero_checkpoint(ckpt)
    src = tmp_path / "in8.wav"
    write_raw_wav(src, np.zeros(100), rate=8000)
    with pytest.raises(WrongRateError):
        enhance_file(ckpt, src, tmp_path / "out.wav")


def test_enhance_file_z_modes(tmp_path):
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(TINY, seed=8))
    rng = np.random.default_rng(9)
    src = tmp_path / "in.wav"
    write_wav(rng.uniform(-0.5, 0.5, 200), src)

    a, b, c, d = (tmp_path / f"{k}.wav" for k in "abcd")
    enhance_file(ckpt, src, a, z_mode="seeded", z_seed=1)
    enhance_file(ckpt, src, b, z_mode="seeded", z_seed=1)
    enhance_file(ckpt, src, c, z_mode="seeded", z_seed=2)
    enhance_file(ckpt, src, d, z_mode="zero")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert len(read_wav(d)) == 200
    with pytest.raises(ConfigError, match="z_mode"):
        enhance_file(ckpt, src, tmp_path / "x.wav", z_mode="random")


@pytest.mark.parametrize("z_mode", Z_MODES)
def test_enhance_file_rejects_a_negative_z_seed(tmp_path, z_mode):
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(TINY, seed=8))
    write_wav(np.zeros(200), tmp_path / "in.wav")
    with pytest.raises(ConfigError, match="z_seed"):
        enhance_file(ckpt, tmp_path / "in.wav", tmp_path / "x.wav", z_mode=z_mode, z_seed=-1)
    assert not (tmp_path / "x.wav").exists()


def test_enhance_empty_input(tmp_path):
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(TINY, seed=8))
    src = tmp_path / "in.wav"
    write_wav(np.zeros(0), src)
    dst = tmp_path / "out.wav"
    enhance_file(ckpt, src, dst)
    assert len(read_wav(dst)) == 0


def test_enhance_empty_48k_input(tmp_path):
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(TINY, seed=8))
    src = tmp_path / "in48.wav"
    write_raw_wav(src, [], rate=48000)
    dst = tmp_path / "out.wav"
    enhance_file(ckpt, src, dst)
    pcm, rate = read_raw_pcm(dst)
    assert len(pcm) == 0 and rate == 16000


@pytest.mark.parametrize("z_mode", Z_MODES)
def test_enhance_micro_batches_match_one_batch(tmp_path, z_mode):
    # two full micro-batches and a partial one, against the whole file as
    # one generator batch and the per-sample deemphasis loop
    gen = build_generator(TINY, seed=8)
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, gen)
    n = 2 * ENHANCE_BATCH + 3
    src = tmp_path / "in.wav"
    write_wav(np.random.default_rng(10).uniform(-0.5, 0.5, n * TINY.window - 5), src)
    enhance_file(ckpt, src, tmp_path / "out.wav", z_mode=z_mode, z_seed=3)

    windows, pad = chunk(preemphasis(read_wav(src)), TINY.window, TINY.window)
    assert windows.shape[0] == n
    z = (Tensor(np.zeros((n, TINY.bottleneck_len, TINY.z_channels), np.float32))
         if z_mode == "zero" else sample_z(n, TINY.bottleneck_len, TINY.z_channels, seed=3))
    with eg.no_grad():
        y = g_forward(gen, windows.astype(np.float32)[..., None], z)
    flat = reassemble(y.data[:, :, 0].astype(np.float64), pad)
    write_wav(emphasis_oracle(flat, PREEMPH, inverse=True), tmp_path / "ref.wav")
    assert (tmp_path / "out.wav").read_bytes() == (tmp_path / "ref.wav").read_bytes()


def _gd_checkpoint(path):
    gen = build_generator(TINY, seed=8)
    disc = build_discriminator(TINY, seed=9)
    set_reference_batch(disc, *_batch(np.random.default_rng(3), window=TINY.window))
    save_checkpoint(path, gen, disc)


def test_enhance_output_ignores_the_discriminator(tmp_path):
    gd, g = tmp_path / "gd.sgn", tmp_path / "g.sgn"
    _gd_checkpoint(gd)
    save_checkpoint(g, load_checkpoint(gd)[0])
    src = tmp_path / "in.wav"
    write_wav(np.random.default_rng(4).uniform(-0.5, 0.5, 300), src)
    enhance_file(gd, src, tmp_path / "a.wav")
    enhance_file(g, src, tmp_path / "b.wav")
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


# tensor edits that make load_checkpoint refuse a G+D checkpoint (None drops)
D_EDITS = {
    "misshapen": {"d.conv2.w": np.zeros((5, 3, 2), np.float32)},
    "missing_ref": {"d.vbn2.ref_var": None},
    "missing_n_ref": {"d.n_ref": None},
    "unexpected": {"d.extra": np.zeros(1, np.float32)},
    "empty_cfg": {"cfg.window": np.zeros(0, np.float32)},
    "long_cfg": {"cfg.stride": np.array([2, 2], np.float32)},
    "empty_cfg_tuple": {"cfg.enc_channels": np.zeros(0, np.float32)},
    "nan_cfg": {"cfg.window": np.array([np.nan], np.float32)},
    "fractional_cfg": {"cfg.window": np.array([1024.4], np.float32)},
    "inexact_cfg": {"cfg.window": np.array([2.0 ** 25], np.float32)},
    "infinite_cfg_tuple": {"cfg.enc_channels": np.array([4, np.inf], np.float32)},
    "empty_n_ref": {"d.n_ref": np.zeros(0, np.float32)},
    "zero_n_ref": {"d.n_ref": np.zeros(1, np.float32)},
    "fractional_n_ref": {"d.n_ref": np.array([3.5], np.float32)},
}


@pytest.mark.parametrize("corrupt", [*D_EDITS, "truncated", "trailing"])
def test_enhance_rejects_what_load_checkpoint_rejects(tmp_path, corrupt):
    # enhancement skips the discriminator's payloads, yet every checkpoint
    # the full load refuses must fail enhancement with the same error
    path = tmp_path / "gd.sgn"
    _gd_checkpoint(path)
    blob = path.read_bytes()
    if corrupt == "truncated":
        dims_end = blob.index(b"d.conv2.w") + len(b"d.conv2.w") + 1 + 4 * 3
        path.write_bytes(blob[:-(-dims_end // 64) * 64 + 40])    # inside its payload
    elif corrupt == "trailing":
        path.write_bytes(blob + b"\x00")
    else:
        tensors = load_tensors(path)
        for name, value in D_EDITS[corrupt].items():
            if value is None:
                del tensors[name]
            else:
                tensors[name] = value
        save_tensors(path, tensors)
    with pytest.raises(CorruptCheckpointError) as full:
        load_checkpoint(path)
    src = tmp_path / "in.wav"
    write_wav(np.zeros(100), src)
    with pytest.raises(CorruptCheckpointError) as enh:
        enhance_file(path, src, tmp_path / "out.wav")
    assert str(enh.value) == str(full.value)
    assert not (tmp_path / "out.wav").exists()


def _pcm_wav(path, n, rate, seed):
    write_raw_wav(path, np.random.default_rng(seed).integers(-20000, 20000, n), rate=rate)


BLOCK = ENHANCE_BATCH * TINY.window     # samples per generator call


@pytest.mark.parametrize("z_mode", Z_MODES)
@pytest.mark.parametrize("rate, n", [
    (16000, 0), (16000, 1), (16000, BLOCK - 1), (16000, BLOCK), (16000, BLOCK + 1),
    (16000, 2 * BLOCK + 77),
    (48000, 0), (48000, 1), (48000, 126), (48000, 127), (48000, 128), (48000, 6 * BLOCK + 100),
])
def test_enhance_streams_byte_identical_to_the_whole_file(tmp_path, rate, n, z_mode):
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(TINY, seed=8))
    src = tmp_path / "in.wav"
    _pcm_wav(src, n, rate, seed=n)
    enhance_file(ckpt, src, tmp_path / "out.wav", z_mode=z_mode, z_seed=3)
    enhance_whole_file(ckpt, src, tmp_path / "ref.wav", z_mode=z_mode, z_seed=3)
    assert (tmp_path / "out.wav").read_bytes() == (tmp_path / "ref.wav").read_bytes()
    assert len(read_wav(tmp_path / "out.wav")) == (n if rate == 16000 else -(-n // 3))


def test_enhance_in_place_matches_a_new_path(tmp_path):
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(TINY, seed=8))
    src, other = tmp_path / "in.wav", tmp_path / "other.wav"
    _pcm_wav(src, 3 * BLOCK + 5, 48000, seed=1)
    enhance_file(ckpt, src, other)
    enhance_file(ckpt, src, src)
    assert src.read_bytes() == other.read_bytes()


def test_enhance_failure_leaves_no_output_and_no_temporary(tmp_path, monkeypatch):
    import segan.trainer as trainer
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(TINY, seed=8))
    src, kept = tmp_path / "in.wav", tmp_path / "kept.wav"
    _pcm_wav(src, 3 * BLOCK, 16000, seed=2)
    _pcm_wav(kept, 10, 16000, seed=3)
    blob = kept.read_bytes()
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("generator failed")
        return g_forward(*args, **kwargs)

    monkeypatch.setattr(trainer, "g_forward", failing)
    for out in (tmp_path / "out.wav", kept):
        calls.clear()
        with pytest.raises(RuntimeError, match="generator failed"):
            enhance_file(ckpt, src, out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.sgn", "in.wav", "kept.wav"]
    assert kept.read_bytes() == blob


def _enhance_peak(ckpt, src, out):
    tracemalloc.start()
    try:
        enhance_file(ckpt, src, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enhance_memory_does_not_grow_with_the_file(tmp_path):
    cfg = GeneratorConfig(window=256, filter_width=5, enc_channels=(2, 3), z_channels=4)
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(cfg, seed=1))
    short, long = tmp_path / "short.wav", tmp_path / "long.wav"
    n = 10 * ENHANCE_BATCH * cfg.window
    _pcm_wav(short, n, 16000, seed=4)
    _pcm_wav(long, 10 * n, 16000, seed=5)
    enhance_file(ckpt, long, tmp_path / "warm.wav")
    short_peak = _enhance_peak(ckpt, short, tmp_path / "a.wav")
    long_peak = _enhance_peak(ckpt, long, tmp_path / "b.wav")
    # the long file takes 90 more blocks but not a quarter of one float64
    # copy of itself (8 * 10 * n bytes) more memory
    assert long_peak < short_peak + 0.25 * 8 * 10 * n, (short_peak, long_peak)
