"""Acceptance gate: one printed [PASS]/[FAIL] line per criterion.

Each test drives one end-to-end criterion at its stated tolerance and
prints a summary line to the real stdout, so the report is visible even
without -s. Criterion 9 reuses criterion 7's training run; running the
file as a whole keeps the total cost at two short training runs plus one
adversarial run.
"""

import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from helpers import SCATTER_FORMS, params_digest, scatter_form, tone

from segan import engine as eg
from segan.audio_io import (chunk, decimate_blocks, deemphasis, preemphasis, read_wav,
                            reassemble, write_wav)
from segan.dataset import build_pairs, mix_at_snr, synth_clean, synth_noise
from segan.engine import Parameter, Tensor, sample_z
from segan.gradcheck import check_all_ops, grad_check
from segan.metrics import Rating, aggregate_mos, levinson, llr, ssnr
from segan.model import (GeneratorConfig, build_discriminator, build_generator,
                         set_reference_batch, shape_ledger)
from segan.optim import RMSprop
from segan.trainer import TrainConfig, enhance_file, train, train_step
from segan.wiener import enhance_wiener, stft, wiener_gains


_CAPMAN = None


@pytest.fixture(autouse=True)
def _locate_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line):
    # Route around pytest's fd-level capture so the report shows in a
    # plain `pytest` run, not only under -s.
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _criterion(num, name, body, limit_s=None):
    t0 = time.perf_counter()
    try:
        body()
        dt = time.perf_counter() - t0
        if limit_s is not None and dt > limit_s:
            raise AssertionError(f"runtime {dt:.1f}s exceeds the {limit_s:.0f}s budget")
    except BaseException:
        dt = time.perf_counter() - t0
        _emit(f"[FAIL] criterion {num:2d}: {name} ({dt:.1f}s)")
        raise
    _emit(f"[PASS] criterion {num:2d}: {name} ({dt:.1f}s)")


# Shared reduced-scale setup: criterion 7 trains once, criterion 9 enhances
# with the resulting checkpoint, criterion 8 reuses the same corpus.
REDUCED = GeneratorConfig(window=1024, enc_channels=(16, 32, 64, 128),
                          z_channels=128)
_STATE: dict = {}


def _corpus():
    if "corpus" not in _STATE:
        dur = 1024 / 16000
        utts = [(synth_clean(seed=100 + i, duration_s=dur),
                 synth_noise("white", seed=1100 + i, duration_s=dur), 0.0)
                for i in range(50)]
        _STATE["corpus"] = build_pairs(utts, window=1024, hop=1024)
    return _STATE["corpus"]


def _train_l1_only(out_dir):
    cfg = TrainConfig(epochs=50, batch_size=16, lambda_l1=100.0, seed=7,
                      checkpoint_every=0, adversarial=False)
    return train(REDUCED, cfg, _corpus(), out_dir)


def _l1_run():
    if "l1_run" not in _STATE:
        _STATE["l1_run"] = _train_l1_only(tempfile.mkdtemp(prefix="accept_c7_"))
    return _STATE["l1_run"]


def test_criterion_01_shape_ledger():
    def body():
        expected = [("input", 16384, 1), ("enc1", 8192, 16), ("enc2", 4096, 32),
                    ("enc3", 2048, 32), ("enc4", 1024, 64), ("enc5", 512, 64),
                    ("enc6", 256, 128), ("enc7", 128, 128), ("enc8", 64, 256),
                    ("enc9", 32, 256), ("enc10", 16, 512), ("enc11", 8, 1024),
                    ("bottleneck+z", 8, 2048)]
        rows = {label: (length, ch) for label, length, ch in
                shape_ledger(GeneratorConfig())}
        for label, length, ch in expected:
            assert rows[label] == (length, ch), (label, rows[label])
        assert rows["dec1"] == (16384, 1)

    _criterion(1, "encoder shape ledger at window 16384", body, limit_s=1.0)


def test_criterion_02_gradient_suite():
    def body():
        errs = check_all_ops(seed=0, eps=1e-5)
        required = {"conv1d_stride1", "conv1d_stride2", "conv1d_transpose",
                    "prelu", "leaky_relu", "virtual_batch_norm", "linear",
                    "tanh", "lsq_loss"}
        assert required <= set(errs)
        worst = max(errs, key=errs.get)
        assert errs[worst] < 1e-4, (worst, errs[worst])

        rng = np.random.default_rng(42)
        x = Parameter("x", rng.standard_normal((2, 16, 2)))
        w = Parameter("w", rng.standard_normal((5, 2, 3)) * 0.4)
        b = Parameter("b", rng.standard_normal(3) * 0.1)
        a = Parameter("a", rng.uniform(0.1, 0.5, 3))

        def loss():
            h = eg.conv1d(x, w, b, stride=2)
            return eg.lsq_loss(eg.prelu(h, a), 1.0)

        assert grad_check(loss, [x, w, b, a], eps=1e-5) < 1e-4

    _criterion(2, "finite-difference gradients < 1e-4 on every op", body,
               limit_s=300.0)


def test_criterion_03_conv_adjointness():
    def body():
        combos = [(31, 2, 8, 2, 2, 3, 99)]  # the mandated width-31 stride-2 case
        rng = np.random.default_rng(303)
        while len(combos) < 50:
            combos.append((2 * int(rng.integers(0, 7)) + 1,
                           int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                           int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                           int(rng.integers(1, 5)), int(rng.integers(0, 10_000))))
        worst = 0.0
        for (width, stride, out_len, batch, cin, cout, seed), form in product(combos,
                                                                              SCATTER_FORMS):
            case = np.random.default_rng(seed)
            x = case.standard_normal((batch, out_len * stride, cin))
            w = case.standard_normal((width, cin, cout))
            y = case.standard_normal((batch, out_len, cout))
            with scatter_form(form):
                lhs = float(np.sum(eg.conv1d(Tensor(x), Tensor(w), stride=stride).data * y))
                rhs = float(np.sum(x * eg.conv1d_transpose(Tensor(y), Tensor(w),
                                                           stride=stride).data))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
        assert worst < 1e-10, worst

    _criterion(3, "conv/transpose adjoint identity < 1e-10 over 50 combos",
               body, limit_s=60.0)


def test_criterion_04_signal_pipeline():
    def body():
        rng = np.random.default_rng(44)
        x = rng.uniform(-0.9, 0.9, 50_000)
        back = deemphasis(preemphasis(x))
        assert np.max(np.abs(back - x)) < 1e-9

        chunks, pad = chunk(x, 1024, 1024)
        rebuilt = reassemble(chunks, pad)
        assert np.array_equal(rebuilt, x)

        grid = rng.integers(-32767, 32768, 4096) / 32768.0
        tmp = Path(tempfile.mkdtemp(prefix="accept_c4_"))
        write_wav(grid, tmp / "q.wav")
        assert np.array_equal(read_wav(tmp / "q.wav"), grid)

        dc = np.concatenate(list(decimate_blocks([np.ones(48000)])))
        assert np.max(np.abs(dc[64:-64] - 1.0)) <= 1e-3
        hi = tone(20000.0, 48000, rate=48000)
        out = np.concatenate(list(decimate_blocks([hi])))
        rms_in = float(np.sqrt(np.mean(hi ** 2)))
        rms_out = float(np.sqrt(np.mean(out[64:-64] ** 2)))
        assert rms_out <= rms_in * 10 ** (-40 / 20)

    _criterion(4, "emphasis/window/WAV round trips and resampler response", body)


def test_criterion_05_rmsprop_recurrence():
    def body():
        p = Parameter("theta", np.array([1.5], dtype=np.float64))
        opt = RMSprop([p], lr=0.0002)
        theta, cache = 1.5, 0.0
        for _ in range(100):
            g = 2.0 * theta
            p.grad[...] = 2.0 * p.data
            opt.step()
            cache = 0.9 * cache + (1.0 - 0.9) * g * g
            theta = theta - 0.0002 * g / (np.sqrt(cache) + 1e-6)
            assert abs(float(p.data[0]) - theta) < 1e-12

    _criterion(5, "rmsprop matches the hand recurrence for 100 steps", body)


def test_criterion_06_loss_semantics():
    def body():
        assert float(eg.lsq_loss(Tensor(np.array([[0.0]])), 1.0).data) == 0.5
        assert float(eg.lsq_loss(Tensor(np.array([[2.0]])), 0.0).data) == 2.0

        # Constant-output D fed identical real and fake batches: fitting the
        # constant by gradient descent must land on the analytic optimum 1/2
        # with summed loss 1/4.
        d = Parameter("d", np.array([[0.2]], dtype=np.float64))
        for _ in range(60):
            loss = eg.add(eg.lsq_loss(d, 1.0), eg.lsq_loss(d, 0.0))
            d.zero_grad()
            eg.backward(loss)
            d.data -= 0.2 * d.grad
        final = float(eg.add(eg.lsq_loss(d, 1.0), eg.lsq_loss(d, 0.0)).data)
        assert abs(final - 0.25) < 1e-6

    _criterion(6, "lsq loss fixtures and the d=1/2 constant-D optimum", body)


def test_criterion_07_l1_training_converges_deterministically():
    def body():
        res = _l1_run()
        assert len(res.reports) == 200
        first = res.reports[0].g_l1
        tail = float(np.mean([r.g_l1 for r in res.reports[-10:]]))
        assert tail <= 0.5 * first, (tail, first)
        repeat = _train_l1_only(tempfile.mkdtemp(prefix="accept_c7b_"))
        assert repeat.loss_log.read_text() == res.loss_log.read_text()

    _criterion(7, "200-step L1 run halves the loss, bit-deterministic", body,
               limit_s=600.0)


def test_criterion_08_adversarial_run_stays_finite():
    class DigestRMSprop(RMSprop):
        post_digest = None
        calls = 0

        def step(self):
            super().step()
            self.post_digest = params_digest(self.params)
            self.calls += 1

    def body():
        corpus = _corpus()
        gen = build_generator(REDUCED, seed=7)
        disc = build_discriminator(REDUCED, seed=8)
        g_opt = RMSprop(gen.parameters(), lr=2e-4)
        d_opt = DigestRMSprop(disc.parameters(), lr=2e-4)
        cfg = TrainConfig(epochs=1, batch_size=16, lambda_l1=100.0, seed=7,
                          checkpoint_every=0, adversarial=True)
        order = np.random.default_rng(11)
        step = 0
        while step < 500:
            perm = order.permutation(len(corpus))
            for lo in range(0, len(corpus), cfg.batch_size):
                if step == 500:
                    break
                idx = perm[lo:lo + cfg.batch_size]
                noisy_b, clean_b = corpus.batch(idx)
                if step == 0:
                    set_reference_batch(disc, clean_b, noisy_b)
                z = sample_z(len(idx), REDUCED.bottleneck_len, REDUCED.z_channels,
                             seed=900 + step)
                rep = train_step(gen, disc, g_opt, d_opt, noisy_b, clean_b, z,
                                 cfg, step)
                for v in (rep.d_real, rep.d_fake, rep.g_adv, rep.g_l1):
                    assert np.isfinite(v), (step, rep)
                # D must be bit-identical across phase 3 of this step: the
                # state right after its own update is still the live state.
                assert params_digest(disc.parameters()) == d_opt.post_digest
                step += 1
        # D updates after the real phase and again after the fake phase.
        assert d_opt.calls == 2 * 500

    _criterion(8, "500 adversarial steps: finite losses, D untouched in phase 3",
               body, limit_s=1800.0)


def test_criterion_09_enhancement_improves_held_out_ssnr():
    def body():
        res = _l1_run()
        dur = 3 * 1024 / 16000
        clean = synth_clean(seed=99999, duration_s=dur)
        noise = synth_noise("white", seed=55555, duration_s=dur)
        noisy = mix_at_snr(clean, noise, 0.0)
        tmp = Path(tempfile.mkdtemp(prefix="accept_c9_"))
        write_wav(clean, tmp / "clean.wav")
        write_wav(noisy, tmp / "noisy.wav")
        enhance_file(res.final_checkpoint, tmp / "noisy.wav", tmp / "enhanced.wav",
                     z_mode="zero")
        clean_r = read_wav(tmp / "clean.wav")
        base = ssnr(clean_r, read_wav(tmp / "noisy.wav"))
        improved = ssnr(clean_r, read_wav(tmp / "enhanced.wav"))
        assert improved - base >= 3.0, (base, improved)

    _criterion(9, "enhancement gains >= +3 dB SSNR on a held-out pair", body)


def test_criterion_10_wiener_baseline():
    def body():
        clean = synth_clean(seed=7, duration_s=1.0)
        padded = np.concatenate([np.zeros(2048), clean])
        noise = synth_noise("white", seed=8, duration_s=len(padded) / 16000)
        noisy = mix_at_snr(padded, noise, 5.0)
        out = enhance_wiener(noisy)
        assert len(out) == len(noisy) == 18048
        assert ssnr(padded, out) - ssnr(padded, noisy) >= 2.0
        gains = wiener_gains(np.abs(stft(noisy)) ** 2)
        assert np.all(gains <= 1.0)

    _criterion(10, "wiener gains >= +2 dB SSNR, per-bin gain <= 1", body)


def test_criterion_11_metric_fixtures():
    def body():
        rng = np.random.default_rng(111)
        x = rng.uniform(-0.5, 0.5, 4096)
        assert ssnr(x, x) == 35.0
        assert abs(ssnr(x, np.zeros(4096))) <= 1e-9
        assert llr(x, x) < 1e-10

        a, err = levinson(np.array([1.0, 0.5]), 1)
        assert abs(a[0] - 1.0) < 1e-12
        assert abs(a[1] + 0.5) < 1e-12
        assert abs(err - 0.75) < 1e-12

        spec = [(3 if i < 9 else 2, 3 if i < 70 else 2, 4 if i < 18 else 3)
                for i in range(100)]
        rows = []
        for i, (n, w, s) in enumerate(spec):
            item = f"s{i:03d}"
            rows += [Rating("l1", item, "noisy", n),
                     Rating("l1", item, "wiener", w),
                     Rating("l1", item, "segan", s)]
        summary = aggregate_mos(rows)
        assert abs(summary.mos["noisy"] - 2.09) < 1e-12
        assert abs(summary.mos["wiener"] - 2.70) < 1e-12
        assert abs(summary.mos["segan"] - 3.18) < 1e-12
        for (sa, sb), frac in summary.preference.items():
            assert abs(frac[sa] + frac[sb] + frac["none"] - 1.0) < 1e-12

    _criterion(11, "ssnr/llr/levinson/mos fixtures at stated tolerances", body)
