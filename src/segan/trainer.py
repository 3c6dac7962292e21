"""Three-phase adversarial training and batch file enhancement.

Each step: (1) the discriminator learns to score real (clean, noisy) pairs
toward 1, (2) then generated (enhanced, noisy) pairs toward 0, (3) then,
with the discriminator's parameters untouched, the generator descends the
adversarial score plus a weighted mean-absolute regression to the clean
target. One latent draw is shared by phases 2 and 3. With one
micro-batch, the generator forward graph built in phase 2 is reused in
phase 3 (the discriminator update between them does not involve the
generator's tensors). With several micro-batches (accum_steps > 1),
phase 2 builds its fakes without a graph and phase 3 rebuilds one
micro-batch's graph at a time (recomputation, Chen et al. 2016): one more
generator forward per adversarial step buys a peak set by one
micro-batch, not the whole batch. G does not change between the phases,
so the rebuilt fakes equal phase 2's bit for bit.

No loss graph outlives its backward: each micro-batch's graph, in both D
updates and in phase 3, dies before the next one is built, and none is
held past the update that built it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine as eg
from .audio_io import (
    WavReader,
    chunk,
    deemphasis,
    preemphasis,
    reassemble,
    wav_writer,
)
from .dataset import Corpus
from .engine import Tensor, backward, no_grad, sample_z
from .errors import ConfigError, CorruptCheckpointError, NonFiniteLossError
from .model import (
    Discriminator,
    Generator,
    GeneratorConfig,
    build_discriminator,
    build_generator,
    d_forward,
    g_forward,
    load_checkpoint,
    save_checkpoint,
    set_reference_batch,
)
from .optim import LR, RMSprop

Z_MODES = ("seeded", "zero")    # enhance_file's latent: a seeded N(0, 1) draw, or zeros
# Windows per generator call in enhance_file. At full scale 16 windows ran
# enhance-long about as fast as 8 but added 4.5 MB of peak RSS per window
# above 8 (398.6 against 362.9 MB); g_forward's traced peak is 25.3 MB at 8, 37.9 at 12.
ENHANCE_BATCH = 8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 86
    lr: float = LR
    batch_size: int = 16
    lambda_l1: float = 100.0
    seed: int = 0
    checkpoint_every: int = 1000
    adversarial: bool = True
    accum_steps: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.accum_steps < 1:
            raise ConfigError("epochs, batch_size and accum_steps must be >= 1")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.lambda_l1 < np.inf:
            raise ConfigError(f"lambda_l1 must be finite and >= 0, got {self.lambda_l1}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0 (0 disables)")


@dataclass(frozen=True)
class StepReport:
    step: int
    d_real: float
    d_fake: float
    g_adv: float
    g_l1: float


def _micro_slices(batch_size: int, accum_steps: int) -> list[slice]:
    bounds = np.linspace(0, batch_size, min(accum_steps, batch_size) + 1).astype(int)
    return [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _finite_mean(step: int, name: str, vals: list[float]) -> float:
    v = float(np.mean(vals))
    if not np.isfinite(v):
        raise NonFiniteLossError(f"step {step}: {name} is {v}; aborting")
    return v


@contextmanager
def _frozen(params):
    """Record no gradients for `params` inside the block: phase 3 reaches
    the generator through D, and D's own gradients there would be discarded."""
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag


def _d_step(disc: Discriminator, d_opt: RMSprop, candidates: list[Tensor],
            noisy_t: list[Tensor], target: float, step: int, name: str) -> float:
    """One least-squares D update: score every micro-batch's (candidate, noisy)
    pairs toward `target`, sum the gradients, check the mean loss finite, step.
    Returns the mean loss; no graph outlives the call."""
    d_opt.zero_grad()
    vals = []
    for cand, nt in zip(candidates, noisy_t):
        loss = eg.lsq_loss(d_forward(disc, cand, nt), target)
        backward(loss)
        vals.append(loss.item())
        del loss        # this micro-batch's graph dies before the next is built
    mean = _finite_mean(step, name, vals)
    d_opt.step()
    return mean


def train_step(gen: Generator, disc: Discriminator | None,
               g_opt: RMSprop, d_opt: RMSprop | None,
               noisy: np.ndarray, clean: np.ndarray, z: Tensor,
               cfg: TrainConfig, step: int = 0) -> StepReport:
    """One optimization step over a batch. noisy/clean: (B, window) or
    (B, window, 1) float arrays; z: (B, bottleneck_len, z_channels).

    With accum_steps > 1 the batch is split into micro-batches whose
    gradients are summed before each optimizer step. A non-finite loss
    raises NonFiniteLossError before its optimizer step can apply it.
    """
    if cfg.adversarial and (disc is None or d_opt is None):
        raise ConfigError("adversarial training needs a discriminator and its optimizer")
    if noisy.ndim == 2:
        noisy = noisy[..., None]
    if clean.ndim == 2:
        clean = clean[..., None]
    slices = _micro_slices(noisy.shape[0], cfg.accum_steps)
    noisy_t = [Tensor(np.asarray(noisy[s], dtype=np.float32)) for s in slices]
    clean_t = [Tensor(np.asarray(clean[s], dtype=np.float32)) for s in slices]
    z_t = [Tensor(z.data[s]) for s in slices]

    d_real = d_fake = g_adv = 0.0
    lam = Tensor(np.asarray(cfg.lambda_l1, np.float32))

    if cfg.adversarial:
        d_real = _d_step(disc, d_opt, clean_t, noisy_t, 1.0, step, "d_real")

    # one micro-batch: its G graph is built here and reused in phase 3;
    # several: phase 2 needs G's output alone (L1 mode not even that)
    reuse = len(slices) == 1
    fakes = []
    if reuse or cfg.adversarial:
        with nullcontext() if reuse else no_grad():
            fakes = [g_forward(gen, nt, zt) for nt, zt in zip(noisy_t, z_t)]

    if cfg.adversarial:
        d_fake = _d_step(disc, d_opt, [f.detach() for f in fakes], noisy_t, 0.0, step, "d_fake")

    g_opt.zero_grad()
    adv_vals, l1_vals = [], []
    with _frozen(disc.parameters() if cfg.adversarial else []):
        for nt, ct, zt in zip(noisy_t, clean_t, z_t):
            # pop: the reused graph must not outlive its backward in `fakes`
            fake = fakes.pop() if reuse else g_forward(gen, nt, zt)
            l1 = eg.l1_loss(fake, ct)
            total = eg.mul(l1, lam)
            if cfg.adversarial:
                adv = eg.lsq_loss(d_forward(disc, fake, nt), 1.0)
                total = eg.add(adv, total)
                adv_vals.append(adv.item())
            backward(total)
            l1_vals.append(l1.item())
            # this micro-batch's graph dies before the next is built
            fake = l1 = total = adv = None
    if adv_vals:
        g_adv = _finite_mean(step, "g_adv", adv_vals)
    g_l1 = _finite_mean(step, "g_l1", l1_vals)
    g_opt.step()
    return StepReport(step, d_real, d_fake, g_adv, g_l1)


@dataclass
class TrainResult:
    reports: list[StepReport]
    final_checkpoint: Path
    loss_log: Path
    gen: Generator
    disc: Discriminator | None


def _z_seed_for(cfg_seed: int, step: int) -> int:
    return (cfg_seed + 1) * 1_000_003 + step


def train(model_cfg: GeneratorConfig, cfg: TrainConfig,
          corpus: Corpus, out_dir) -> TrainResult:
    """Run the full loop: deterministic shuffling, per-step latent draws,
    checkpoints every cfg.checkpoint_every steps plus a final one, and a
    loss log CSV (step,d_real,d_fake,g_adv,g_l1) whose rows are written and
    flushed as each step ends, so a stopped run keeps the completed ones.
    Each batch's windows are gathered from the corpus as the step needs them.
    """
    if not len(corpus):
        raise ValueError("no training pairs supplied")
    if corpus.window != model_cfg.window:
        raise ConfigError(
            f"corpus window {corpus.window} does not match model window {model_cfg.window}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    gen = build_generator(model_cfg, seed=cfg.seed)
    disc = build_discriminator(model_cfg, seed=cfg.seed + 1) if cfg.adversarial else None
    g_opt = RMSprop(gen.parameters(), lr=cfg.lr)
    d_opt = RMSprop(disc.parameters(), lr=cfg.lr) if disc is not None else None

    order_rng = np.random.default_rng([cfg.seed, 0x5E6A])
    reports: list[StepReport] = []
    log = out / "losses.csv"
    with open(log, "w") as fh:
        fh.write("step,d_real,d_fake,g_adv,g_l1\n")
        for _epoch in range(cfg.epochs):
            perm = order_rng.permutation(len(corpus))
            for lo in range(0, len(corpus), cfg.batch_size):
                idx = perm[lo:lo + cfg.batch_size]
                noisy_b, clean_b = corpus.batch(idx)
                step = len(reports)
                if step == 0 and disc is not None:
                    set_reference_batch(disc, clean_b, noisy_b)
                z = sample_z(len(idx), model_cfg.bottleneck_len, model_cfg.z_channels,
                             seed=_z_seed_for(cfg.seed, step))
                rep = train_step(gen, disc, g_opt, d_opt, noisy_b, clean_b, z, cfg, step)
                reports.append(rep)
                fh.write(f"{rep.step},{rep.d_real!r},{rep.d_fake!r},{rep.g_adv!r},{rep.g_l1!r}\n")
                fh.flush()
                if cfg.checkpoint_every and len(reports) % cfg.checkpoint_every == 0:
                    save_checkpoint(out / f"ckpt_{len(reports):06d}.sgn", gen, disc)

    final = out / "ckpt_final.sgn"
    save_checkpoint(final, gen, disc)
    return TrainResult(reports, final, log, gen, disc)


def enhance_file(checkpoint_path, in_path, out_path,
                 z_mode: str = "seeded", z_seed: int = 0) -> None:
    """Enhance one WAV end to end: preemphasis, non-overlapping windows
    through the generator, reassembly, deemphasis, write. 48 kHz input is
    resampled; output duration equals input duration.

    The file streams through in blocks of ENHANCE_BATCH windows, one
    generator call each, so no array grows with the file. Each filter
    carries its last sample across blocks and z comes from one generator
    per file, so the output does not depend on the blocking. The output is
    renamed into place when complete: out_path may be in_path, and a
    failure leaves no partial file. A generator output that is not finite
    raises CorruptCheckpointError naming the checkpoint.
    """
    if z_mode not in Z_MODES:
        raise ConfigError(f"z_mode must be one of {Z_MODES}, got {z_mode!r}")
    if z_seed < 0:
        raise ConfigError(f"z_seed must be >= 0, got {z_seed}")
    gen, _, mcfg = load_checkpoint(checkpoint_path)
    rng = np.random.default_rng(z_seed)
    z_shape = (mcfg.bottleneck_len, mcfg.z_channels)
    x_last = y_last = 0.0   # last input and output samples so far: the emphasis filters' state
    with WavReader(in_path) as src:
        blocks = src.blocks(ENHANCE_BATCH * mcfg.window)
        with wav_writer(out_path) as write, no_grad():
            for x in blocks:
                pre = preemphasis(np.concatenate([[x_last], x]))[1:]
                windows, pad = chunk(pre, mcfg.window, mcfg.window)
                n = windows.shape[0]
                z = (np.zeros((n, *z_shape), dtype=np.float32) if z_mode == "zero"
                     else sample_z(n, *z_shape, seed=rng).data)
                # the windows lie in [-1, 1] and z is a normal draw: a
                # non-finite output comes from the checkpoint's weights
                with np.errstate(over="ignore", invalid="ignore"):
                    g = g_forward(gen, windows.astype(np.float32)[..., None], Tensor(z))
                if not np.all(np.isfinite(g.data)):
                    raise CorruptCheckpointError(
                        f"{checkpoint_path}: the generator's output is not finite")
                y = reassemble(g.data[:, :, 0], pad)
                out = deemphasis(np.concatenate([[y_last], y]))[1:]
                write(out)
                x_last, y_last = x[-1], out[-1]
