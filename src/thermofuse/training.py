"""Deterministic minibatch training with logcosh loss and Adam.

All randomness flows from one integer seed through the four child streams
of its seed sequence (`_streams`): 0 parameter initialization, 1 epoch
shuffling and 2 dropout masks (`train_from_pairs`), 3 crop sampling
(`crop_pairs`, one grandchild per registered sample). So two runs with
equal seed and data produce bit-identical crops, losses and weights.
Training logs the mean loss every max(1, epochs // 10) epochs.
"""

from __future__ import annotations

import logging

import numpy as np

from .datakit import TrainingPair, random_crops
from .errors import ShapeError, ValidationError
from .files import write_file
from .model import Model, ModelConfig, build_model
from .nn import Adam, NonFiniteGradientError, logcosh_loss

log = logging.getLogger(__name__)


def _streams(seed: int) -> list[np.random.SeedSequence]:
    """Streams 0-3 of `seed`, in the order the module docstring gives."""
    return np.random.SeedSequence(seed).spawn(4)


def _stack(grids, dtype) -> np.ndarray:
    """The (h, w) `grids` as one (n, h, w, 1) batch in `dtype`."""
    return np.stack([np.asarray(g, dtype=dtype) for g in grids])[..., None]


def train_from_pairs(
    cfg: ModelConfig,
    pairs,
    epochs: int,
    batch_size: int,
    seed: int,
    lr: float = 1e-3,
    loss_csv=None,
) -> tuple[Model, list[float]]:
    """Build a fresh model and train it, seeded from streams 0-2 of `seed`;
    returns the model and the mean loss per epoch.

    Every pair's input and target must be `(cfg.height, cfg.width)`: the
    first that is not raises ShapeError, naming its index, before the model
    is built. Each step gathers its batch from `pairs` in `cfg.dtype`, so no
    copy of the whole training set is made.

    An update rejected for a non-finite gradient raises
    NonFiniteGradientError naming the epoch, the step and the indices in
    `pairs` of that step's batch."""
    if not pairs:
        raise ValidationError("no training pairs")
    if epochs < 1 or batch_size < 1:
        raise ValidationError(
            f"epochs and batch size must be positive, got {epochs}, {batch_size}"
        )
    if not 0.0 < lr < float("inf"):  # false for NaN as well
        raise ValidationError(f"learning rate must be positive and finite, got {lr}")
    extents = (cfg.height, cfg.width)
    for index, pair in enumerate(pairs):
        shapes = np.shape(pair.input), np.shape(pair.target)
        if shapes != (extents, extents):
            raise ShapeError(
                f"training pair {index} has input {shapes[0]} and target {shapes[1]}, "
                f"expected {extents} for both"
            )
    init_seq, shuffle_seq, dropout_seq, _ = _streams(seed)
    model = build_model(cfg, seed=init_seq)
    rng_shuffle = np.random.default_rng(shuffle_seq)
    rng_dropout = np.random.default_rng(dropout_seq)
    count = len(pairs)
    log_every = max(1, epochs // 10)
    optimizer = Adam(lr=lr)
    params = model.parameters()
    epoch_losses: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng_shuffle.permutation(count)
        total = 0.0
        for step, start in enumerate(range(0, count, batch_size), start=1):
            chosen = order[start : start + batch_size]
            batch = [pairs[i] for i in chosen]
            inputs = _stack([p.input for p in batch], cfg.dtype)
            predicted = model.forward(inputs, training=True, rng=rng_dropout)
            loss, dloss = logcosh_loss(predicted, _stack([p.target for p in batch], cfg.dtype))
            if not np.isfinite(loss):
                raise ValidationError(
                    f"training loss is not finite at epoch {epoch}, step {step}"
                )
            model.backward(dloss)
            try:
                optimizer.step(params, model.gradients())
            except NonFiniteGradientError as exc:
                chosen_pairs = ", ".join(str(i) for i in np.sort(chosen))
                raise NonFiniteGradientError(
                    exc.blocks, f" at epoch {epoch}, step {step} (pairs {chosen_pairs})"
                ) from None
            total += loss * chosen.size
        epoch_losses.append(total / count)
        if epoch % log_every == 0:
            log.info("epoch %d/%d loss %.6f", epoch, epochs, epoch_losses[-1])
    if loss_csv is not None:
        write_loss_csv(loss_csv, epoch_losses)
    return model, epoch_losses


def crop_pairs(samples, seed: int, per_box: int, crop_size: int) -> list[TrainingPair]:
    """Training pairs from the registered samples, seeded from stream 3 of `seed`."""
    if not samples:
        raise ValidationError("annotations contain no samples")
    registered = [s for s in samples if s.optical is not None]
    if not registered:
        raise ValidationError("unregistered data cannot train (no optical images)")
    pairs = []
    for sample, child in zip(registered, _streams(seed)[3].spawn(len(registered))):
        rng = np.random.default_rng(child)
        pairs.extend(random_crops(sample, per_box=per_box, rng=rng, crop_size=crop_size))
    if not pairs:
        raise ValidationError("no training pairs could be built from the annotations")
    return pairs


def write_loss_csv(path, losses) -> None:
    """CSV with header `epoch,loss`; loss formatted with full precision so
    identical runs produce identical files. Written through
    `files.write_file`, which replaces an old file the caller owns."""
    lines = ["epoch,loss"]
    lines.extend(f"{epoch},{value!r}" for epoch, value in enumerate(losses, start=1))
    write_file(path, (("\n".join(lines) + "\n").encode("ascii"),))
