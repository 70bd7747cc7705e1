import hashlib
import logging
import tracemalloc

import numpy as np
import pytest

from thermofuse import ShapeError, ValidationError
from thermofuse.datakit import AnnotatedSample, TrainingPair, random_crops, synth_pairs
from thermofuse.fusion import RoiBox
from thermofuse.model import ModelConfig, save_weights
from thermofuse.nn import NonFiniteGradientError
from thermofuse.training import crop_pairs, train_from_pairs, write_loss_csv

CFG = ModelConfig(dwf=1, height=32, width=32)


def toy_pairs(count=6, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        x = rng.uniform(size=(32, 32))
        target = np.clip(x + 0.2, 0.0, 1.0)
        pairs.append(TrainingPair(x, target))
    return pairs


def test_train_from_pairs_validation():
    with pytest.raises(ValidationError):
        train_from_pairs(CFG, [], 1, 2, seed=0)
    pairs = toy_pairs(2)
    with pytest.raises(ValidationError):
        train_from_pairs(CFG, pairs, 0, 2, seed=0)
    with pytest.raises(ValidationError):
        train_from_pairs(CFG, pairs, 1, 0, seed=0)
    with pytest.raises(ValidationError):
        train_from_pairs(CFG, pairs, 1, 2, seed=0, lr=0.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            train_from_pairs(CFG, pairs, 1, 2, seed=0, lr=lr)


@pytest.mark.parametrize(
    "bad",
    [
        TrainingPair(np.zeros((64, 64)), np.zeros((32, 32))),
        TrainingPair(np.zeros((32, 32)), np.zeros((32, 31))),
        TrainingPair(np.zeros((32, 32, 1)), np.zeros((32, 32))),
    ],
)
def test_train_from_pairs_checks_every_pair_first(monkeypatch, bad):
    # One pair off the model's extents is a ShapeError naming it before the
    # model is built, not a step that fails when it draws the pair.
    import thermofuse.training

    def no_build(*args, **kwargs):
        raise AssertionError("the model was built before the pairs were checked")

    monkeypatch.setattr(thermofuse.training, "build_model", no_build)
    pairs = toy_pairs(6)
    pairs[4] = bad
    with pytest.raises(ShapeError, match="training pair 4 has input"):
        train_from_pairs(CFG, pairs, 1, 2, seed=0)


def test_training_set_is_not_copied():
    # Each step gathers its own batch, so a larger training set adds only
    # its pair list. Here 128 pairs are 1 MiB as stacked float32 inputs and
    # targets; gathered per step the peak was 0.02 MiB above a 16-pair run
    # (two steps, so both hold Adam's moments), against 1 MiB above when
    # the set was stacked up front.
    def peak(count):
        pairs = toy_pairs(count)
        tracemalloc.start()
        try:
            train_from_pairs(CFG, pairs, epochs=1, batch_size=8, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stacked = 128 * 2 * 32 * 32 * np.dtype(CFG.dtype).itemsize
    assert peak(128) - peak(16) < stacked / 4


def test_train_from_pairs_reduces_loss(caplog):
    with caplog.at_level(logging.INFO, logger="thermofuse.training"):
        _, losses = train_from_pairs(
            CFG, toy_pairs(8), epochs=12, batch_size=4, seed=1, lr=1e-2
        )
    assert len(losses) == 12
    assert all(np.isfinite(v) for v in losses)
    assert losses[-1] < losses[0] * 0.6
    # Fewer than 20 epochs: every epoch is logged.
    assert [r.getMessage() for r in caplog.records] == [
        f"epoch {epoch}/12 loss {loss:.6f}" for epoch, loss in enumerate(losses, start=1)
    ]


def test_train_from_pairs_logs_every_tenth_of_the_run(caplog):
    with caplog.at_level(logging.INFO, logger="thermofuse.training"):
        _, losses = train_from_pairs(CFG, toy_pairs(1), epochs=21, batch_size=1, seed=2)
    assert [r.getMessage() for r in caplog.records] == [
        f"epoch {epoch}/21 loss {losses[epoch - 1]:.6f}" for epoch in range(2, 22, 2)
    ]


def test_train_from_pairs_is_reproducible(tmp_path):
    pairs = toy_pairs(6, seed=3)
    model_a, losses_a = train_from_pairs(CFG, pairs, epochs=2, batch_size=3, seed=9)
    model_b, losses_b = train_from_pairs(CFG, pairs, epochs=2, batch_size=3, seed=9)
    assert losses_a == losses_b  # float-exact, not approximately
    wa, wb = tmp_path / "a.tofw", tmp_path / "b.tofw"
    save_weights(model_a, wa)
    save_weights(model_b, wb)
    assert wa.read_bytes() == wb.read_bytes()

    _, losses_c = train_from_pairs(CFG, pairs, epochs=2, batch_size=3, seed=10)
    assert losses_a != losses_c


def test_train_from_pairs_writes_csv(tmp_path):
    csv = tmp_path / "loss.csv"
    _, losses = train_from_pairs(
        CFG, toy_pairs(4), epochs=3, batch_size=2, seed=1, loss_csv=csv
    )
    lines = csv.read_text(encoding="ascii").splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 4
    for number, (line, value) in enumerate(zip(lines[1:], losses), start=1):
        epoch, loss = line.split(",")
        assert int(epoch) == number
        assert float(loss) == value  # repr round-trips exactly


def test_write_loss_csv_formats_full_precision(tmp_path):
    path = tmp_path / "l.csv"
    values = [0.1 + 0.2, 1e-17, 3.0]
    write_loss_csv(path, values)
    body = path.read_text(encoding="ascii")
    assert body == "epoch,loss\n1,0.30000000000000004\n2,1e-17\n3,3.0\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rejected_update_names_its_batch():
    # All-zero inputs make every batch-norm layer divide by sqrt(BN_EPS),
    # so the gradient overflows on its way back and step 1's update is
    # rejected. The error names the pairs of that batch, so that they can
    # be dropped: step 1 trains the first half of stream 1's permutation.
    zero = np.zeros((32, 32))
    pairs = [TrainingPair(zero, np.full((32, 32), 0.2)) for _ in range(8)]
    with pytest.raises(NonFiniteGradientError) as err:
        train_from_pairs(CFG, pairs, epochs=1, batch_size=4, seed=3)
    shuffle = np.random.default_rng(np.random.SeedSequence(3).spawn(4)[1])
    first = ", ".join(str(i) for i in sorted(shuffle.permutation(8)[:4]))
    message = str(err.value)
    assert message.startswith(f"update rejected at epoch 1, step 1 (pairs {first}), ")
    assert err.value.blocks and all(name in message for name in err.value.blocks)


def test_crop_pairs_draw_from_stream_three():
    samples = synth_pairs(3, 128, np.random.default_rng(2))
    samples.insert(1, AnnotatedSample(samples[0].thermal, None, samples[0].boxes))
    pairs = crop_pairs(samples, seed=9, per_box=2, crop_size=32)
    # Stream 3 of the seed, one child per registered sample in order.
    children = np.random.SeedSequence(9).spawn(4)[3].spawn(3)
    expected = []
    for sample, child in zip(samples[:1] + samples[2:], children):
        expected += random_crops(sample, 2, np.random.default_rng(child), 32)
    assert len(pairs) == len(expected) > 0
    for got, want in zip(pairs, expected):
        assert np.array_equal(got.input, want.input)
        assert np.array_equal(got.target, want.target)


@pytest.mark.parametrize(
    "count, extent, per_box, crop, digest",
    [
        (8, 128, 8, 32, "4eb45d6144f2248994f007e2666822e26cde3151843c834185cb509227574306"),
        (4, 192, 1, 128, "6437e70a397163cfc5ae649fcd8cfdb41ca5000861df3b3e024170ba2361083e"),
        # Crop 24: the bilinear weights are not dyadic, so products round
        # and a reordered but algebraically equal blend moves bits here.
        (4, 128, 2, 24, "fcf5ef652c997303b837f5057e6f70ebfb99028eec6fe3e2990d175fac0b2904"),
    ],
)
def test_crop_pairs_bytes_are_pinned(count, extent, per_box, crop, digest):
    # The bytes of every pair are pinned: any change to the crop path that
    # moves a bit fails here.
    samples = synth_pairs(count, extent, np.random.default_rng(77))
    pairs = crop_pairs(samples, seed=5, per_box=per_box, crop_size=crop)
    h = hashlib.sha256()
    for pair in pairs:
        assert pair.input.dtype == pair.target.dtype == np.float64
        assert pair.input.shape == pair.target.shape == (crop, crop)
        h.update(pair.input.tobytes())
        h.update(pair.target.tobytes())
    assert h.hexdigest() == digest


def test_crop_pairs_errors():
    image = np.zeros((40, 40), dtype=np.uint8)
    with pytest.raises(ValidationError, match="no samples"):
        crop_pairs([], 1, 1, 32)
    with pytest.raises(ValidationError, match="unregistered"):
        crop_pairs([AnnotatedSample(image, None, [])], 1, 1, 32)
    with pytest.raises(ValidationError, match="no training pairs"):
        crop_pairs([AnnotatedSample(image, image, [RoiBox(0, 0, 5, 5)])], 1, 1, 64)
