"""The seeded bits of the network, pinned.

A change that keeps every product and every sum order (a faster kernel, a
new buffer layout) keeps these digests; a change that moves one bit of a
weight, a loss or a mask fails here. The weights depend only on the seeded
draws. The training run and the mask also go through BLAS, so like
`test_ssim_bits_are_pinned` they hold for this BLAS build and kernel
(`blas_kernel`), which a failing assert names. The crops call no BLAS.
"""

import hashlib

import numpy as np
import pytest

from thermofuse.cli import main
from thermofuse.datakit import synth_pairs
from thermofuse.fusion import compute_mask
from thermofuse.model import ModelConfig, _weights_chunks, build_model
from thermofuse.training import crop_pairs, train_from_pairs

from blas_kernel import blas_note
from test_training import toy_pairs

# Recorded before the stride-2 kernels took their taps from phase planes.
# sha256 of the TOFW bytes of build_model(ModelConfig(dwf=d), seed=7).
SEEDED_WEIGHTS = {
    1: "7715250bc7e16704dcad9b9e5f104d3420a4913de53377e903d26ab06bda60bc",
    2: "e04169edbbe1a3b4ceaa81ae6ba5d5ae70d91441d719ed1051c4f69d3a4d4ec3",
    4: "0295c91db024cfc9a9b91c97a74428e27f7b8316572a2ec7cb717fa9b383a6b8",
}
# Two epochs of dwf=1 training: the losses (float.hex) and the weights.
TRAIN_LOSSES = ["0x1.287f990000000p-4", "0x1.2b16320000000p-4"]
TRAIN_WEIGHTS = "20f4a3d64d6599c83759bc2c85d962671ba36acb7238361e45b82d12da9b3375"
# The dwf=2 64x64 mask of a seeded 8-bit thermal image.
MASK_DIGEST = "dfa1cb9367766f904994cae457b7502b179f27c88bba5364a415c3b32a5ec7a0"
# The 18 training pairs (inputs, then targets, pair by pair) cropped at 96x96
# from four seeded 192x192 samples. At 96 the bilinear weights are not all
# dyadic, so a change in the order of the blend moves these bytes.
CROP_DIGEST = "8f58daa490c14e3b16e3089970ed668b810347110e737e57e58680a49d0ece29"
# The command-line chain `synth --count 3 --seed 9`, then `train --seed 5
# --epochs 2 --dwf 1 --crop-size 32 --per-box 2 --loss-csv`: crop, train
# and save, as files. sha256 of the loss CSV and of the weights file.
CLI_LOSS_CSV = "ea6b67eb3f5e3442a17b0e6e356c4a127594394b4f06b28802ddfcf99602a402"
CLI_WEIGHTS = "b44f4c32abdeaa1ab58da665871e0f8bbba551374bebd290f709cb8479076a57"


def weights_digest(model) -> str:
    h = hashlib.sha256()
    for chunk in _weights_chunks(model.state_items()):
        h.update(chunk)
    return h.hexdigest()


@pytest.mark.parametrize("dwf", sorted(SEEDED_WEIGHTS))
def test_seeded_weights_are_pinned(dwf):
    assert weights_digest(build_model(ModelConfig(dwf=dwf), seed=7)) == SEEDED_WEIGHTS[dwf]


def test_training_bits_are_pinned():
    cfg = ModelConfig(dwf=1, height=32, width=32)
    model, losses = train_from_pairs(cfg, toy_pairs(6, seed=3), epochs=2, batch_size=3, seed=9)
    assert [loss.hex() for loss in losses] == TRAIN_LOSSES, blas_note()
    assert weights_digest(model) == TRAIN_WEIGHTS, blas_note()


def test_mask_bits_are_pinned():
    model = build_model(ModelConfig(dwf=2, height=64, width=64), seed=11)
    thermal = np.random.default_rng(12).integers(0, 256, size=(64, 64), dtype=np.uint8)
    mask = compute_mask(model, thermal)
    assert hashlib.sha256(mask.tobytes()).hexdigest() == MASK_DIGEST, blas_note()


def test_crop_bits_are_pinned():
    pairs = crop_pairs(
        synth_pairs(4, 192, np.random.default_rng(3)), seed=5, per_box=2, crop_size=96
    )
    h = hashlib.sha256()
    for pair in pairs:
        h.update(pair.input.tobytes())
        h.update(pair.target.tobytes())
    assert len(pairs) == 18
    assert h.hexdigest() == CROP_DIGEST


def test_cli_training_chain_bits_are_pinned(tmp_path):
    data, weights, csv = tmp_path / "data", tmp_path / "w.tofw", tmp_path / "loss.csv"
    assert main(["synth", "--count", "3", "--seed", "9", "--out", str(data)]) == 0
    assert main([
        "train", str(data / "annotations.json"), "--out", str(weights),
        "--seed", "5", "--epochs", "2", "--dwf", "1", "--crop-size", "32",
        "--per-box", "2", "--loss-csv", str(csv),
    ]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == CLI_LOSS_CSV, blas_note()
    assert hashlib.sha256(weights.read_bytes()).hexdigest() == CLI_WEIGHTS, blas_note()
