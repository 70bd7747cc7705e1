import json

import numpy as np
import pytest

from thermofuse.cli import main
from thermofuse.datakit import read_pgm, write_pgm


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_synth_and_dwt(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--count", "2", "--seed", "3", "--out", str(data)]) == 0
    names = sorted(p.name for p in data.iterdir())
    assert names == [
        "annotations.json",
        "optical_0000.pgm",
        "optical_0001.pgm",
        "thermal_0000.pgm",
        "thermal_0001.pgm",
    ]
    records = json.loads((data / "annotations.json").read_text())
    assert len(records) == 2 and records[0]["boxes"]

    out = tmp_path / "bands"
    rc = main(
        ["dwt", str(data / "thermal_0000.pgm"), "--out", str(out), "--inverse"]
    )
    assert rc == 0
    produced = sorted(p.name for p in out.iterdir())
    assert "ll2.coef" in produced and "tiles.pgm" in produced
    assert sum(name.endswith(".coef") for name in produced) == 7
    text = capsys.readouterr().out
    assert "round-trip max abs error" in text

    shallow = tmp_path / "bands1"
    assert main(["dwt", str(data / "thermal_0000.pgm"), "--levels", "1", "--out", str(shallow)]) == 0
    produced = sorted(p.name for p in shallow.iterdir())
    assert sum(name.endswith(".coef") for name in produced) == 4
    assert "tiles.pgm" not in produced


def test_full_pipeline_through_cli(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--count", "1", "--seed", "11", "--out", str(data)]) == 0
    weights = tmp_path / "model.tofw"
    rc = main(
        [
            "train", str(data / "annotations.json"),
            "--out", str(weights),
            "--seed", "4", "--epochs", "1", "--batch-size", "4",
            "--dwf", "1", "--crop-size", "32", "--per-box", "2",
            "--loss-csv", str(tmp_path / "loss.csv"),
        ]
    )
    assert rc == 0
    assert weights.exists()
    assert (tmp_path / "loss.csv").read_text().startswith("epoch,loss\n1,")

    thermal = data / "thermal_0000.pgm"
    mask = tmp_path / "mask.pgm"
    assert main(["infer", str(weights), str(thermal), "--out", str(mask)]) == 0
    assert read_pgm(mask).shape == read_pgm(thermal).shape

    fused = tmp_path / "fused.pgm"
    assert main(["fuse", "--thermal", str(thermal), "--mask", str(mask), "--out", str(fused), "--he"]) == 0
    assert read_pgm(fused).shape == read_pgm(thermal).shape

    boxed = tmp_path / "boxed.pgm"
    box_file = tmp_path / "box.txt"
    capsys.readouterr()
    rc = main(
        [
            "rof", "--thermal", str(thermal), "--fused", str(fused),
            "--out-box", str(box_file), "--draw", str(boxed),
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    parts = line.split()
    assert len(parts) == 6 and parts[4] == "ssd"
    assert box_file.read_text().strip() == line
    assert read_pgm(boxed).max() == 255

    assert main(["metrics", "--a", str(thermal), "--b", str(fused)]) == 0
    single = capsys.readouterr().out.split()
    assert len(single) == 3 and all(float(v) is not None for v in single)

    rc = main(
        [
            "metrics", "--thermal", str(thermal),
            "--visual", str(data / "optical_0000.pgm"), "--output", str(fused),
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["pair", "ssim", "cossim", "mse"]
    assert [row.split()[0] for row in table[1:]] == [
        "thermal-output", "thermal-visual", "visual-output",
    ]


def test_train_requires_seed(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--count", "1", "--seed", "1", "--out", str(data)])
    rc = main(["train", str(data / "annotations.json"), "--out", str(tmp_path / "w")])
    assert rc == 1
    assert "--seed" in capsys.readouterr().err


def test_train_config_file_supplies_defaults(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--count", "1", "--seed", "2", "--out", str(data)])
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# tiny run\nseed = 6\nepochs = 1\ndwf = 1\ncrop_size = 32\nper_box = 1\nbatch_size = 4\n"
    )
    weights = tmp_path / "w.tofw"
    rc = main(
        ["train", str(data / "annotations.json"), "--config", str(cfg), "--out", str(weights)]
    )
    assert rc == 0 and weights.exists()


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--count", "1", "--seed", "2", "--out", str(data)])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(
        ["train", str(data / "annotations.json"), "--config", str(cfg),
         "--seed", "1", "--out", str(tmp_path / "w")]
    )
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_train_unregistered_annotations(tmp_path, capsys):
    write_pgm(np.zeros((128, 128), dtype=np.uint8), tmp_path / "t.pgm")
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps([{"thermal": "t.pgm"}]))
    rc = main(
        ["train", str(ann), "--seed", "1", "--out", str(tmp_path / "w"),
         "--dwf", "1", "--crop-size", "32", "--epochs", "1"]
    )
    assert rc == 2
    assert "unregistered" in capsys.readouterr().err


def test_missing_input_file_is_error_two(tmp_path, capsys):
    rc = main(["dwt", str(tmp_path / "absent.pgm"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_corrupted_weights_magic_is_error_two(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--count", "1", "--seed", "8", "--out", str(data)])
    weights = tmp_path / "w.tofw"
    rc = main(
        ["train", str(data / "annotations.json"), "--out", str(weights),
         "--seed", "2", "--epochs", "1", "--dwf", "1", "--crop-size", "32",
         "--per-box", "1"]
    )
    assert rc == 0
    blob = bytearray(weights.read_bytes())
    blob[:4] = b"ZZZZ"
    bad = tmp_path / "bad.tofw"
    bad.write_bytes(bytes(blob))
    rc = main(
        ["infer", str(bad), str(data / "thermal_0000.pgm"), "--out", str(tmp_path / "m.pgm")]
    )
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_metrics_partial_flags_usage_error(tmp_path, capsys):
    write_pgm(np.zeros((16, 16), dtype=np.uint8), tmp_path / "a.pgm")
    rc = main(["metrics", "--a", str(tmp_path / "a.pgm")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_infer_with_nan_weights_writes_no_mask(tmp_path, capsys):
    from thermofuse.model import ModelConfig, build_model, save_weights

    model = build_model(ModelConfig(dwf=1, height=32, width=32), seed=1)
    model.parameters()["output/conv/b"][...] = np.nan
    weights = tmp_path / "nan.tofw"
    save_weights(model, weights)
    thermal = tmp_path / "t.pgm"
    write_pgm(np.full((32, 32), 90, dtype=np.uint8), thermal)
    out = tmp_path / "m.pgm"
    assert main(["infer", str(weights), str(thermal), "--out", str(out)]) == 2
    assert "mask stage" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_nan_learning_rate(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--count", "1", "--seed", "5", "--out", str(data)])
    weights = tmp_path / "w.tofw"
    rc = main(
        ["train", str(data / "annotations.json"), "--out", str(weights),
         "--seed", "1", "--epochs", "1", "--dwf", "1", "--crop-size", "32",
         "--lr", "nan"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "lr must be positive and finite, got nan" in err
    assert "Traceback" not in err
    assert not weights.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_non_finite_loss_is_error_two(tmp_path, capsys):
    # A learning rate of 1e300 sends the weights to ~1e300 after the first
    # Adam step, so the second batch's loss is NaN.
    data = tmp_path / "data"
    main(["synth", "--count", "1", "--seed", "5", "--out", str(data)])
    weights = tmp_path / "w.tofw"
    rc = main(
        ["train", str(data / "annotations.json"), "--out", str(weights),
         "--seed", "1", "--epochs", "2", "--batch-size", "1", "--dwf", "1",
         "--crop-size", "32", "--per-box", "1", "--lr", "1e300"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "training loss is not finite at epoch 1, step 2" in err
    assert "Traceback" not in err
    assert not weights.exists()
