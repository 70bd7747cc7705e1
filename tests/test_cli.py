import json
import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermofuse import ThermofuseError
from thermofuse.cli import _TRAIN_SETTINGS, _train_settings, build_parser, main
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


def test_infer_with_huge_finite_kernels_writes_no_mask(tmp_path, capsys):
    # Finite in float32, but products of 1e30 kernels overflow within two
    # layers; the sigmoid would turn the infinities into an all-ones mask.
    from thermofuse.model import ModelConfig, build_model, save_weights

    model = build_model(ModelConfig(dwf=1, height=32, width=32), seed=1)
    for name, arr in model.parameters().items():
        if name.endswith("conv/w"):
            arr[...] = 1e30
    weights = tmp_path / "huge.tofw"
    save_weights(model, weights)
    thermal = tmp_path / "t.pgm"
    write_pgm(np.full((32, 32), 90, dtype=np.uint8), thermal)
    out = tmp_path / "m.pgm"
    rc = main(["infer", str(weights), str(thermal), "--out", str(out)])
    assert_error_two(rc, capsys, "mask stage: the model's forward pass hit overflow")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_overflowing_loss_is_error_two(tmp_path, capsys):
    # A learning rate of 1e30 is finite in float32 and leaves finite weights
    # of about 1e30 after the first Adam step; the second batch's forward
    # pass then overflows and its loss is not finite.
    annotations = synth_one(tmp_path)
    weights = tmp_path / "w.tofw"
    loss_csv = tmp_path / "loss.csv"
    rc = main(["train", str(annotations), "--out", str(weights), "--seed", "1",
               "--epochs", "2", "--batch-size", "1", "--dwf", "1", "--crop-size", "32",
               "--per-box", "1", "--lr", "1e30", "--loss-csv", str(loss_csv)])
    assert_error_two(rc, capsys, "training loss is not finite at epoch 1, step 2")
    assert not weights.exists() and not loss_csv.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_rejected_update_names_its_batch(tmp_path, capsys):
    # An all-black image gives all-zero crops, whose gradient overflows:
    # the error names the epoch, the step and the batch's pairs.
    data = tmp_path / "data"
    data.mkdir()
    for name in ("t.pgm", "o.pgm"):
        write_pgm(np.zeros((64, 64), dtype=np.uint8), data / name)
    annotations = data / "annotations.json"
    annotations.write_text(json.dumps([{
        "thermal": "t.pgm", "optical": "o.pgm",
        "boxes": [{"x0": 10, "y0": 10, "x1": 20, "y1": 20, "class": 1}],
    }]))
    weights = tmp_path / "w.tofw"
    rc = main(["train", str(annotations), "--out", str(weights), "--seed", "1",
               "--epochs", "1", "--batch-size", "8", "--dwf", "1", "--crop-size", "32",
               "--per-box", "8"])
    assert_error_two(
        rc, capsys, "update rejected at epoch 1, step 1 (pairs 0, 1, 2, 3, 4, 5, 6, 7)"
    )
    assert not weights.exists()


def test_train_out_of_memory_is_error_two(tmp_path, capsys, monkeypatch):
    annotations = synth_one(tmp_path)

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.62 TiB for an array")

    monkeypatch.setattr("thermofuse.training.build_model", no_memory)
    weights = tmp_path / "w.tofw"
    rc = main(["train", str(annotations), "--out", str(weights), "--seed", "1",
               "--epochs", "1", "--dwf", "1", "--crop-size", "32", "--per-box", "1"])
    assert_error_two(rc, capsys, "error: Unable to allocate 2.62 TiB")
    assert not weights.exists()


def synth_one(tmp_path, seed=5):
    data = tmp_path / "data"
    assert main(["synth", "--count", "1", "--seed", str(seed), "--out", str(data)]) == 0
    return data / "annotations.json"


def assert_error_two(rc, capsys, message):
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_train_rejects_non_utf8_config(tmp_path, capsys):
    annotations = synth_one(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\nloss_csv = \xff.csv\n")
    weights = tmp_path / "w.tofw"
    rc = main(["train", str(annotations), "--config", str(cfg), "--out", str(weights)])
    assert_error_two(rc, capsys, "config is not UTF-8 text")
    assert not weights.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_negative_seed(tmp_path, capsys, source):
    annotations = synth_one(tmp_path)
    weights = tmp_path / "w.tofw"
    argv = ["train", str(annotations), "--out", str(weights), "--epochs", "1",
            "--dwf", "1", "--crop-size", "32", "--per-box", "1"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed = -1\n")
        argv += ["--config", str(cfg)]
    assert_error_two(main(argv), capsys, "seed must be non-negative, got -1")
    assert not weights.exists()


def test_synth_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["synth", "--count", "1", "--seed", "-1", "--out", str(out)])
    assert_error_two(rc, capsys, "seed must be non-negative, got -1")
    assert not out.exists()


@pytest.mark.parametrize("count", ["-2", "0"])
def test_synth_rejects_non_positive_count(tmp_path, capsys, count):
    out = tmp_path / "data"
    rc = main(["synth", "--count", count, "--seed", "1", "--out", str(out)])
    assert_error_two(rc, capsys, f"sample count must be positive, got {count}")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,bad",
    [("--out", "missing/w.tofw"), ("--out", "."), ("--loss-csv", "missing/l.csv")],
)
def test_train_checks_output_paths_before_training(tmp_path, capsys, caplog, flag, bad):
    # A bad output path must fail before the first epoch, not at the save
    # after the last one.
    annotations = synth_one(tmp_path)
    outputs = {"--out": tmp_path / "w.tofw", "--loss-csv": tmp_path / "l.csv"}
    outputs[flag] = tmp_path / bad
    argv = ["train", str(annotations), "--seed", "1", "--epochs", "1", "--dwf", "1",
            "--crop-size", "32", "--per-box", "1"]
    for name, path in outputs.items():
        argv += [name, str(path)]
    caplog.set_level(logging.INFO)
    message = f"{outputs[flag]}: not a file in an existing directory"
    assert_error_two(main(argv), capsys, message)
    assert not any("epoch" in record.getMessage() for record in caplog.records)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("bad", ["missing/m.pgm", "."])
def test_infer_checks_output_path_before_loading(tmp_path, capsys, monkeypatch, bad):
    # A bad --out must fail before the weights load and the forward pass.
    import thermofuse.model

    def no_load(*args, **kwargs):
        raise AssertionError("load_weights ran for an unwritable --out")

    monkeypatch.setattr(thermofuse.model, "load_weights", no_load)
    thermal = tmp_path / "t.pgm"
    write_pgm(np.full((32, 32), 90, dtype=np.uint8), thermal)
    out = tmp_path / bad
    rc = main(["infer", str(tmp_path / "w.tofw"), str(thermal), "--out", str(out)])
    assert_error_two(rc, capsys, f"{out}: not a file in an existing directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.pgm"]


SETTING_TEXT = {int: "3", float: "0.5", str: "run.csv"}


@pytest.mark.parametrize("key", list(_TRAIN_SETTINGS))
def test_train_setting_as_flag_and_config_key(tmp_path, key):
    kind, default, _ = _TRAIN_SETTINGS[key]
    text = SETTING_TEXT[kind]
    seed = [] if key == "seed" else ["--seed", "7"]
    base = ["train", "ann.json", "--out", "w"]
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"{key} = {text}\n")
    for argv in (
        base + ["--" + key.replace("_", "-"), text] + seed,
        base + ["--config", str(cfg)] + seed,
    ):
        settings = _train_settings(build_parser().parse_args(argv))
        assert settings[key] == kind(text) != default
        assert all(
            settings[other] == _TRAIN_SETTINGS[other][1]
            for other in _TRAIN_SETTINGS
            if other not in (key, "seed")
        )


CONFIG_LINE = st.tuples(
    st.sampled_from(list(_TRAIN_SETTINGS)) | st.text(max_size=5),
    st.sampled_from(["0", "-1", "3", "2.5", "nan", "inf", "1e400", "1_0", ""])
    | st.text(max_size=6),
).map(lambda kv: f"{kv[0]} = {kv[1]}")


@given(
    st.one_of(
        st.binary(max_size=64),
        st.lists(CONFIG_LINE, max_size=4).map(lambda lines: "\n".join(lines).encode()),
    )
)
def test_train_config_any_bytes(tmp_path, data):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_bytes(b"seed = 1\n" + data)
    args = build_parser().parse_args(["train", "a.json", "--out", "w", "--config", str(cfg)])
    try:
        settings = _train_settings(args)
    except ThermofuseError:
        return
    assert settings["seed"] >= 0
    for key, (kind, _, _) in _TRAIN_SETTINGS.items():
        assert isinstance(settings[key], kind) or settings[key] is None
        if kind is not str and key != "seed":
            assert 0 < settings[key] < float("inf")


def degenerate_image(shape):
    if shape == "flat":
        return np.full((16, 16), 77, dtype=np.uint8)
    return (np.arange(shape[0] * shape[1]).reshape(shape) * 37 % 256).astype(np.uint8)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), "flat"])
def test_degenerate_images_exit_cleanly(tmp_path, capsys, shape):
    image = degenerate_image(shape)
    thermal, other = tmp_path / "t.pgm", tmp_path / "o.pgm"
    write_pgm(image, thermal)
    write_pgm(255 - image, other)
    for argv in (
        ["fuse", "--thermal", thermal, "--mask", other, "--out", tmp_path / "f.pgm", "--he"],
        ["rof", "--thermal", thermal, "--fused", other, "--metric", "ssd"],
        ["rof", "--thermal", thermal, "--fused", other, "--metric", "ssim"],
        ["metrics", "--a", thermal, "--b", other],
        ["metrics", "--thermal", thermal, "--visual", other, "--output", thermal],
    ):
        rc = main([str(arg) for arg in argv])
        err = capsys.readouterr().err
        assert rc in (0, 2), argv
        if argv[0] == "rof" and argv[-1] == "ssim":
            # smaller than the 11-px SSIM window in either extent: exit 2
            assert rc == (0 if shape == "flat" else 2)
        assert "Traceback" not in err
        assert (rc == 2) == err.startswith("error:")
