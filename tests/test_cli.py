import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermofuse
from blas_kernel import blas_threads
from thermofuse import ThermofuseError
from thermofuse.cli import _THREAD_VARS, _TRAIN_SETTINGS, _train_settings, build_parser, main
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


@pytest.mark.parametrize("shape,extents", [((64, 96), (64, 96)), ((48, 40), (128, 128))])
def test_infer_runs_at_the_image_extents_the_model_accepts(
    tmp_path, capsys, monkeypatch, shape, extents
):
    # An image whose extents the model accepts runs at them; any other is
    # resampled to the default 128x128 and back. Either way the mask is
    # `compute_mask`'s for the model loaded at those extents.
    import thermofuse.model
    from thermofuse.fusion import compute_mask, to_uint8
    from thermofuse.model import ModelConfig, build_model, load_weights, save_weights

    weights = tmp_path / "w.tofw"
    save_weights(build_model(ModelConfig(dwf=1, height=32, width=32), seed=3), weights)
    image = np.random.default_rng(4).integers(0, 256, size=shape, dtype=np.uint8)
    thermal, out = tmp_path / "t.pgm", tmp_path / "m.pgm"
    write_pgm(image, thermal)
    loaded = []

    def spy(*args, **kwargs):
        loaded.append(load_weights(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(thermofuse.model, "load_weights", spy)
    assert main(["infer", str(weights), str(thermal), "--out", str(out)]) == 0
    model = loaded[-1]
    assert (model.cfg.height, model.cfg.width) == extents
    want = to_uint8(compute_mask(load_weights(weights, extents=extents), image))
    assert np.array_equal(read_pgm(out), want)


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


def test_thread_count_overrides_variables_already_set():
    # THERMOFUSE_THREADS wins over a thread variable the shell already set:
    # a BLAS left at another thread count may round its sums differently.
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(thermofuse.__file__).parents[1]),
        "THERMOFUSE_THREADS": "01",
        "OPENBLAS_NUM_THREADS": "2",
        "OMP_NUM_THREADS": "4",
    }
    code = "import os, thermofuse.cli as c; print(*(os.environ[v] for v in c._THREAD_VARS))"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["1"] * len(_THREAD_VARS)


@pytest.mark.parametrize("count", [1, 2])
def test_thread_count_reaches_the_blas(count):
    # Imported before numpy, thermofuse.cli sets the thread variables that
    # numpy's OpenBLAS reads as it loads; with numpy loaded first they come
    # too late, which is the documented limit.
    if blas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS is absent")
    if (os.cpu_count() or 1) < count:
        pytest.skip(f"OpenBLAS runs at most one thread per core, and {count} are asked")
    tests = Path(__file__).parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(Path(thermofuse.__file__).parents[1]), str(tests)]),
        "THERMOFUSE_THREADS": str(count),
    }
    code = "import thermofuse.cli; from blas_kernel import blas_threads; print(blas_threads())"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == [str(count)]


@pytest.mark.parametrize("value", ["one", "0", "-1", "1.5", " 2", "\u00b2"])
def test_invalid_thread_count_is_error_two(tmp_path, capsys, monkeypatch, value):
    # Passed through, such a value would leave BLAS on every core.
    monkeypatch.setenv("THERMOFUSE_THREADS", value)
    out = tmp_path / "data"
    rc = main(["synth", "--count", "1", "--seed", "1", "--out", str(out)])
    assert_error_two(rc, capsys, f"THERMOFUSE_THREADS must be a positive integer, got {value!r}")
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


def test_train_checks_crop_size_before_reading(tmp_path, capsys):
    # The crop size is checked before the annotations are read: here there
    # is no annotation file at all.
    argv = ["train", str(tmp_path / "missing.json"), "--seed", "1", "--crop-size", "48",
            "--out", str(tmp_path / "w.tofw")]
    assert_error_two(main(argv), capsys, "height must be a positive multiple of 32, got 48")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("bad", ["missing/x.out", "."])
@pytest.mark.parametrize(
    "command,flag", [("fuse", "--out"), ("rof", "--out-box"), ("rof", "--draw")]
)
def test_outputs_are_checked_before_reading_inputs(
    tmp_path, capsys, monkeypatch, command, flag, bad
):
    import thermofuse.datakit

    def no_read(path):
        raise AssertionError(f"read_pgm({path}) ran for an unwritable {flag}")

    monkeypatch.setattr(thermofuse.datakit, "read_pgm", no_read)
    image = str(tmp_path / "t.pgm")
    inputs = {"fuse": ["--thermal", image, "--mask", image],
              "rof": ["--thermal", image, "--fused", image]}
    out = tmp_path / bad
    rc = main([command, *inputs[command], flag, str(out)])
    assert_error_two(rc, capsys, f"{out}: not a file in an existing directory")
    assert list(tmp_path.iterdir()) == []


def test_dwt_rewrite_gives_the_same_files(tmp_path):
    image = tmp_path / "t.pgm"
    write_pgm(np.random.default_rng(2).integers(0, 256, (32, 32), dtype=np.uint8), image)
    out = tmp_path / "bands"
    assert main(["dwt", str(image), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(first) == 15  # seven planes as .coef and .pgm, and tiles.pgm
    assert main(["dwt", str(image), "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


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


# -- argv fuzz -----------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Small valid and corrupt inputs of every kind the CLI reads, and an
    output directory: name -> path."""
    from thermofuse.datakit import AnnotatedSample, synth_pairs, write_annotations
    from thermofuse.model import ModelConfig, build_model, save_weights

    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(91)
    out = root / "out"
    out.mkdir()
    files = {"out": out, "out_file": out / "o.pgm", "out_dir": out / "d",
             "out_tofw": out / "w.tofw", "out_csv": out / "loss.csv",
             "missing": root / "missing" / "x"}
    for name, shape in (("pgm", (32, 32)), ("odd_pgm", (40, 48)), ("tiny_pgm", (5, 3))):
        files[name] = root / f"{name}.pgm"
        write_pgm(rng.integers(0, 256, size=shape, dtype=np.uint8), files[name])
    files["bad_pgm"] = root / "bad.pgm"
    files["bad_pgm"].write_bytes(b"P5\n32 32\n255\n" + bytes(100))
    # One sample with one box, so a training run is a few steps at most.
    sample = synth_pairs(1, 128, rng)[0]
    write_annotations([AnnotatedSample(sample.thermal, sample.optical, sample.boxes[:1])],
                      root / "data")
    files["ann"] = root / "data" / "annotations.json"
    write_annotations([AnnotatedSample(sample.thermal, None, sample.boxes[:1])], root / "thermal")
    files["unregistered_ann"] = root / "thermal" / "annotations.json"
    files["bad_ann"] = root / "bad.json"
    files["bad_ann"].write_text('[{"thermal": 3, "boxes": [{"x0": "a"}]}]')
    files["tofw"] = root / "w.tofw"
    save_weights(build_model(ModelConfig(dwf=1, height=32, width=32), seed=4), files["tofw"])
    files["bad_tofw"] = root / "bad.tofw"
    files["bad_tofw"].write_bytes(files["tofw"].read_bytes()[:5000])
    files["cfg"] = root / "run.cfg"
    files["cfg"].write_text("# small run\nseed=3\nepochs=1\nlr=0.01\n")
    files["bad_cfg"] = root / "bad.cfg"
    files["bad_cfg"].write_text("epochs\ndwf=x\n")
    files["binary_cfg"] = root / "binary.cfg"
    files["binary_cfg"].write_bytes(b"\xff\xfe=\x00")
    return files


def _mostly(valid, *bad):
    """One of `bad`, or twice as often `valid`, so some argvs run all the way."""
    return st.sampled_from([valid] * (2 * len(bad)) + list(bad))


def _sizes(valid):
    """A size flag's value: never large, since a large size allocates before
    it is checked against the machine."""
    return _mostly(str(valid), "-1", "0", "1", "2", "x", "nan")


def _argv(files):
    """Strategy: an argv for one subcommand with each flag present or not,
    taking its value from small valid and corrupt choices."""

    def paths(valid, *bad):
        return _mostly(*(str(files[k]) for k in (valid, *bad)))

    pgms = paths("pgm", "odd_pgm", "tiny_pgm", "bad_pgm", "missing", "tofw")
    # File outputs, and the output directories of dwt and synth, which make
    # any missing directory they are given: so they get no file path.
    outs = paths("out_file", "out", "missing")
    dirs = paths("out_dir", "out", "pgm")

    def flags(*pairs, always=()):
        """Each (flag, values) pair gives [flag, value], or [flag] for a
        switch (values None), or, one time in four, []. A positional
        argument (no leading --) and a flag in `always` (the required
        ones, say) are always given."""
        parts = []
        for flag, values in pairs:
            optional = flag.startswith("--") and flag not in always
            given_ = st.sampled_from([True, True, True, False] if optional else [True])
            words = st.just([flag]) if values is None else values.map(
                lambda v, f=flag: [f, v] if f.startswith("--") else [v])
            parts.append(st.tuples(given_, words).map(lambda t: t[1] if t[0] else []))
        return st.tuples(*parts).map(lambda groups: sum(groups, []))

    # Every train size flag is always given: a default size is a full run.
    sizes = {"--epochs": 1, "--dwf": 1, "--crop-size": 32, "--per-box": 1, "--batch-size": 2}
    commands = {
        "dwt": flags(("image", pgms), ("--out", dirs),
                     ("--levels", _mostly("2", "1", "3", "x")), always={"--out"}),
        "synth": flags(("--count", _sizes(1)), ("--extent", _sizes(128)),
                       ("--seed", _mostly("4", "-1", "x")), ("--out", dirs),
                       always={"--count", "--seed", "--out"}),
        "train": flags(
            ("annotations", paths("ann", "unregistered_ann", "bad_ann", "pgm", "missing")),
            ("--out", paths("out_tofw", "out", "missing")),
            ("--config", paths("cfg", "bad_cfg", "binary_cfg", "pgm", "missing")),
            ("--seed", _mostly("5", "-1", "x")),
            ("--lr", _mostly("0.01", "-1", "0", "nan", "inf", "x")),
            ("--loss-csv", paths("out_csv", "missing")),
            *((flag, _sizes(valid)) for flag, valid in sizes.items()),
            always={"--out", *sizes},
        ),
        "infer": flags(("weights", paths("tofw", "bad_tofw", "pgm", "cfg", "missing")),
                       ("image", pgms), ("--out", outs), always={"--out"}),
        "fuse": flags(("--thermal", pgms), ("--mask", pgms), ("--out", outs),
                      ("--he", None), always={"--thermal", "--mask", "--out"}),
        "rof": flags(("--thermal", pgms), ("--fused", pgms),
                     ("--metric", _mostly("ssd", "ssim", "x")),
                     ("--out-box", outs), ("--draw", outs),
                     always={"--thermal", "--fused"}),
        "metrics": flags(("--a", pgms), ("--b", pgms), ("--thermal", pgms),
                         ("--visual", pgms), ("--output", pgms)),
    }
    return st.sampled_from(sorted(commands)).flatmap(
        lambda command: commands[command].map(lambda rest: [command] + rest)
    )


@settings(max_examples=300)
@given(data=st.data())
def test_cli_argv_fuzz_exits_cleanly(fuzz_files, capsys, data):
    argv = data.draw(_argv(fuzz_files))
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, (argv, err)
