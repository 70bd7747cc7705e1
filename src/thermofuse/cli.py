"""Command-line front end: one subcommand per pipeline stage.

Exit codes: 0 on success, 1 on usage errors, 2 on data/format/validation
errors. Set THERMOFUSE_THREADS to cap BLAS/OpenMP thread counts; it is
applied before numerical libraries load, which is why the heavy imports
here live inside the command functions.
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_thread_env() -> None:
    count = os.environ.get("THERMOFUSE_THREADS")
    if count:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, count)


_apply_thread_env()

from .errors import ThermofuseError, ValidationError  # noqa: E402


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# -- subcommands -------------------------------------------------------


def cmd_dwt(args) -> int:
    from pathlib import Path

    import numpy as np

    from . import wavelet
    from .datakit import read_pgm, write_pgm

    image = read_pgm(args.image).astype(np.float64) / 255.0
    pyramid = wavelet.dwt2_forward(image, levels=args.levels)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    planes = {f"ll{pyramid.levels}": pyramid.ll}
    for level in range(pyramid.levels, 0, -1):
        bands = pyramid.details[level - 1]
        planes[f"lh{level}"] = bands.lh
        planes[f"hl{level}"] = bands.hl
        planes[f"hh{level}"] = bands.hh
    for name, plane in planes.items():
        wavelet.write_coeff_plane(plane, outdir / f"{name}.coef")
        write_pgm(wavelet.rescale_for_display(plane), outdir / f"{name}.pgm")
    if pyramid.levels == 2:
        tiled = wavelet.tile_layout(pyramid)
        write_pgm(wavelet.rescale_for_display(tiled), outdir / "tiles.pgm")
    print(f"wrote {len(planes)} coefficient planes to {outdir}")

    if args.inverse:
        back = wavelet.dwt2_inverse(pyramid)
        err = float(np.abs(back - image).max())
        print(f"round-trip max abs error: {err:.3e}")
    return 0


def cmd_synth(args) -> int:
    from pathlib import Path

    import numpy as np

    from .datakit import synth_pairs, write_annotations

    if args.seed < 0:
        raise ValidationError(f"seed must be non-negative, got {args.seed}")
    samples = synth_pairs(
        args.count, extent=args.extent, rng=np.random.default_rng(args.seed)
    )
    write_annotations(samples, args.out)
    print(f"wrote {len(samples)} sample pairs to {Path(args.out)}")
    return 0


# Every `train` setting: key -> (type, default, help). The flag is `--` plus
# the key with dashes; a --config file uses the key itself.
_TRAIN_SETTINGS = {
    "seed": (int, None, "seed of every random stream (required, flag or config)"),
    "epochs": (int, 200, "training epochs"),
    "batch_size": (int, 8, "pairs per Adam step"),
    "lr": (float, 1e-3, "Adam learning rate"),
    "dwf": (int, 4, "width multiplier of the network"),
    "crop_size": (int, 128, "training extent (rows = columns)"),
    "per_box": (int, 10, "crops sampled per annotated box"),
    "loss_csv": (str, None, "per-epoch loss CSV path"),
}


def _read_config(path) -> dict[str, str]:
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: config is not UTF-8 text: {exc}") from exc
    values = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{number}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _train_settings(args) -> dict:
    """Table defaults, then --config values, then flags; then validated."""
    settings = {key: default for key, (_, default, _) in _TRAIN_SETTINGS.items()}
    for key, text in (_read_config(args.config) if args.config else {}).items():
        if key not in settings:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            settings[key] = _TRAIN_SETTINGS[key][0](text)
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc
    settings.update(
        {key: getattr(args, key) for key in settings if getattr(args, key) is not None}
    )
    if settings["seed"] is None:
        raise _UsageError("--seed is required (flag or config file)")
    if settings["seed"] < 0:
        raise ValidationError(f"seed must be non-negative, got {settings['seed']}")
    for key, (kind, _, _) in _TRAIN_SETTINGS.items():
        if key != "seed" and kind is not str and not 0 < settings[key] < float("inf"):
            # the comparison is false for NaN as well
            raise ValidationError(f"{key} must be positive and finite, got {settings[key]}")
    return settings


def cmd_train(args) -> int:
    from pathlib import Path

    from .datakit import read_annotations
    from .model import ModelConfig, save_weights
    from .training import crop_pairs, train_from_pairs

    settings = _train_settings(args)
    for path in (args.out, settings["loss_csv"]):
        if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ValidationError(f"{path}: not a file in an existing directory")
    samples = read_annotations(args.annotations)
    pairs = crop_pairs(samples, settings["seed"], settings["per_box"], settings["crop_size"])
    extent = settings["crop_size"]
    model, losses = train_from_pairs(
        ModelConfig(dwf=settings["dwf"], height=extent, width=extent),
        pairs,
        epochs=settings["epochs"], batch_size=settings["batch_size"],
        seed=settings["seed"], lr=settings["lr"], loss_csv=settings["loss_csv"],
    )
    save_weights(model, args.out)
    print(
        f"trained {settings['epochs']} epochs on {len(pairs)} pairs; "
        f"first/final loss {losses[0]:.6f}/{losses[-1]:.6f}"
    )
    print(f"weights written to {args.out}")
    return 0


def cmd_infer(args) -> int:
    from .datakit import read_pgm, write_pgm
    from .fusion import compute_mask, to_uint8
    from .model import load_weights

    image = read_pgm(args.image)
    height, width = image.shape
    if height % 32 == 0 and width % 32 == 0:
        model = load_weights(args.weights, extents=(height, width))
    else:
        model = load_weights(args.weights)
    mask = to_uint8(compute_mask(model, image))
    write_pgm(mask, args.out)
    print(f"mask written to {args.out}")
    return 0


def cmd_fuse(args) -> int:
    from .datakit import read_pgm, write_pgm
    from .fusion import average_fuse, histogram_equalize

    fused = average_fuse(read_pgm(args.thermal), read_pgm(args.mask))
    if args.he:
        fused = histogram_equalize(fused)
    write_pgm(fused, args.out)
    print(f"fused image written to {args.out}")
    return 0


def cmd_rof(args) -> int:
    from pathlib import Path

    from .datakit import read_pgm, write_pgm
    from .rof import compute_rof, draw_box

    fused = read_pgm(args.fused)
    box = compute_rof(read_pgm(args.thermal), fused, metric=args.metric)
    line = box.text_line()
    print(line)
    if args.out_box:
        Path(args.out_box).write_text(line + "\n", encoding="ascii")
    if args.draw:
        write_pgm(draw_box(fused, box), args.draw)
    return 0


def cmd_metrics(args) -> int:
    from .datakit import read_pgm
    from .metrics import score_triple

    trio = (args.thermal, args.visual, args.output)
    if all(trio):
        thermal, visual, output = (read_pgm(p) for p in trio)
        print(f"{'pair':<16}{'ssim':>10}{'cossim':>10}{'mse':>14}")
        for name, left, right in (
            ("thermal-output", thermal, output),
            ("thermal-visual", thermal, visual),
            ("visual-output", visual, output),
        ):
            s = score_triple(left, right)
            print(f"{name:<16}{s.ssim:>10.6f}{s.cossim:>10.6f}{s.mse:>14.6f}")
        return 0
    if args.a and args.b:
        s = score_triple(read_pgm(args.a), read_pgm(args.b))
        print(f"{s.ssim:.6f} {s.cossim:.6f} {s.mse:.6f}")
        return 0
    raise _UsageError("provide --a/--b, or all of --thermal/--visual/--output")


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermofuse",
        description="Thermal-to-fused grayscale pipeline: wavelet tools, "
        "model training/inference, fusion, box scoring and metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dwt", help="decompose a PGM into Haar sub-band planes")
    p.add_argument("image", help="input PGM (binary P5, maxval 255)")
    p.add_argument("--levels", type=int, choices=(1, 2), default=2)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--inverse", action="store_true",
        help="also reconstruct and report the round-trip error",
    )
    p.set_defaults(run=cmd_dwt)

    p = sub.add_parser("synth", help="generate synthetic annotated pairs")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--extent", type=int, default=128)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("train", help="train the fusion-mask model")
    p.add_argument("annotations", help="annotations JSON file")
    p.add_argument("--out", required=True, help="weights file to write")
    p.add_argument("--config", help="flat key=value defaults; flags override")
    for key, (kind, _, text) in _TRAIN_SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, dest=key, help=text)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("infer", help="produce the fusion mask for an image")
    p.add_argument("weights")
    p.add_argument("image")
    p.add_argument("--out", required=True, help="mask PGM path")
    p.set_defaults(run=cmd_infer)

    p = sub.add_parser("fuse", help="average a thermal image with a mask")
    p.add_argument("--thermal", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--he", action="store_true", help="histogram-equalize the result")
    p.set_defaults(run=cmd_fuse)

    p = sub.add_parser("rof", help="locate the region of fusion box")
    p.add_argument("--thermal", required=True)
    p.add_argument("--fused", required=True)
    p.add_argument("--metric", choices=("ssd", "ssim"), default="ssd")
    p.add_argument("--out-box", dest="out_box", help="write the box line to a file")
    p.add_argument("--draw", help="write the fused image with the box burned in")
    p.set_defaults(run=cmd_rof)

    p = sub.add_parser("metrics", help="similarity scores for image pairs")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--thermal")
    p.add_argument("--visual")
    p.add_argument("--output")
    p.set_defaults(run=cmd_metrics)

    return parser


def main(argv=None) -> int:
    import logging

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ThermofuseError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
