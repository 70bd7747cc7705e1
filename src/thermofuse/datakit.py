"""Data tooling: PGM I/O, JSON annotations, crop pipeline, synthetic pairs.

Annotations are a JSON array of records::

    [{"thermal": "t.pgm", "optical": "o.pgm" | null,
      "boxes": [{"x0": 1, "y0": 2, "x1": 30, "y1": 40, "class": 3}, ...]}, ...]

Paths are resolved relative to the annotation file. A null optical image
marks an unregistered sample: usable for inference and box scoring but not
for building training pairs. Box coordinates are inclusive, x over rows and
y over columns; classes 1..5 mean nature, animal, human, crowd and modern
infrastructure.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ThermofuseError, ValidationError
from .files import write_file
from .fusion import (
    RoiBox,
    as_gray8,
    build_training_target,
    resample_windows,
    resize_bilinear,
    round_half_away,
)

log = logging.getLogger(__name__)


@dataclass
class AnnotatedSample:
    """A registered thermal/optical pair (optical may be missing) with ROIs."""

    thermal: np.ndarray
    optical: np.ndarray | None
    boxes: list[RoiBox] = field(default_factory=list)
    name: str = ""


@dataclass
class TrainingPair:
    """Unit-form input/target grids at the training extent."""

    input: np.ndarray
    target: np.ndarray


# -- PGM ---------------------------------------------------------------


# One header token and the whitespace and `#` comments before it. `\s` is
# the six bytes `bytes.isspace` accepts; a comment runs to its newline or
# to the end of the file. An empty group means the header stopped early.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]*)")


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM ("P5", maxval 255) into a uint8 grid.

    The header is four tokens, "P5", width, height and maxval, each after
    any run of whitespace (space, tab, LF, CR, VT, FF) and `#` comments,
    which reach to the end of their line. A token ends at whitespace or at
    `#`; width, height and maxval are read by `int()`, one at a time as
    the header is scanned, so a sign or an underscore between digits
    passes. Exactly one whitespace byte follows maxval, then width x height
    pixel bytes in row order; trailing bytes are ignored. Anything else is
    a FormatError. The file is read in one call and its pixels copied once.
    """
    with open(os.fspath(path), "rb", buffering=0) as fh:
        data = fh.readall()
    token = _PGM_TOKEN.match(data)
    magic = token[1]
    if not magic:
        raise FormatError("truncated PGM header")
    if magic != b"P5":
        raise FormatError(f"unsupported image magic {magic!r} (want binary P5)")
    fields = []
    try:
        for _ in range(3):
            token = _PGM_TOKEN.match(data, token.end())
            if not token[1]:
                raise FormatError("truncated PGM header")
            fields.append(int(token[1]))
    except ValueError as exc:  # a FormatError too: a truncation here is malformed
        raise FormatError(f"malformed PGM header: {exc}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"invalid extents {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (want 255)")
    pos = token.end()
    if not data[pos : pos + 1].isspace():
        raise FormatError("missing whitespace after PGM maxval")
    pos += 1
    if len(data) - pos < width * height:
        raise FormatError("truncated PGM pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).copy()


def write_pgm(img, path) -> None:
    """Write a uint8 grid as binary PGM: "P5\\n<w> <h>\\n255\\n" + raw rows,
    through `files.write_file`, which replaces an old file the caller owns.

    The rows are written from the grid's own buffer; only a grid that is
    not C-contiguous is copied first."""
    arr = np.ascontiguousarray(as_gray8(img))
    height, width = arr.shape
    write_file(path, (f"P5\n{width} {height}\n255\n".encode("ascii"), arr))


# -- annotations -------------------------------------------------------


def write_annotations(samples, outdir) -> None:
    """Write `thermal_NNNN.pgm`, `optical_NNNN.pgm` (unless null) and
    `annotations.json` into `outdir`, which is created if needed; each
    file goes through `files.write_file`."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, sample in enumerate(samples):
        record = {"thermal": f"thermal_{i:04d}.pgm", "optical": None}
        write_pgm(sample.thermal, outdir / record["thermal"])
        if sample.optical is not None:
            record["optical"] = f"optical_{i:04d}.pgm"
            write_pgm(sample.optical, outdir / record["optical"])
        record["boxes"] = [
            {"x0": b.x0, "y0": b.y0, "x1": b.x1, "y1": b.y1, "class": b.label}
            for b in sample.boxes
        ]
        records.append(record)
    text = json.dumps(records, indent=2) + "\n"
    write_file(outdir / "annotations.json", (text.encode("utf-8"),))


def read_annotations(path) -> list[AnnotatedSample]:
    """Load and validate an annotation file; errors carry the record index."""
    path = Path(path)
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise ValidationError(f"cannot read annotations {path}: {exc}") from exc
    if not isinstance(records, list):
        raise ValidationError("annotations must be a JSON array")
    samples = []
    for index, record in enumerate(records):
        try:
            samples.append(_parse_record(record, str(path.parent)))
        except (ThermofuseError, OSError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"annotation record {index}: {exc}") from exc
    return samples


def _parse_record(record, base: str) -> AnnotatedSample:
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    thermal_rel = record["thermal"]
    if not isinstance(thermal_rel, str):
        raise ValueError("'thermal' must be a path string")
    thermal = read_pgm(os.path.join(base, thermal_rel))
    height, width = thermal.shape

    optical_rel = record.get("optical")
    optical = None
    if optical_rel is not None:
        if not isinstance(optical_rel, str):
            raise ValueError("'optical' must be a path string or null")
        optical = read_pgm(os.path.join(base, optical_rel))
        if optical.shape != thermal.shape:
            raise ValueError(
                f"optical extent {optical.shape} differs from thermal {thermal.shape}"
            )

    boxes = []
    for j, raw in enumerate(record.get("boxes", ())):
        try:
            for key in ("x0", "y0", "x1", "y1", "class"):
                if type(raw[key]) is not int:  # rejects true, 1.9 and "7"
                    raise ValueError(f"{key!r} must be an integer, got {raw[key]!r}")
            box = RoiBox(raw["x0"], raw["y0"], raw["x1"], raw["y1"], label=raw["class"])
            box.validate(height, width)
        except (ThermofuseError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"box {j}: {exc}") from exc
        boxes.append(box)
    return AnnotatedSample(thermal, optical, boxes, name=thermal_rel)


# -- crops -------------------------------------------------------------


def random_crops(
    sample: AnnotatedSample,
    per_box: int,
    rng: np.random.Generator,
    crop_size: int,
) -> list[TrainingPair]:
    """Per box, sample `per_box` windows containing it and build pairs.

    Windows are at least crop_size x crop_size, lie inside the image, and
    fully contain the box; sizes and positions are drawn uniformly per
    dimension. The target embeds only the generating box. Boxes too large
    for any valid window are skipped with a logged warning.

    Per box, the `per_box` windows are drawn first (height, width, first
    row, first column, in that order), and then all of them are resampled
    in one `fusion.resample_windows` pass over the uint8 thermal image and
    the box's target: the pairs are bit for bit those of one
    `resize_bilinear` call per window and image, divided by 255. A
    `crop_size` below 1 raises the resampler's ShapeError.
    """
    if sample.optical is None:
        raise ValidationError(
            "unregistered sample (no optical image) cannot produce training pairs"
        )
    if per_box < 1:
        raise ValidationError(f"per_box must be positive, got {per_box}")
    thermal = as_gray8(sample.thermal)
    optical = as_gray8(sample.optical)
    if thermal.shape != optical.shape:
        raise ValidationError("sample is not registered: extents differ")
    height, width = thermal.shape

    pairs: list[TrainingPair] = []
    for box in sample.boxes:
        box.validate(height, width)
        min_h = max(crop_size, box.height)
        min_w = max(crop_size, box.width)
        if min_h > height or min_w > width:
            log.warning(
                "sample %s: box (%d,%d)-(%d,%d) does not fit a %dx%d window; skipped",
                sample.name or "<unnamed>", box.x0, box.y0, box.x1, box.y1,
                crop_size, crop_size,
            )
            continue
        target = build_training_target(thermal, optical, [box])
        # Per window: first row, first column, height, width.
        windows = np.empty((per_box, 4), dtype=np.intp)
        for k in range(per_box):
            crop_h = int(rng.integers(min_h, height + 1))
            crop_w = int(rng.integers(min_w, width + 1))
            row_lo = max(0, box.x1 - crop_h + 1)
            row_hi = min(box.x0, height - crop_h)
            col_lo = max(0, box.y1 - crop_w + 1)
            col_hi = min(box.y0, width - crop_w)
            r0 = int(rng.integers(row_lo, row_hi + 1))
            c0 = int(rng.integers(col_lo, col_hi + 1))
            windows[k] = r0, c0, crop_h, crop_w
        rows, cols = windows[:, 0::2].T, windows[:, 1::2].T
        inputs, targets = resample_windows(
            (thermal, target), rows, cols, crop_size, crop_size
        )
        inputs /= 255.0
        targets /= 255.0
        pairs.extend(map(TrainingPair, inputs, targets))
    return pairs


# -- synthetic pairs ---------------------------------------------------


def synth_pairs(n: int, extent: int, rng: np.random.Generator) -> list[AnnotatedSample]:
    """Generate registered thermal/optical samples with elliptical objects.

    Backgrounds are smooth random fields; each of 1-3 objects is an ellipse
    rendered hot in the thermal channel (levels 140-220) and dark in the
    optical channel (30-110), so annotated regions genuinely differ between
    the two. Boxes are the exact object bounding rectangles.
    """
    if n < 1:
        raise ValidationError(f"sample count must be positive, got {n}")
    if extent < 128:
        raise ValidationError(f"synthetic extent must be at least 128, got {extent}")
    samples = []
    for i in range(n):
        thermal, optical, boxes = _synth_one(extent, rng)
        samples.append(AnnotatedSample(thermal, optical, boxes, name=f"synth-{i:04d}"))
    return samples


def _smooth_field(extent: int, rng) -> np.ndarray:
    coarse = rng.random((extent // 16 + 2, extent // 16 + 2))
    return resize_bilinear(coarse, extent, extent)


def _synth_one(extent: int, rng):
    thermal = 40.0 + 60.0 * _smooth_field(extent, rng)
    optical = 150.0 - 80.0 * _smooth_field(extent, rng)
    rows_grid, cols_grid = np.mgrid[0:extent, 0:extent]
    boxes = []
    for _ in range(int(rng.integers(1, 4))):
        semi_r = int(rng.integers(8, extent // 6 + 1))
        semi_c = int(rng.integers(8, extent // 6 + 1))
        center_r = int(rng.integers(semi_r, extent - semi_r))
        center_c = int(rng.integers(semi_c, extent - semi_c))
        mask = (
            ((rows_grid - center_r) / semi_r) ** 2
            + ((cols_grid - center_c) / semi_c) ** 2
        ) <= 1.0
        thermal[mask] = float(rng.integers(140, 221))
        optical[mask] = float(rng.integers(30, 111))
        rows, cols = np.nonzero(mask)
        boxes.append(
            RoiBox(
                int(rows.min()), int(cols.min()), int(rows.max()), int(cols.max()),
                label=int(rng.integers(1, 6)),
            )
        )
    to8 = lambda img: np.clip(round_half_away(img), 0, 255).astype(np.uint8)
    return to8(thermal), to8(optical), boxes
