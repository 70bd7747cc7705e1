"""The four benchmark workloads and the correctness checks on their outputs.

Each workload generates its inputs from the workload seed (synthetic
pairs written as PGM files plus an annotation file, and for inference a
seeded weights file), so the program sees only files. `setup` is the
program's own preparation, timed and repeated; `op` is one closed-loop
item (one training run, or one image's whole chain); `check` verifies an
op's outputs without being timed; `fingerprint` is what must be identical
whenever the same item is run again, traced or not.

Why these four: `train_toy` is dominated by per-call overhead in the nn
layers, the graph walk and Adam's per-tensor loop; `train_published` by
large GEMMs and Adam's memory traffic; `infer_pipeline` is the read-only
use of the same layers plus fusion, and should not move when only
post-processing changes; `postprocess` runs no model at all and is where
`rof`, `metrics` and `wavelet` are measured.
"""

from __future__ import annotations

import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from thermofuse import datakit, fusion, metrics, model, rof, training, wavelet


class CheckFailed(Exception):
    """An output failed a correctness check; the whole run fails."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def write_dataset(samples, outdir: Path) -> Path:
    """PGM pairs plus annotations.json, the layout `thermofuse synth` writes."""
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, sample in enumerate(samples):
        thermal, optical = f"thermal_{i:04d}.pgm", f"optical_{i:04d}.pgm"
        datakit.write_pgm(sample.thermal, outdir / thermal)
        datakit.write_pgm(sample.optical, outdir / optical)
        records.append({
            "thermal": thermal,
            "optical": optical,
            "boxes": [
                {"x0": b.x0, "y0": b.y0, "x1": b.x1, "y1": b.y1, "class": b.label}
                for b in sample.boxes
            ],
        })
    path = outdir / "annotations.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- checks shared by the image workloads ------------------------------


def check_average(thermal, other, avg) -> None:
    expected = (thermal.astype(np.int64) + other + 1) // 2
    require(np.array_equal(avg, expected), "average_fuse differs from (T + M + 1) // 2")


def check_equalized(before, after) -> None:
    """Equalization is one non-decreasing map of gray levels."""
    require(after.shape == before.shape and after.dtype == np.uint8,
            "histogram_equalize changed the image shape or dtype")
    order = np.argsort(before.ravel(), kind="stable")
    src, dst = before.ravel()[order], after.ravel()[order].astype(np.int64)
    require(np.all(np.diff(dst) >= 0), "histogram_equalize map is not monotone")
    same_level = np.diff(src.astype(np.int64)) == 0
    require(np.all(np.diff(dst)[same_level] == 0), "histogram_equalize map is not a function")


def check_box(box, shape) -> None:
    rows, cols = shape
    require(0 <= box.x1 <= box.x2 < rows and 0 <= box.y1 <= box.y2 < cols,
            f"rof box {box.text_line()} outside the {rows}x{cols} image")


def check_scores(a, b, score) -> None:
    diff = a.astype(np.float64) - b
    require(score.mse == float(np.mean(diff * diff)), "mse differs from the direct mean")
    require(-1.0 <= score.ssim <= 1.0, f"ssim {score.ssim} outside [-1, 1]")
    require(0.0 <= score.cossim <= 1.0 + 1e-12, f"cossim {score.cossim} outside [0, 1]")


def strips_removed(box, shape) -> int:
    rows, cols = shape
    return (rows - (box.x2 - box.x1 + 1)) + (cols - (box.y2 - box.y1 + 1))


# -- workloads ---------------------------------------------------------


class Train:
    """read_annotations -> random_crops (set-up), then train_from_pairs per op.

    Every sample holds at least one box, so `samples` >= pairs / per_box.
    """

    # Set-up samples: `setup_reps` before the loop and `setups_per_op` after
    # every op, each timing set-ups back to back for `setup_window_s`.
    def __init__(self, work: Path, seed: int, *, extent, samples, per_box, crop,
                 pairs, dwf, batch, epochs, setup_reps, setups_per_op, setup_window_s):
        self.seed = seed
        self.setup_reps, self.setups_per_op = setup_reps, setups_per_op
        self.setup_window_s = setup_window_s
        self.per_box, self.crop, self.pair_count = per_box, crop, pairs
        self.cfg = model.ModelConfig(dwf=dwf, height=crop, width=crop)
        self.batch, self.epochs = batch, epochs
        rng = np.random.default_rng(seed)
        self.annotations = write_dataset(datakit.synth_pairs(samples, extent, rng), work / "data")
        self.pairs = None

    def setup(self) -> None:
        samples = datakit.read_annotations(self.annotations)
        # One random_crops call per box, on the first pairs / per_box boxes
        # in file order, so that the set-up's work does not depend on how
        # the seed spread the boxes over the samples.
        boxes = [datakit.AnnotatedSample(s.thermal, s.optical, [b], name=s.name)
                 for s in samples for b in s.boxes][: self.pair_count // self.per_box]
        # Same seeding scheme as `thermofuse train`: stream 3 feeds the crops.
        crop_root = np.random.SeedSequence(self.seed).spawn(4)[3]
        pairs = []
        for sample, child in zip(boxes, crop_root.spawn(len(boxes))):
            pairs.extend(datakit.random_crops(
                sample, per_box=self.per_box, rng=np.random.default_rng(child),
                crop_size=self.crop,
            ))
        require(len(pairs) == self.pair_count,
                f"{len(pairs)} training pairs, need {self.pair_count}")
        self.pairs = pairs

    def op(self, index: int):
        _, losses = training.train_from_pairs(
            self.cfg, self.pairs, epochs=self.epochs, batch_size=self.batch, seed=self.seed,
        )
        return self.pair_count * self.epochs, losses

    def key(self, index: int) -> int:
        return 0  # every op trains the same pairs from the same seed

    def check(self, index: int, losses, reference: bool = False) -> None:
        require(len(losses) == self.epochs, f"{len(losses)} epoch losses, want {self.epochs}")
        require(all(np.isfinite(losses)), f"non-finite training loss in {losses}")

    def fingerprint(self, losses):
        return tuple(float(v).hex() for v in losses)

    def extra_metrics(self, losses) -> dict:
        return {"training.final_loss": float(losses[-1])}


class InferPipeline:
    """load_weights (set-up), then per 256^2 thermal image read_pgm ->
    compute_mask -> to_uint8 -> average_fuse -> histogram_equalize ->
    compute_rof(ssd) -> score_triple -> write_pgm."""

    # One load before the loop and one after every op, so that the loads
    # are spread over the run like the ops. A load takes 0.5-0.9 s, long
    # enough to be a sample on its own.
    setup_reps = 1
    setups_per_op = 1
    setup_window_s = 0.0
    images = 4
    extent = 256

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        data = work / "data"
        data.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for i, sample in enumerate(datakit.synth_pairs(self.images, self.extent, rng)):
            path = data / f"thermal_{i:04d}.pgm"
            datakit.write_pgm(sample.thermal, path)
            self.inputs.append(path)
        self.weights = work / "model.tofw"
        model.save_weights(model.build_model(model.ModelConfig(dwf=4), seed=seed), self.weights)
        self.outdir = work / "out"
        self.outdir.mkdir()
        self.model = None
        self.strips: dict[int, int] = {}

    def setup(self) -> None:
        self.model = None  # drop the previous copy before loading the next
        self.model = model.load_weights(self.weights, extents=(self.extent, self.extent))

    def op(self, index: int):
        k = self.key(index)
        thermal = datakit.read_pgm(self.inputs[k])
        unit_mask = fusion.compute_mask(self.model, thermal)
        mask = fusion.to_uint8(unit_mask)
        avg = fusion.average_fuse(thermal, mask)
        fused = fusion.histogram_equalize(avg)
        box = rof.compute_rof(thermal, fused, metric="ssd")
        score = metrics.score_triple(thermal, fused)
        out = self.outdir / f"fused_{k:04d}.pgm"
        datakit.write_pgm(fused, out)
        return 1, dict(thermal=thermal, unit_mask=unit_mask, mask=mask, avg=avg,
                       fused=fused, box=box, score=score, out=out)

    def key(self, index: int) -> int:
        return index % self.images

    def check(self, index: int, o, reference: bool = False) -> None:
        t = o["thermal"]
        require(np.all(np.isfinite(o["unit_mask"])), "non-finite mask value")
        require(o["unit_mask"].min() >= 0.0 and o["unit_mask"].max() <= 1.0,
                "mask outside [0, 1]")
        require(o["mask"].shape == t.shape and o["mask"].dtype == np.uint8, "bad 8-bit mask")
        check_average(t, o["mask"], o["avg"])
        check_equalized(o["avg"], o["fused"])
        check_box(o["box"], t.shape)
        check_scores(t, o["fused"], o["score"])
        written = o["out"].read_bytes()
        require(written.endswith(o["fused"].tobytes()), "written PGM differs from the fused image")
        if reference:
            slow = rof.compute_rof(t, o["fused"], metric="ssd", use_integral=False)
            require(slow == o["box"], "rof summed-area box differs from direct summation")
        self.strips[self.key(index)] = strips_removed(o["box"], t.shape)

    def fingerprint(self, o):
        s = o["score"]
        return (digest(o["mask"]), o["box"].text_line(), s.ssim, s.cossim, s.mse)

    def extra_metrics(self, o) -> dict:
        return {"rof.strips_removed": float(np.mean(list(self.strips.values())))}

    def probe(self) -> dict:
        """The allocation peak of one whole eval forward pass, then the
        eval-mode forward of every block on its input cached by that pass,
        summed per section."""
        unit = datakit.read_pgm(self.inputs[0]).astype(np.float64) / 255.0
        tracemalloc.start()
        try:
            self.model.forward(unit, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sections = dict.fromkeys(("inp", "ll1", "ll2", "detail", "op2"), 0.0)
        blocks = {"op2_9": 0.0, "ll1_blk3": 0.0}
        for node in self.model.nodes:
            if node.block is None:
                continue
            x = self.model.activation(node.inputs[0])
            start = time.perf_counter()
            node.block.forward(x, training=False)
            elapsed = 1e3 * (time.perf_counter() - start)
            sections[section_of(node.name)] += elapsed
            if node.name in blocks:
                blocks[node.name] = elapsed
        out = {f"model.section.{s}.fwd_ms": v for s, v in sections.items()}
        out.update({f"model.block.{b}.fwd_ms": v for b, v in blocks.items()})
        out["model.forward.rss_delta_mb"] = peak / 2**20
        return out


def section_of(block: str) -> str:
    if block == "inp" or (block[0] == "d" and block[1:].isdigit()):
        return "inp"
    if block.startswith(("ll1_", "ll2_")):
        return block[:3]
    if block.startswith(("hl", "lh", "hh")):
        return "detail"
    return "op2"  # op2_* and the final output block


class Postprocess:
    """No model. Per 128^2 thermal/optical pair (optical standing in for the
    mask): average_fuse -> histogram_equalize -> compute_rof(ssim) ->
    score_triple, then the `dwt` command's dwt2_forward(levels=2) ->
    dwt2_inverse -> write_coeff_plane. Set-up is read_annotations."""

    # A set-up is 2 ms: samples of 50 ms, four before the loop and one
    # after every op.
    setup_reps = 4
    setups_per_op = 1
    setup_window_s = 0.05
    pairs = 16
    extent = 128

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.annotations = write_dataset(datakit.synth_pairs(self.pairs, self.extent, rng),
                                         work / "data")
        self.outdir = work / "out"
        self.outdir.mkdir()
        self.samples = None
        self.strips: dict[int, int] = {}

    def setup(self) -> None:
        self.samples = datakit.read_annotations(self.annotations)

    def op(self, index: int):
        k = self.key(index)
        sample = self.samples[k]
        thermal, optical = sample.thermal, sample.optical
        avg = fusion.average_fuse(thermal, optical)
        fused = fusion.histogram_equalize(avg)
        box = rof.compute_rof(thermal, fused, metric="ssim")
        score = metrics.score_triple(thermal, fused)
        unit = fused / 255.0
        pyramid = wavelet.dwt2_forward(unit, levels=2)
        back = wavelet.dwt2_inverse(pyramid)
        planes = {"ll2": pyramid.ll}
        for level in (2, 1):
            bands = pyramid.details[level - 1]
            planes.update({f"lh{level}": bands.lh, f"hl{level}": bands.hl,
                           f"hh{level}": bands.hh})
        paths = {}
        for name, plane in planes.items():
            paths[name] = self.outdir / f"{k:04d}_{name}.coef"
            wavelet.write_coeff_plane(plane, paths[name])
        return 1, dict(thermal=thermal, optical=optical, avg=avg, fused=fused, box=box,
                       score=score, unit=unit, back=back, planes=planes, paths=paths)

    def key(self, index: int) -> int:
        return index % self.pairs

    def check(self, index: int, o, reference: bool = False) -> None:
        t = o["thermal"]
        check_average(t, o["optical"], o["avg"])
        check_equalized(o["avg"], o["fused"])
        check_box(o["box"], t.shape)
        check_scores(t, o["fused"], o["score"])
        err = float(np.abs(o["back"] - o["unit"]).max())
        require(err < 1e-9, f"dwt round-trip error {err:.3e} >= 1e-9")
        for name, plane in o["planes"].items():
            size = o["paths"][name].stat().st_size
            require(size == 8 + 8 * plane.size, f"coefficient file {name} has {size} bytes")
        self.strips[self.key(index)] = strips_removed(o["box"], t.shape)

    def fingerprint(self, o):
        s = o["score"]
        return (o["box"].text_line(), s.ssim, s.cossim, s.mse,
                digest(*o["planes"].values()))

    def extra_metrics(self, o) -> dict:
        return {"rof.strips_removed": float(np.mean(list(self.strips.values())))}


WORKLOADS = {
    # Acceptance criterion 6's configuration: small arrays, per-call overhead.
    "train_toy": lambda work, seed: Train(
        work, seed, extent=128, samples=8, per_box=8, crop=32, pairs=64,
        dwf=1, batch=8, epochs=1, setup_reps=2, setups_per_op=1, setup_window_s=0.2),
    # Published configuration (44.4 M parameters); batch 2 keeps peak RSS
    # near 2.4 GB. 192^2 images make the 128^2 crops real resampled windows.
    # About three ops fit in a run, so more set-up samples per op.
    "train_published": lambda work, seed: Train(
        work, seed, extent=192, samples=4, per_box=1, crop=128, pairs=4,
        dwf=4, batch=2, epochs=1, setup_reps=4, setups_per_op=2, setup_window_s=0.25),
    "infer_pipeline": InferPipeline,
    "postprocess": Postprocess,
}
