"""thermofuse benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload train_toy --seed 1 --seconds 18 --trace 0

Generates the workload's inputs from --seed, times the program's set-up
several times (median reported), runs one reference op in the other
tracing mode, then runs ops back to back for --seconds and checks every
op's outputs. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Everything else goes
to standard error. The traced run also writes its spans and a per-span
summary to bench/out/.

BLAS and OpenMP are pinned to one thread (THERMOFUSE_THREADS=1) before
numpy loads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

os.environ["THERMOFUSE_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

END_TO_END = {
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> span it sums (per op; set-up-only spans per set-up).
SPAN_METRICS = {
    "nn.conv.fwd_ms": "nn.conv.fwd",
    "nn.conv.bwd_ms": "nn.conv.bwd",
    "nn.conv_transpose.fwd_ms": "nn.conv_transpose.fwd",
    "nn.conv_transpose.bwd_ms": "nn.conv_transpose.bwd",
    "nn.batchnorm.fwd_ms": "nn.batchnorm.fwd",
    "nn.batchnorm.bwd_ms": "nn.batchnorm.bwd",
    "nn.activation.fwd_ms": "nn.activation.fwd",
    "nn.activation.bwd_ms": "nn.activation.bwd",
    "nn.dropout.fwd_ms": "nn.dropout.fwd",
    "nn.dropout.bwd_ms": "nn.dropout.bwd",
    "nn.logcosh.ms": "nn.logcosh",
    "nn.adam.ms": "nn.adam",
    "model.forward.ms": "model.forward",
    "model.backward.ms": "model.backward",
    "model.gradients.ms": "model.gradients",
    "model.build_model.ms": "model.build_model",
    "model.load_weights.ms": "model.load_weights",
    "model.read_weights_file.ms": "model.read_weights_file",
    "tensor.concat.ms": "tensor.concat",
    "training.train_from_pairs.ms": "training.train_from_pairs",
    "datakit.read_annotations.ms": "datakit.read_annotations",
    "datakit.random_crops.ms": "datakit.random_crops",
    "datakit.read_pgm.ms": "datakit.read_pgm",
    "datakit.write_pgm.ms": "datakit.write_pgm",
    "fusion.compute_mask.ms": "fusion.compute_mask",
    "fusion.to_uint8.ms": "fusion.to_uint8",
    "fusion.average_fuse.ms": "fusion.average_fuse",
    "fusion.histogram_equalize.ms": "fusion.histogram_equalize",
    "fusion.resize_bilinear.ms": "fusion.resize_bilinear",
    "rof.compute_rof.ms": "rof.compute_rof",
    "metrics.score_triple.ms": "metrics.score_triple",
    "metrics.ssim.ms": "metrics.ssim",
    "wavelet.dwt2_forward.ms": "wavelet.dwt2_forward",
    "wavelet.dwt2_inverse.ms": "wavelet.dwt2_inverse",
    "wavelet.write_coeff_plane.ms": "wavelet.write_coeff_plane",
}

# Per-layer metrics computed outside SPAN_METRICS: name -> unit. Those a
# workload does not exercise read 0.
OTHER_METRICS = {
    "training.self_ms": "ms",
    "nn.conv.gflop": "GFLOP",
    "nn.adam.gbytes": "GB",
    "tensor.concat.calls": "count",
    "rof.strips_removed": "count",
    "training.final_loss": "loss",
    "model.forward.rss_delta_mb": "MB",
    **{f"model.section.{s}.fwd_ms": "ms" for s in ("inp", "ll1", "ll2", "detail", "op2")},
    "model.block.op2_9.fwd_ms": "ms",
    "model.block.ll1_blk3.fwd_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.overhead_pct": "%",
    "trace.op_ms_p50": "ms",
}


def conv_gflop(args, result) -> float:
    """2 n oh ow 9 c_in c_out of a stride-1/2 convolution's output grid."""
    n, oh, ow, c_out = result.shape
    return 2.0 * n * oh * ow * 9 * args[1].shape[-1] * c_out / 1e9


def conv_transpose_gflop(args, result) -> float:
    """Same count on the input grid: the grid of the convolution it is the
    adjoint of, which is where its multiply-adds happen."""
    n, h, w, c_in = args[1].shape
    return 2.0 * n * h * w * 9 * c_in * result.shape[-1] / 1e9


def adam_gbytes(args, result) -> float:
    """7 float64 accesses per parameter per step: read p, g, m, v; write p, m, v."""
    return 7 * 8 * sum(p.size for p in args[1].values()) / 1e9


def lookup(path: str):
    """The object at "module:attr.attr", or None if any part of it is gone."""
    module, _, attrs = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for attr in filter(None, attrs.split(".")):
        obj = getattr(obj, attr, None)
    return obj


def instrument(tracer) -> None:
    """Wrap every public entry point at the attribute its caller looks up.

    Owners are looked up by name, so a module or class that has been renamed
    or removed is reported as absent and the run goes on.
    """

    def wrap(owner: str, attr: str, name: str, counter=None) -> None:
        obj = lookup(owner)
        if obj is None:
            tracer.mark_absent(f"{owner}.{attr}")
        else:
            tracer.wrap(obj, attr, name, counter=counter)

    layers = "thermofuse.nn.layers:"
    for cls, span in (("Conv2DLayer", "nn.conv"),
                      ("Conv2DTransposeLayer", "nn.conv_transpose"),
                      ("BatchNormLayer", "nn.batchnorm"),
                      ("ReLULayer", "nn.activation"),
                      ("LeakyReLULayer", "nn.activation"),
                      ("SigmoidLayer", "nn.activation"),
                      ("DropoutLayer", "nn.dropout")):
        flops = {"nn.conv": conv_gflop, "nn.conv_transpose": conv_transpose_gflop}.get(span)
        wrap(layers + cls, "forward", f"{span}.fwd",
             counter=("nn.conv.gflop", flops) if flops else None)
        wrap(layers + cls, "backward", f"{span}.bwd")
    wrap("thermofuse.training", "logcosh_loss", "nn.logcosh")
    wrap("thermofuse.nn.optim:Adam", "step", "nn.adam",
         counter=("nn.adam.gbytes", adam_gbytes))
    for attr in ("forward", "backward", "gradients"):
        wrap("thermofuse.model:Model", attr, f"model.{attr}")
    wrap("thermofuse.training", "build_model", "model.build_model")
    wrap("thermofuse.model", "build_model", "model.build_model")
    wrap("thermofuse.model", "load_weights", "model.load_weights")
    wrap("thermofuse.model", "read_weights_file", "model.read_weights_file")
    wrap("thermofuse.tensor", "concat", "tensor.concat")
    wrap("thermofuse.training", "train_from_pairs", "training.train_from_pairs")
    for attr in ("read_annotations", "random_crops", "read_pgm", "write_pgm"):
        wrap("thermofuse.datakit", attr, f"datakit.{attr}")
    for attr in ("compute_mask", "to_uint8", "average_fuse", "histogram_equalize",
                 "resize_bilinear"):
        wrap("thermofuse.fusion", attr, f"fusion.{attr}")
    wrap("thermofuse.datakit", "resize_bilinear", "fusion.resize_bilinear")
    wrap("thermofuse.rof", "compute_rof", "rof.compute_rof")
    wrap("thermofuse.metrics", "score_triple", "metrics.score_triple")
    wrap("thermofuse.metrics", "ssim", "metrics.ssim")
    wrap("thermofuse.rof", "_ssim", "metrics.ssim")  # the region measure's SSIM calls
    for attr in ("dwt2_forward", "dwt2_inverse", "write_coeff_plane"):
        wrap("thermofuse.wavelet", attr, f"wavelet.{attr}")


def per_layer(tracer, loop_ops, setup_ops, span_cost_s, op_ms_p50) -> dict:
    """Per-layer values from the traced run's spans and computed counts.

    `setup_ops` maps each set-up sample's op id to the set-ups it ran.
    """
    totals = tracer.totals()

    def per_unit(by_op: dict) -> float:
        loop = [by_op.get(op, 0.0) for op in loop_ops]
        if any(loop):
            return sum(loop) / len(loop)
        setup = sum(by_op.get(op, 0.0) for op in setup_ops)
        return setup / sum(setup_ops.values()) if setup_ops else 0.0

    ops = set(loop_ops)

    def loop_calls(name: str) -> int:
        return sum(1 for s in tracer.spans if s[0] == name and s[4] in ops)

    def loop_sum(by_op: dict) -> float:
        return sum(by_op.get(op, 0.0) for op in loop_ops)

    out = {m: 1e3 * per_unit(totals.get(span, {})) for m, span in SPAN_METRICS.items()}
    out["training.self_ms"] = 1e3 * per_unit(
        tracer.totals(self_time=True).get("training.train_from_pairs", {}))
    forwards = loop_calls("model.forward")
    out["nn.conv.gflop"] = loop_sum(tracer.counts["nn.conv.gflop"]) / forwards if forwards else 0.0
    steps = loop_calls("nn.adam")
    out["nn.adam.gbytes"] = loop_sum(tracer.counts["nn.adam.gbytes"]) / steps if steps else 0.0
    out["tensor.concat.calls"] = loop_calls("tensor.concat") / len(loop_ops)
    spans_per_op = sum(1 for s in tracer.spans if s[4] in ops) / len(loop_ops)
    out["trace.spans_per_op"] = spans_per_op
    # Computed: spans per op times the measured cost of one span.
    out["trace.overhead_pct"] = 100.0 * spans_per_op * span_cost_s * 1e3 / op_ms_p50
    # Measured: compare with op_ms_p50 of an untraced run.
    out["trace.op_ms_p50"] = op_ms_p50
    return out


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(ram / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": os.environ["THERMOFUSE_THREADS"],
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thermofuse" / "__init__.py").is_file():
        print(f"thermofuse sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return run(args, work, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, make) -> int:
    from thermofuse import ThermofuseError
    from tracer import Tracer, span_cost_s
    from workloads import CheckFailed, require

    log = lambda *a: print(*a, file=sys.stderr, flush=True)  # noqa: E731
    info = machine()
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace} machine {info}")
    wl = make(work, args.seed)

    tracer = Tracer() if args.trace else None
    if tracer:
        instrument(tracer)
    attempted = failed = 0
    setup_s: list[float] = []
    setup_ops: dict[str, int] = {}

    def timed_setup() -> None:
        """One set-up sample: set-ups back to back for at least the
        workload's setup_window_s, timed together. A sample then averages
        over the machine's short bursts of load, which otherwise split
        single set-up times into a fast and a slow group."""
        op_id = f"setup-{len(setup_s)}"
        if tracer:
            tracer.op = op_id
        count = 0
        start = time.perf_counter()
        while True:
            wl.setup()
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= wl.setup_window_s:
                break
        setup_s.append(elapsed / count)
        setup_ops[op_id] = count

    try:
        for _ in range(wl.setup_reps):
            timed_setup()

        # Reference op in the other tracing mode; also the warm-up.
        if tracer:
            tracer.restore()
            reference = wl.op(0)[1]
            instrument(tracer)
            tracer.wrap(wl, "op", "bench.op")  # root span of each timed op
        else:
            ref_tracer = Tracer()
            instrument(ref_tracer)
            try:
                reference = wl.op(0)[1]
            finally:
                ref_tracer.restore()
        wl.check(0, reference, reference=True)

        seen: dict = {}
        ops_s: list[float] = []
        loop_ops: list[str] = []
        items = 0
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < args.seconds:
            index = attempted
            attempted += 1
            op_id = f"op-{index}"
            try:
                if tracer:
                    tracer.op = op_id
                start = time.perf_counter()
                done, outcome = wl.op(index)
                elapsed = time.perf_counter() - start
            except CheckFailed:
                raise
            except Exception as exc:  # an op that raises counts as failed, not slow
                failed += 1
                log(f"op {index} failed: {type(exc).__name__}: {exc}")
                continue
            wl.check(index, outcome)
            fp = wl.fingerprint(outcome)
            key = wl.key(index)
            require(seen.setdefault(key, fp) == fp,
                    f"op {index} output differs from an earlier op on the same input")
            ops_s.append(elapsed)
            loop_ops.append(op_id)
            items += done
            # Set-ups spread over the run, so that one slow or fast moment
            # of the machine does not set their median.
            for _ in range(wl.setups_per_op):
                timed_setup()
        require(ops_s, "no op completed")
        require(wl.fingerprint(reference) == seen.get(wl.key(0)),
                "traced and untraced runs of the same input differ")
    except CheckFailed as exc:
        log(f"correctness check failed: {exc}")
        emit(False, max(attempted, 1), failed, {}, {})
        return 1
    finally:
        if tracer:
            tracer.restore()

    op_ms_p50 = 1e3 * statistics.median(ops_s)
    log(f"{len(ops_s)} ops in {sum(ops_s):.2f} s; {sum(setup_ops.values())} set-ups "
        f"in {len(setup_s)} samples")
    if tracer:
        metrics = per_layer(tracer, loop_ops, setup_ops, span_cost_s(), op_ms_p50)
        metrics.update(wl.extra_metrics(outcome))
        if hasattr(wl, "probe"):
            try:
                metrics.update(wl.probe())
            except (AttributeError, ThermofuseError) as exc:  # model internals reshaped
                tracer.absent.append(f"block probe: {exc}")
        units = {m: "ms" for m in SPAN_METRICS} | OTHER_METRICS
        metrics = {m: float(metrics.get(m, 0.0)) for m in units}
        tracer.write(OUT / f"spans_{args.workload}.jsonl.gz",
                     OUT / f"trace_{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed, "machine": info,
                      "ops": len(loop_ops), "metrics": metrics})
        if tracer.absent:
            log(f"absent entry points: {', '.join(tracer.absent)}")
    else:
        units = END_TO_END
        metrics = {
            "items_per_s": items / sum(ops_s),
            "op_ms_p50": op_ms_p50,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for name, value in metrics.items():
        log(f"  {name:<32} {value:>14.6g} {units[name]}")
    emit(True, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
