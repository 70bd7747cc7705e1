"""Wavelet-structured encoder/decoder network: builder, runner, weights file.

The architecture has three sections. An input encoder/decoder compresses the
thermal image through five stride-2 stages and decodes back to half
resolution. A wavelet-layout section slices that tensor into four planes,
pushes the approximation plane through chains of ReLU blocks (two rounds,
mirroring a two-level DWT), runs each detail plane through a small
encoder/decoder, and tiles all outputs into the classic quadrant layout at
full resolution (`op1`). An output encoder/decoder then refines `op1` with
skip concatenations from the four input-encoder stages and ends in a
single-channel stride-1 convolution with sigmoid activation.

Blocks follow a fixed internal order: convolution, activation, then optional
batch normalization and optional dropout. Detail/encoder blocks use leaky
ReLU; the approximation ("LL") blocks use plain ReLU, matching the
non-negative range of repeated approximation filtering.

Weights serialize to a small tagged binary format ("TOFW"): 32-bit float
payloads with explicit names and extents, so a save/load/save round trip is
byte-identical.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError, StateError
from .nn.layers import (
    BatchNormLayer,
    Conv2DLayer,
    Conv2DTransposeLayer,
    DropoutLayer,
    LeakyReLULayer,
    ReLULayer,
    SigmoidLayer,
)

# Planes produced by slicing one DWT stage: approximation plus three details.
# Equals the base filter count dwf at the published dwf=4; kept fixed so the
# slice stages stay well-formed for other dwf values.
SUBBANDS = 4

WEIGHTS_MAGIC = b"TOFW"
WEIGHTS_VERSION = 1

# Block kind -> (convolution stride, None for the stride-2 transpose
# convolution; activation layer).
_BLOCK_KINDS = {
    "same": (1, LeakyReLULayer),
    "half": (2, LeakyReLULayer),
    "double": (None, LeakyReLULayer),
    "ll": (1, ReLULayer),
    "final": (1, SigmoidLayer),
}


@dataclass(frozen=True)
class ModelConfig:
    """Build-time knobs: base filter count, input extents and dtype.

    Spatial extents must be positive multiples of 32 so the five stride-2
    encoder stages and the quarter-resolution tiling all land on whole
    pixels. `dtype` (float32 or float64) is what the parameters are stored
    in and every layer computes in; it is kept as a `np.dtype`.
    """

    dwf: int = 4
    height: int = 128
    width: int = 128
    dtype: np.dtype = np.dtype(np.float32)

    def __post_init__(self):
        try:
            dtype = np.dtype(self.dtype)
        except TypeError:
            dtype = None
        # np.dtype(None) is float64, so None is refused by name.
        if self.dtype is None or dtype not in (np.float32, np.float64):
            raise ShapeError(f"dtype must be float32 or float64, got {self.dtype!r}")
        object.__setattr__(self, "dtype", dtype)
        if self.dwf < 1:
            raise ShapeError(f"dwf must be >= 1, got {self.dwf}")
        for label, extent in (("height", self.height), ("width", self.width)):
            if extent < 32 or extent % 32:
                raise ShapeError(
                    f"{label} must be a positive multiple of 32, got {extent}"
                )


class Block:
    """One named network block: conv, activation, optional batchnorm/dropout.

    `kind` picks the convolution and activation: "same" / "half" / "double"
    are stride-1 conv / stride-2 conv / stride-2 transpose conv with leaky
    ReLU, "ll" is a stride-1 conv with plain ReLU, and "final" is a stride-1
    conv with sigmoid. `layers` runs in that order; `conv` and `bn` (None
    without normalization) are the layers that hold state, in `dtype`.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        in_channels: int,
        filters: int,
        rng=None,
        dropout: bool = True,
        normalization: bool = True,
        dtype=np.float64,
    ):
        if kind not in _BLOCK_KINDS:
            raise ShapeError(f"unknown block kind {kind!r}")
        stride, activation = _BLOCK_KINDS[kind]
        self.name = name
        if stride is None:
            self.conv = Conv2DTransposeLayer(in_channels, filters, rng, dtype)
        else:
            self.conv = Conv2DLayer(in_channels, filters, stride, rng, dtype)
        self.bn = BatchNormLayer(filters, dtype) if normalization else None
        self.layers = [self.conv, activation()]
        if self.bn is not None:
            self.layers.append(self.bn)
        if dropout:
            self.layers.append(DropoutLayer())

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        """Run the layers in order. Without gradients nothing else holds the
        convolution's fresh output, so the layers after it overwrite that
        array instead of allocating their own; `x` itself is never written."""
        y = self.conv.forward(x, training=training, rng=rng, grad=grad)
        for layer in self.layers[1:]:
            y = layer.forward(
                y, training=training, rng=rng, grad=grad, in_place=not grad
            )
        return y

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def drop_caches(self) -> None:
        """Let go of every layer's backward cache: for a forward that does
        not run this block, so no cache of an earlier pass outlives it."""
        for layer in self.layers:
            for attr in ("_cache", "_mask", "_out"):
                if hasattr(layer, attr):
                    setattr(layer, attr, None)

    def stores(self):
        """Yield ('<node>/conv', conv) and ('<node>/bn', bn): the layers
        whose arrays make up the model's state, under their name prefix."""
        yield f"{self.name}/conv", self.conv
        if self.bn is not None:
            yield f"{self.name}/bn", self.bn


@dataclass
class Node:
    """One graph node: an input feed, a block, a channel slice or a concat."""

    name: str
    op: str  # "input" | "block" | "slice" | "concat"
    inputs: tuple[str, ...] = ()
    block: Block | None = None
    channel: int = 0  # slice: source channel index
    axis: int = 0  # concat: 1 = rows, 2 = columns, 3 = channels
    table_label: str | None = field(default=None, repr=False)


class Model:
    """Executable graph: ordered nodes, shared parameter store, audit trail.

    `forward` accepts a single image (h, w) / (h, w, 1) or a batch
    (n, h, w, 1) and returns the mask with matching rank. After a forward
    pass `last_audit` holds (label, extent) for every labelled node and
    `activation(name)` exposes cached intermediates; `backward` then
    accumulates parameter gradients, handling the skip and tiling fan-out.

    One `backward` runs per `grad=True` forward, and it consumes that
    forward's cache: each layer drops its own cache as it runs, and each
    node's output is dropped as soon as the earliest of its consumers (in
    forward order) has run its backward, so nothing is cached when
    `backward` returns. `activation` and a second `backward` then raise
    StateError. A `backward` given a gradient of the wrong shape raises
    ShapeError before it drops anything. A forward with `overrides` caches
    its activations, but its `backward` raises StateError naming the
    injected nodes before any layer runs: their blocks did not run in that
    pass, and their layers drop any cache an earlier pass left.
    `gradients()` hands the gradients over: the layers let go of them, so
    they live only as long as the caller keeps the dict, and a second call
    raises StateError until the next `backward`.

    `forward(..., grad=False)` is the gradient-free pass for inference: it
    returns the same output bit for bit and fills `last_audit`, but no
    layer keeps a backward cache, each block's later layers overwrite its
    convolution's output instead of allocating (the input is never
    written), each node's output is dropped as soon as its last consumer
    has run, and the cache of any earlier pass is
    cleared, so `activation` and `backward` raise StateError until the
    next `grad=True` forward. `grad` is independent of `training`.

    The input, any overrides and the gradient given to `backward` are cast
    to `cfg.dtype`, the dtype every layer computes in.
    """

    def __init__(self, cfg: ModelConfig, nodes: list[Node]):
        self.cfg = cfg
        self.nodes = nodes
        seen: set[str] = set()
        for node in nodes:
            if node.name in seen:
                raise StateError(f"duplicate node name {node.name!r}")
            seen.add(node.name)
        # (name prefix, layer) for every stateful layer, in graph order.
        self._stores = [s for node in nodes if node.block for s in node.block.stores()]
        self._params = self._named("params")
        # Node name -> names of the inputs it is the last consumer of, for
        # the gradient-free forward.
        self._frees: dict[str, list[str]] = {}
        last_consumer = {src: node.name for node in nodes for src in node.inputs}
        for src, consumer in last_consumer.items():
            self._frees.setdefault(consumer, []).append(src)
        # Node name -> cached outputs that no backward step after its own
        # reads: those of the inputs it is the first consumer of, and its own
        # if nothing consumes it.
        self._releases: dict[str, list[str]] = {}
        first_consumer = {src: node.name for node in reversed(nodes) for src in node.inputs}
        for node in nodes:
            consumer = first_consumer.get(node.name, node.name)
            self._releases.setdefault(consumer, []).append(node.name)
        self._cache: dict[str, np.ndarray] = {}
        # Nodes whose output the last forward took from `overrides`.
        self._injected: list[str] = []
        self.last_audit: list[tuple[str, tuple[int, ...]]] = []

    # -- introspection -------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by '<node>/<layer>/<tensor>'."""
        return self._params

    def gradients(self) -> dict[str, np.ndarray]:
        """The last backward pass's gradients, keyed like `parameters`,
        handed over: the layers let go of them (see the class docstring)."""
        grads = self._named("grads")
        if len(grads) != len(self._params):
            raise StateError("gradients need a backward pass since they were last taken")
        for _, layer in self._stores:
            layer.grads = {}
        return grads

    def state_items(self) -> list[tuple[str, np.ndarray]]:
        """Parameters plus batchnorm running statistics, in graph order."""
        return list(self._named("params", "buffers").items())

    def _named(self, *attrs: str) -> dict[str, np.ndarray]:
        """'<prefix>/<key>' -> array from the `attrs` dicts of every stateful
        layer, layer by layer (a convolution has no `buffers`)."""
        return {
            f"{prefix}/{key}": arr
            for prefix, layer in self._stores
            for attr in attrs
            for key, arr in getattr(layer, attr, {}).items()
        }

    def activation(self, name: str) -> np.ndarray:
        if name not in self._cache:
            raise StateError(
                f"no cached activation for {name!r}; run forward with grad=True first"
            )
        return self._cache[name]

    # -- execution -----------------------------------------------------

    def _to_batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=self.cfg.dtype)
        if x.ndim not in (2, 3, 4):
            raise ShapeError(f"expected an image or image batch, got shape {x.shape}")
        x = _batched(x)
        n, h, w, c = x.shape
        if (h, w) != (self.cfg.height, self.cfg.width) or c != 1:
            raise ShapeError(
                f"input must be {self.cfg.height}x{self.cfg.width}x1, "
                f"got {h}x{w}x{c}"
            )
        return x

    def forward(
        self, x, training: bool = False, rng=None, overrides=None,
        grad: bool = True,
    ):
        """Run the graph; `overrides` maps node names to injected outputs.

        `grad=False` runs without backward caches (see the class docstring).
        """
        rank = np.ndim(x)
        x = self._to_batch(x)
        n = x.shape[0]
        self._cache = {}
        self._injected = []
        out: dict[str, np.ndarray] = {"input": x}
        audit: list[tuple[str, tuple[int, ...]]] = []
        for node in self.nodes:
            if node.op == "input":
                y = x
            elif overrides is not None and node.name in overrides:
                y = np.asarray(overrides[node.name], dtype=self.cfg.dtype)
                if y.ndim == 3:
                    y = np.repeat(y[None], n, axis=0)
                if y.ndim != 4 or y.shape[0] != n:
                    raise ShapeError(
                        f"override for {node.name!r} has shape {y.shape}"
                    )
                self._injected.append(node.name)
                if node.block is not None:
                    node.block.drop_caches()
            elif node.op == "block":
                y = node.block.forward(out[node.inputs[0]], training, rng, grad)
            elif node.op == "slice":
                src = out[node.inputs[0]]
                y = src[..., node.channel : node.channel + 1]
            else:  # concat
                try:
                    y = np.concatenate([out[src] for src in node.inputs], axis=node.axis)
                except ValueError as exc:
                    raise ShapeError(f"concat {node.name!r}: {exc}") from None
            out[node.name] = y
            if node.table_label is not None:
                audit.append((node.table_label, tuple(y.shape[1:])))
            if not grad:
                for src in self._frees.get(node.name, ()):
                    del out[src]
        if grad:
            self._cache = out
        self.last_audit = audit
        return _unbatched(out[self.nodes[-1].name], rank)

    def backward(self, dout) -> np.ndarray:
        """Backpropagate from the final output; returns d(input)."""
        if not self._cache:
            raise StateError("backward needs a preceding forward pass with grad=True")
        if self._injected:
            raise StateError(
                "backward cannot follow a forward with overrides; injected: "
                + ", ".join(self._injected)
            )
        dout = np.asarray(dout, dtype=self.cfg.dtype)
        rank = dout.ndim
        dout = _batched(dout)
        final = self.nodes[-1].name
        if dout.shape != self._cache[final].shape:
            raise ShapeError(
                f"gradient shape {dout.shape} does not match output "
                f"{self._cache[final].shape}"
            )
        grads: dict[str, np.ndarray] = {final: dout.copy()}
        dinput = None
        for node in reversed(self.nodes):
            g = grads.pop(node.name, None)
            if g is None:
                pass  # no gradient reaches this node
            elif node.op == "input":
                dinput = g
            elif node.op == "block":
                self._accumulate(grads, node.inputs[0], node.block.backward(g))
            elif node.op == "slice":
                src = node.inputs[0]
                if src not in grads:
                    grads[src] = np.zeros_like(self._cache[src])
                grads[src][:, :, :, node.channel : node.channel + 1] += g
            else:  # concat
                a, b = node.inputs
                split = self._cache[a].shape[node.axis]
                index: list[slice] = [slice(None)] * 4
                index[node.axis] = slice(0, split)
                ga = g[tuple(index)].copy()
                index[node.axis] = slice(split, None)
                gb = g[tuple(index)].copy()
                self._accumulate(grads, a, ga)
                self._accumulate(grads, b, gb)
            for src in self._releases.get(node.name, ()):
                del self._cache[src]
        return _unbatched(dinput, rank)

    @staticmethod
    def _accumulate(grads: dict, name: str, g: np.ndarray):
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g


def _batched(x: np.ndarray) -> np.ndarray:
    """(h, w) or (h, w, c) -> a batch of one; rank-4 arrays pass through."""
    if x.ndim == 2:
        return x[None, :, :, None]
    if x.ndim == 3:
        return x[None]
    return x


def _unbatched(y: np.ndarray, rank: int) -> np.ndarray:
    """Undo `_batched` for an array that came in with rank `rank`."""
    if rank == 2:
        return y[0, :, :, 0]
    if rank == 3:
        return y[0]
    return y


class _Builder:
    def __init__(self, rng, dtype):
        self.rng = rng
        self.dtype = dtype
        self.nodes = [Node("input", "input")]
        self.channels = {"input": 1}

    def block(self, name, kind, src, filters, dropout=True, normalization=True,
              label=None):
        blk = Block(
            name, kind, self.channels[src], filters, self.rng,
            dropout=dropout, normalization=normalization, dtype=self.dtype,
        )
        # label=None -> audit row under the node's own name; "" -> unlabelled.
        table_label = name if label is None else (label or None)
        self.nodes.append(
            Node(name, "block", (src,), block=blk, table_label=table_label)
        )
        self.channels[name] = filters
        return name

    def slices(self, src, names):
        if self.channels[src] != len(names):
            raise StateError(
                f"{src!r} has {self.channels[src]} channels, cannot slice "
                f"into {len(names)} planes"
            )
        for i, plane in enumerate(names):
            label = ", ".join(names) if i == len(names) - 1 else None
            self.nodes.append(
                Node(plane, "slice", (src,), channel=i, table_label=label)
            )
            self.channels[plane] = 1

    def concat(self, name, a, b, axis, label=None):
        self.nodes.append(
            Node(name, "concat", (a, b), axis=axis,
                 table_label=name if label is None else label)
        )
        if axis == 3:
            self.channels[name] = self.channels[a] + self.channels[b]
        else:
            if self.channels[a] != self.channels[b]:
                raise StateError(
                    f"spatial concat of {a!r} and {b!r} needs matching depths"
                )
            self.channels[name] = self.channels[a]
        return name

    def enc_dec(self, name, src, dwf):
        """Detail-plane encoder/decoder: same/half/half/same then mirrored
        transpose decode, ending at a single channel."""
        chain = [
            ("same", dwf, True, True),
            ("half", dwf * 4, True, True),
            ("half", dwf * 16, True, True),
            ("same", dwf * 64, True, True),
            ("double", dwf * 16, True, True),
            ("double", dwf * 4, False, True),
            ("same", 1, False, False),
        ]
        prev = src
        for i, (kind, filters, drop, norm) in enumerate(chain):
            last = i == len(chain) - 1
            prev = self.block(
                name if last else f"{name}_{i}",
                kind, prev, filters, dropout=drop, normalization=norm,
                label=name if last else "",
            )
        return prev


def build_model(cfg: ModelConfig | None = None, seed=0) -> Model:
    """Assemble the full network graph for `cfg` with fresh parameters drawn
    from `np.random.default_rng(seed)`: `seed` is an integer or a
    `SeedSequence`."""
    cfg = ModelConfig() if cfg is None else cfg
    return _assemble(cfg, np.random.default_rng(seed))


def _assemble(cfg: ModelConfig, rng) -> Model:
    """The network graph for `cfg`; convolution weights are drawn from
    `rng`, or start at zero when it is None."""
    dwf = cfg.dwf
    g = _Builder(rng, cfg.dtype)

    # Input encoder: five stride-2 stages down to extent/32, then decode
    # back up to half resolution with a slice-ready depth.
    g.block("inp", "same", "input", dwf, dropout=False, normalization=False)
    g.block("d0", "half", "inp", dwf * 4)
    g.block("d1", "half", "d0", dwf * 16)
    g.block("d2", "half", "d1", dwf * 64)
    g.block("d3", "half", "d2", dwf * 128)
    g.block("d4", "half", "d3", dwf * 256)
    g.block("d5", "double", "d4", dwf * 128)
    g.block("d6", "double", "d5", dwf * 64)
    g.block("d7", "same", "d6", dwf * 64)
    g.block("d8", "double", "d7", dwf * 16)
    g.block("d9", "double", "d8", dwf * 4)
    g.block("d10", "same", "d9", SUBBANDS)

    # Wavelet-layout section. First-level planes at extent/2.
    g.slices("d10", ("ca1", "ch1", "cv1", "cd1"))
    ll1 = "ca1"
    ll1_chain = [
        ("ll", dwf, True, True),
        ("ll", dwf * 4, True, True),
        ("ll", dwf * 16, True, True),
        ("ll", dwf * 32, True, True),
        ("half", dwf * 64, True, True),
        ("same", dwf * 16, True, True),
        ("same", dwf * 4, True, True),
        ("same", SUBBANDS, True, True),
    ]
    for i, (kind, filters, drop, norm) in enumerate(ll1_chain):
        ll1 = g.block(f"ll1_blk{i}", kind, ll1, filters,
                      dropout=drop, normalization=norm, label="ll1")

    # Second-level planes at extent/4.
    g.slices(ll1, ("ca2", "ch2", "cv2", "cd2"))
    ll2 = "ca2"
    ll2_chain = [
        ("ll", dwf, True, True),
        ("ll", dwf * 4, True, True),
        ("ll", dwf * 16, True, True),
        ("ll", dwf * 64, True, True),
        ("ll", dwf * 16, True, True),
        ("ll", dwf * 4, False, True),
        ("ll", 1, False, False),
    ]
    for i, (kind, filters, drop, norm) in enumerate(ll2_chain):
        ll2 = g.block(f"ll2_blk{i}", kind, ll2, filters,
                      dropout=drop, normalization=norm, label="ll2")

    g.enc_dec("hl2", "ch2", dwf)
    g.enc_dec("lh2", "cv2", dwf)
    g.enc_dec("hh2", "cd2", dwf)
    g.enc_dec("hl1", "ch1", dwf)
    g.enc_dec("lh1", "cv1", dwf)
    g.enc_dec("hh1", "cd1", dwf)

    # Tile the seven single-channel planes into the quadrant layout:
    # approximation top-left, details right/below/diagonal, level 2 nested
    # inside the level-1 approximation slot.
    g.concat("ll2_1", ll2, "hl2", axis=2)
    g.concat("ll2_2", "lh2", "hh2", axis=2)
    g.concat("ll1_tile", "ll2_1", "ll2_2", axis=1, label="ll1")
    g.concat("a", "ll1_tile", "hl1", axis=2)
    g.concat("b", "lh1", "hh1", axis=2)
    g.concat("op1", "a", "b", axis=1)

    # Output encoder/decoder with skip concatenations from the input encoder.
    g.block("op2_0", "same", "op1", dwf * 4, label="op2")
    g.block("op2_1", "half", "op2_0", dwf * 16, label="op2")
    g.concat("op2_2", "op2_1", "d0", axis=3, label="op2")
    g.block("op2_3", "half", "op2_2", dwf * 64, label="op2")
    g.concat("op2_4", "op2_3", "d1", axis=3, label="op2")
    g.block("op2_5", "half", "op2_4", dwf * 128, label="op2")
    g.concat("op2_6", "op2_5", "d2", axis=3, label="op2")
    g.block("op2_7", "half", "op2_6", dwf * 256, label="op2")
    g.concat("op2_8", "op2_7", "d3", axis=3, label="op2")
    g.block("op2_9", "same", "op2_8", dwf * 256, label="op2")
    g.block("op2_10", "double", "op2_9", dwf * 128, label="op2")
    g.block("op2_11", "double", "op2_10", dwf * 64, label="op2")
    g.block("op2_12", "double", "op2_11", dwf * 16, label="op2")
    g.block("op2_13", "double", "op2_12", dwf * 4, dropout=False, label="op2")
    g.block("output", "final", "op2_13", 1, dropout=False, normalization=False)

    return Model(cfg, g.nodes)


# -- weights file ------------------------------------------------------


def save_weights(model: Model, path) -> None:
    """Write every parameter and batchnorm statistic as 32-bit floats.

    A little-endian float32 array is written from its own buffer; only
    another dtype or byte order is converted, one tensor at a time."""
    items = model.state_items()
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", WEIGHTS_VERSION, len(items)))
        for name, arr in items:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))


def _walk_weights(fh) -> dict[str, tuple[tuple[int, ...], int]]:
    """Walk the headers of an open weights file: name -> (extents, offset of
    the float32 payload), in file order. Each payload is seeked past, not
    read; every malformed header, a payload that runs past the end of the
    file and bytes after the last tensor raise FormatError."""
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)

    def take(count: int) -> bytes:
        chunk = fh.read(count)
        if len(chunk) != count:
            raise FormatError("truncated weights file")
        return chunk

    if take(4) != WEIGHTS_MAGIC:
        raise FormatError("not a weights file (bad magic)")
    version, count = struct.unpack("<II", take(8))
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version}")
    index: dict[str, tuple[tuple[int, ...], int]] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8") from None
        if name in index:
            raise FormatError(f"duplicate tensor name {name!r}")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        offset = fh.tell()
        # Python ints: the product of eight u32 extents overflows int64.
        end = offset + 4 * math.prod(shape)
        if end > size:
            raise FormatError("truncated weights file")
        fh.seek(end)
        index[name] = (shape, offset)
    if fh.tell() != size:
        raise FormatError("trailing bytes after last tensor")
    return index


def read_weights_file(path) -> dict[str, np.ndarray]:
    """Parse a weights file into name -> float32 array, order preserved.

    The arrays are read-only views of the file's bytes, not copies.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return {
        name: np.frombuffer(
            data, dtype="<f4", count=math.prod(shape), offset=offset
        ).reshape(shape)
        for name, (shape, offset) in _walk_weights(io.BytesIO(data)).items()
    }


def load_weights(path, extents: tuple[int, int] | None = None) -> Model:
    """Rebuild a model from a weights file.

    The base filter count is recovered from the input-stage kernel; spatial
    extents are free at load time (every layer is extent-agnostic) and
    default to 128x128. No initial weights are drawn: the graph's float32
    arrays (the file's own precision) start at zero, and reading the file
    into them is the first write to each.

    The file is streamed, never held whole: its headers are walked and
    checked against the graph's tensor set and extents first, and only then
    is each payload read straight into the model's own array. So a
    malformed file raises FormatError before any model array is written,
    and the load needs little memory beyond the model itself.
    """
    with open(path, "rb") as fh:
        index = _walk_weights(fh)
        first, _ = index.get("inp/conv/w", ((), 0))
        if len(first) != 4:
            raise FormatError("weights file lacks the input-stage convolution")
        height, width = extents if extents is not None else (128, 128)
        try:
            cfg = ModelConfig(dwf=int(first[3]), height=height, width=width)
        except ShapeError as exc:
            raise FormatError(f"weights file implies an invalid model: {exc}") from exc
        model = _assemble(cfg, None)
        expected = dict(model.state_items())
        missing = sorted(set(expected) - set(index))
        surplus = sorted(set(index) - set(expected))
        if missing or surplus:
            detail = []
            if missing:
                detail.append(f"missing {missing[0]!r} and {len(missing) - 1} more")
            if surplus:
                detail.append(f"unexpected {surplus[0]!r} and {len(surplus) - 1} more")
            raise FormatError(
                "weights do not match the architecture: " + "; ".join(detail)
            )
        for name, (shape, _) in index.items():
            if shape != expected[name].shape:
                raise FormatError(
                    f"tensor {name!r} has extents {shape}, "
                    f"expected {expected[name].shape}"
                )
        for name, (_, offset) in index.items():
            target = expected[name]
            fh.seek(offset)
            if fh.readinto(memoryview(target).cast("B")) != target.nbytes:
                raise FormatError("truncated weights file")
            if sys.byteorder == "big":  # the file is little-endian
                target.byteswap(inplace=True)
    return model
