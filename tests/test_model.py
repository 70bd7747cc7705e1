import functools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermofuse import FormatError, ShapeError, StateError, ValidationError
from thermofuse import model as model_module
from thermofuse.model import (
    Block,
    ModelConfig,
    build_model,
    load_weights,
    save_weights,
)
from thermofuse.nn import (
    Adam,
    BatchNormLayer,
    Conv2DLayer,
    Conv2DTransposeLayer,
    DropoutLayer,
    LeakyReLULayer,
    ReLULayer,
    SigmoidLayer,
    logcosh_loss,
)

# every named row of the dwf=4, 128x128 architecture: (label, (h, w, channels))
REFERENCE_ROWS = [
    ("inp", (128, 128, 4)),
    ("d0", (64, 64, 16)),
    ("d1", (32, 32, 64)),
    ("d2", (16, 16, 256)),
    ("d3", (8, 8, 512)),
    ("d4", (4, 4, 1024)),
    ("d5", (8, 8, 512)),
    ("d6", (16, 16, 256)),
    ("d7", (16, 16, 256)),
    ("d8", (32, 32, 64)),
    ("d9", (64, 64, 16)),
    ("d10", (64, 64, 4)),
    ("ca1, ch1, cv1, cd1", (64, 64, 1)),
    ("ll1", (64, 64, 4)),
    ("ll1", (64, 64, 16)),
    ("ll1", (64, 64, 64)),
    ("ll1", (64, 64, 128)),
    ("ll1", (32, 32, 256)),
    ("ll1", (32, 32, 64)),
    ("ll1", (32, 32, 16)),
    ("ll1", (32, 32, 4)),
    ("ca2, ch2, cv2, cd2", (32, 32, 1)),
    ("ll2", (32, 32, 4)),
    ("ll2", (32, 32, 16)),
    ("ll2", (32, 32, 64)),
    ("ll2", (32, 32, 256)),
    ("ll2", (32, 32, 64)),
    ("ll2", (32, 32, 16)),
    ("ll2", (32, 32, 1)),
    ("hl2", (32, 32, 1)),
    ("lh2", (32, 32, 1)),
    ("hh2", (32, 32, 1)),
    ("hl1", (64, 64, 1)),
    ("lh1", (64, 64, 1)),
    ("hh1", (64, 64, 1)),
    ("ll2_1", (32, 64, 1)),
    ("ll2_2", (32, 64, 1)),
    ("ll1", (64, 64, 1)),
    ("a", (64, 128, 1)),
    ("b", (64, 128, 1)),
    ("op1", (128, 128, 1)),
    ("op2", (128, 128, 16)),
    ("op2", (64, 64, 64)),
    ("op2", (64, 64, 80)),
    ("op2", (32, 32, 256)),
    ("op2", (32, 32, 320)),
    ("op2", (16, 16, 512)),
    ("op2", (16, 16, 768)),
    ("op2", (8, 8, 1024)),
    ("op2", (8, 8, 1536)),
    ("op2", (8, 8, 1024)),
    ("op2", (16, 16, 512)),
    ("op2", (32, 32, 256)),
    ("op2", (64, 64, 64)),
    ("op2", (128, 128, 16)),
    ("output", (128, 128, 1)),
]


def small_model(seed=3):
    return build_model(ModelConfig(dwf=1, height=32, width=32), seed=seed)


def test_config_validation():
    ModelConfig()  # defaults are valid
    with pytest.raises(ShapeError):
        ModelConfig(dwf=0)
    with pytest.raises(ShapeError):
        ModelConfig(height=48)  # not a multiple of 32
    with pytest.raises(ShapeError):
        ModelConfig(width=0)
    for dtype in (np.float16, np.int32, np.complex128, None, "nonsense"):
        with pytest.raises(ShapeError):
            ModelConfig(dtype=dtype)


@pytest.mark.parametrize(
    "extra,dtype", [({}, np.float32), ({"dtype": np.float64}, np.float64)]
)
def test_dtype_reaches_every_array(extra, dtype):
    # float32 by default, float64 when asked: the output, every activation
    # (dropout masks, sigmoid, correlate accumulators), every gradient a
    # layer receives (slice-gradient zeros) or keeps, the batch-norm
    # statistics and Adam's moments all share the config's dtype.
    model = build_model(ModelConfig(dwf=1, height=32, width=32, **extra), seed=4)
    assert model.cfg.dtype == dtype
    received = []
    for block in (n.block for n in model.nodes if n.block is not None):
        for layer in block.layers:
            def spy(dout, backward=layer.backward):
                received.append(dout.dtype)
                return backward(dout)
            layer.backward = spy
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(2, 32, 32, 1))
    y = model.forward(x, training=True, rng=rng)
    assert y.dtype == dtype
    for node in model.nodes:
        assert model.activation(node.name).dtype == dtype, node.name
    assert model.backward(rng.normal(size=y.shape)).dtype == dtype
    assert received and set(received) == {np.dtype(dtype)}
    grads = model.gradients()
    for name, g in grads.items():
        assert g.dtype == dtype, name
    for name, arr in model.state_items():
        assert arr.dtype == dtype, name
    opt = Adam()
    opt.step(model.parameters(), grads)
    for name in grads:
        assert opt.m[name].dtype == dtype and opt.v[name].dtype == dtype, name
    assert model.forward(x, grad=False).dtype == dtype


@pytest.mark.parametrize(
    "kind,conv,stride,activation",
    [
        ("same", Conv2DLayer, 1, LeakyReLULayer),
        ("half", Conv2DLayer, 2, LeakyReLULayer),
        ("double", Conv2DTransposeLayer, None, LeakyReLULayer),
        ("ll", Conv2DLayer, 1, ReLULayer),
        ("final", Conv2DLayer, 1, SigmoidLayer),
    ],
)
def test_block_kind_layer_sequence(kind, conv, stride, activation):
    rng = np.random.default_rng(0)
    full = Block("b", kind, 3, 5, rng)
    assert [type(layer) for layer in full.layers] == [
        conv, activation, BatchNormLayer, DropoutLayer
    ]
    assert getattr(full.conv, "stride", None) == stride
    assert full.conv.params["b"].shape == (5,) and full.bn.channels == 5
    assert [(name, layer) for name, layer in full.stores()] == [
        ("b/conv", full.conv), ("b/bn", full.bn)
    ]
    bare = Block("b", kind, 3, 5, rng, dropout=False, normalization=False)
    assert [type(layer) for layer in bare.layers] == [conv, activation]
    assert bare.bn is None and list(bare.stores()) == [("b/conv", bare.conv)]
    with pytest.raises(ShapeError):
        Block("b", "pooling", 3, 5, rng)


def test_small_audit_is_scaled_reference():
    # at dwf=1, 32x32 every extent is the reference row divided by 4 on
    # space, by dwf on channels where the row scales with dwf
    model = small_model()
    model.forward(np.zeros((32, 32)))
    assert len(model.last_audit) == len(REFERENCE_ROWS)
    for (label, ref), (got_label, got_shape) in zip(REFERENCE_ROWS, model.last_audit):
        assert got_label == label
        assert got_shape[0] == ref[0] // 4 and got_shape[1] == ref[1] // 4


@pytest.mark.slow
def test_full_audit_matches_reference_table():
    model = build_model(ModelConfig(dwf=4, height=128, width=128), seed=0)
    out = model.forward(np.random.default_rng(0).uniform(size=(128, 128)))
    got = [(label, tuple(shape)) for label, shape in model.last_audit]
    assert got == REFERENCE_ROWS
    assert out.shape == (128, 128)
    assert out.min() > 0.0 and out.max() < 1.0


@pytest.mark.parametrize("dwf", [1, 2, 4])
def test_row_table_invariants(dwf):
    # What backward relies on without checking: unique names, inputs that
    # run before their consumer, and a gradient reaching every node but the
    # output, which no later node reads.
    rows = model_module._rows(dwf)
    names = [row[0] for row in rows]
    assert len(set(names)) == len(names)
    seen = {"input"}
    read = set()
    for name, _, inputs, *_ in rows:
        inputs = (inputs,) if isinstance(inputs, str) else inputs
        assert set(inputs) <= seen, name
        read.update(inputs)
        seen.add(name)
    assert names[-1] == "output"
    assert seen - read == {"output"}


def test_forward_rank_mirrors_input():
    model = small_model()
    x = np.random.default_rng(1).uniform(size=(32, 32))
    flat = model.forward(x)
    assert flat.shape == (32, 32)
    chan = model.forward(x[..., None])
    assert chan.shape == (32, 32, 1)
    batched = model.forward(x[None, ..., None])
    assert batched.shape == (1, 32, 32, 1)
    assert np.array_equal(flat, chan[..., 0])
    assert np.array_equal(flat, batched[0, :, :, 0])


def test_empty_batch_runs_forward_and_backward():
    # An empty batch is not an error: it goes through every layer, both
    # ways, and every parameter gradient is zero.
    model = small_model()
    x = np.zeros((0, 32, 32, 1))
    assert model.forward(x, grad=False).shape == (0, 32, 32, 1)
    y = model.forward(x)
    assert y.shape == (0, 32, 32, 1)
    model.backward(np.zeros(y.shape, dtype=y.dtype))
    grads = model.gradients()
    assert grads and not any(g.any() for g in grads.values())


def test_forward_validation():
    model = small_model()
    with pytest.raises(ShapeError):
        model.forward(np.zeros((16, 32)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((32, 32, 2)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((32,)))


def test_training_mode_needs_rng():
    model = small_model()
    x = np.zeros((32, 32))
    with pytest.raises(StateError):
        model.forward(x, training=True)
    y = model.forward(x, training=True, rng=np.random.default_rng(0))
    assert y.shape == (32, 32)


def test_parameters_and_gradients_align():
    model = small_model()
    x = np.random.default_rng(2).uniform(size=(32, 32))
    y = model.forward(x)
    model.backward(np.ones_like(y))
    params = model.parameters()
    grads = model.gradients()
    assert list(grads) == list(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape, name
    # conv weights, biases, batchnorm scale/shift all present
    assert "inp/conv/w" in params and "inp/conv/b" in params
    assert any(name.endswith("/bn/gamma") for name in params)


def test_backward_requires_forward():
    model = small_model()
    with pytest.raises(StateError):
        model.backward(np.zeros((1, 32, 32, 1)))


def test_build_is_deterministic():
    a = build_model(ModelConfig(dwf=1, height=32, width=32), seed=11)
    b = build_model(ModelConfig(dwf=1, height=32, width=32), seed=11)
    for (name_a, t_a), (name_b, t_b) in zip(a.state_items(), b.state_items()):
        assert name_a == name_b
        assert np.array_equal(t_a, t_b)
    c = build_model(ModelConfig(dwf=1, height=32, width=32), seed=12)
    assert not np.array_equal(
        dict(a.state_items())["inp/conv/w"], dict(c.state_items())["inp/conv/w"]
    )


def test_sub_band_injection_places_quadrants():
    # force each decoded band to a distinct constant and read the mosaic
    # off op1: approximation top-left, then the finer bands around it
    model = small_model()
    over = {
        "ll2_blk6": np.full((8, 8, 1), 1.0),
        "hl2": np.full((8, 8, 1), 2.0),
        "lh2": np.full((8, 8, 1), 3.0),
        "hh2": np.full((8, 8, 1), 4.0),
        "hl1": np.full((16, 16, 1), 5.0),
        "lh1": np.full((16, 16, 1), 6.0),
        "hh1": np.full((16, 16, 1), 7.0),
    }
    model.forward(np.zeros((32, 32)), overrides=over)
    op1 = model.activation("op1")[0, :, :, 0]
    assert np.all(op1[:8, :8] == 1.0)
    assert np.all(op1[:8, 8:16] == 2.0)
    assert np.all(op1[8:16, :8] == 3.0)
    assert np.all(op1[8:16, 8:16] == 4.0)
    assert np.all(op1[:16, 16:] == 5.0)
    assert np.all(op1[16:, :16] == 6.0)
    assert np.all(op1[16:, 16:] == 7.0)


def test_backward_leaves_forward_activations_unchanged():
    # Slice planes are views of their source, so an in-place write during
    # backward into any cached activation would corrupt its neighbours.
    model = small_model()
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(2, 32, 32, 1))
    y = model.forward(x, training=True, rng=np.random.default_rng(5))
    names = [node.name for node in model.nodes]
    assert {"d10", "ca1", "ch1", "cv1", "cd1", "ll1_blk7", "ca2", "ch2", "cv2", "cd2"} <= set(names)
    # Backward drops its cache, so the test keeps its own references to the
    # cached arrays (slice views included) and compares them afterwards.
    cached = {name: model.activation(name) for name in names}
    before = {name: a.copy() for name, a in cached.items()}
    model.backward(rng.normal(size=y.shape))
    for name in names:
        assert np.array_equal(cached[name], before[name]), name


def test_injection_rejects_wrong_shape():
    model = small_model()
    with pytest.raises(ShapeError):
        model.forward(np.zeros((32, 32)), overrides={"hl1": np.zeros((4, 4, 1))})


def test_injection_rejects_unknown_names(monkeypatch):
    # A misspelt name or the input would otherwise be ignored: the output
    # unchanged and nothing injected.
    model = small_model()
    x = np.random.default_rng(8).uniform(size=(32, 32))
    model.forward(x)
    ran = []
    monkeypatch.setattr(Block, "forward", lambda self, *args: ran.append(self))
    over = {"hl_1": np.zeros((16, 16, 1)), "hl1": np.zeros((16, 16, 1)),
            "input": np.zeros((32, 32, 1))}
    with pytest.raises(ValidationError, match="'hl_1', 'input'$"):
        model.forward(x, overrides=over)
    assert ran == []
    # the earlier pass's activations stay readable
    assert model.activation("op1").shape == (1, 32, 32, 1)


def float64_model(seed):
    # Central differences at these eps need float64: the reference path.
    cfg = ModelConfig(dwf=1, height=32, width=32, dtype=np.float64)
    return build_model(cfg, seed=seed)


def test_directional_derivative_over_parameters():
    model = float64_model(seed=3)
    rng = np.random.default_rng(77)
    x = rng.uniform(size=(2, 32, 32, 1))
    target = rng.uniform(size=(2, 32, 32, 1))

    def loss_value():
        return logcosh_loss(model.forward(x), target)[0]

    loss, dl = logcosh_loss(model.forward(x), target)
    model.backward(dl)
    grads = model.gradients()
    params = model.parameters()

    direction = {k: rng.normal(size=p.shape) for k, p in params.items()}
    scale = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in params) / scale

    eps = 1e-7
    for k in params:
        params[k] += eps * direction[k] / scale
    up = loss_value()
    for k in params:
        params[k] -= 2 * eps * direction[k] / scale
    down = loss_value()
    for k in params:
        params[k] += eps * direction[k] / scale
    fd = (up - down) / (2 * eps)
    assert abs(fd - analytic) / abs(analytic) < 2e-3


def test_directional_derivative_over_input():
    model = float64_model(seed=5)
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(1, 32, 32, 1))
    target = rng.uniform(size=(1, 32, 32, 1))
    _, dl = logcosh_loss(model.forward(x), target)
    dx = model.backward(dl)
    assert dx.shape == x.shape

    d = rng.normal(size=x.shape)
    d /= np.sqrt((d * d).sum())
    analytic = float((dx * d).sum())
    eps = 1e-6
    up = logcosh_loss(model.forward(x + eps * d), target)[0]
    down = logcosh_loss(model.forward(x - eps * d), target)[0]
    fd = (up - down) / (2 * eps)
    assert abs(fd - analytic) / abs(analytic) < 1e-3


# -- gradient-free forward ---------------------------------------------


@pytest.mark.parametrize("shape", [(32, 32), (32, 32, 1), (2, 32, 32, 1)])
def test_no_grad_forward_matches_grad_forward(shape):
    model = small_model()
    x = np.random.default_rng(8).uniform(size=shape)
    want = model.forward(x, training=False)
    audit = list(model.last_audit)
    got = model.forward(x, training=False, grad=False)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert model.last_audit == audit


def test_no_grad_forward_with_overrides():
    model = small_model()
    x = np.random.default_rng(9).uniform(size=(32, 32))
    over = {"hl1": np.full((16, 16, 1), 0.25), "ll2_blk6": np.full((8, 8, 1), -1.0)}
    want = model.forward(x, overrides=over)
    got = model.forward(x, overrides=over, grad=False)
    assert np.array_equal(got, want)


def test_backward_after_overrides_raises_before_any_layer(monkeypatch):
    # The injected node's block did not run in the override pass: a
    # backward through it would hand out wrong gradients for the chain
    # feeding it, or run on no cache at all.
    model = small_model()
    rng = np.random.default_rng(11)
    model.forward(rng.uniform(size=(32, 32)))
    y = model.forward(
        rng.uniform(size=(32, 32)), overrides={"hl1": np.full((16, 16, 1), 0.5)}
    )
    ran = []
    block_backward = Block.backward

    def spied(self, dout):
        ran.append(self)
        return block_backward(self, dout)

    monkeypatch.setattr(Block, "backward", spied)
    with pytest.raises(StateError, match="hl1"):
        model.backward(np.ones_like(y))
    assert ran == []
    with pytest.raises(StateError):
        model.gradients()
    # the override pass's activations stay readable
    assert np.all(model.activation("op1")[0, :16, 16:, 0] == 0.5)


def test_backward_keeps_shapes_not_activations(monkeypatch):
    # Backward reads the node outputs only for their shapes: the node cache
    # is empty by the time the first block runs its backward.
    model = small_model()
    y = model.forward(np.random.default_rng(13).uniform(size=(2, 32, 32, 1)))
    seen = []
    block_backward = Block.backward

    def spied(self, dout):
        seen.append(dict(model._cache))
        return block_backward(self, dout)

    monkeypatch.setattr(Block, "backward", spied)
    model.backward(np.ones_like(y))
    assert seen[0] == {}


@pytest.mark.parametrize("grad", [True, False])
def test_override_forward_drops_the_injected_blocks_caches(grad):
    # A grad=True pass fills every layer's cache. The override pass still
    # runs every block, hl1's included, so no layer keeps a cache of the
    # earlier pass: with grad each holds this pass's, without none is kept.
    model = small_model()
    rng = np.random.default_rng(15)
    model.forward(rng.uniform(size=(32, 32)), training=True, rng=rng)
    layers = [layer for n in model.nodes if n.block is not None for layer in n.block.layers]
    earlier = [layer._cache for layer in layers]
    assert all(c is not None for c in earlier)
    model.forward(
        rng.uniform(size=(32, 32)), overrides={"hl1": np.full((16, 16, 1), 0.5)},
        grad=grad,
    )
    if grad:
        assert all(layer._cache is not None and layer._cache is not c
                   for layer, c in zip(layers, earlier))
        hl1 = next(n.block for n in model.nodes if n.name == "hl1")
        assert hl1.conv._cache is model.activation("hl1_5")
    else:
        assert all(layer._cache is None for layer in layers)


def test_override_must_match_the_output_it_replaces(monkeypatch):
    # A (16, 16, 4) op2_13 has the rank and batch of a valid value, but a
    # 32x32 dwf=1 model's op2_13 is (1, 32, 32, 4): the output block would
    # otherwise return a 16x16 mask. It is refused before that block runs.
    model = small_model()
    ran = []
    block_forward = Block.forward

    def spied(self, *args):
        ran.append(self.name)
        return block_forward(self, *args)

    monkeypatch.setattr(Block, "forward", spied)
    with pytest.raises(ShapeError, match=r"'op2_13'.*\(1, 16, 16, 4\).*\(1, 32, 32, 4\)"):
        model.forward(np.zeros((32, 32)), overrides={"op2_13": np.zeros((16, 16, 4))})
    assert ran[-1] == "op2_13"
    for over in ({"hl1": np.zeros((4, 4, 1))}, {"d1": np.zeros((4, 4, 8))}):
        with pytest.raises(ShapeError, match=f"override for {next(iter(over))!r}"):
            model.forward(np.zeros((32, 32)), overrides=over)


def test_training_override_pass_draws_the_same_dropout_masks():
    # The replaced d1 block still runs and draws its mask, so every later
    # block's mask is the one a pass without overrides draws.
    model = small_model()
    x = np.random.default_rng(16).uniform(size=(2, 32, 32, 1))
    dropouts = [layer for n in model.nodes if n.block is not None
                for layer in n.block.layers if isinstance(layer, DropoutLayer)]
    model.forward(x, training=True, rng=np.random.default_rng(6))
    want = [layer._cache for layer in dropouts]
    over = {"d1": np.zeros((2, 8, 8, 16))}
    model.forward(x, training=True, rng=np.random.default_rng(6), overrides=over)
    assert all(np.array_equal(layer._cache, m) for layer, m in zip(dropouts, want))


def test_nodes_are_blocks_slices_and_concats():
    # The image fed to the graph is a source name, not a node of its own.
    model = small_model()
    assert [node.name for node in model.nodes] == [row[0] for row in model_module._rows(1)]
    assert {node.op for node in model.nodes} == {"block", "slice", "concat"}
    assert all((node.block is not None) == (node.op == "block") for node in model.nodes)


def test_no_grad_forward_keeps_nothing_for_backward():
    model = small_model()
    x = np.random.default_rng(10).uniform(size=(32, 32))
    y = model.forward(x)
    model.forward(x, grad=False)
    with pytest.raises(StateError):
        model.backward(np.ones_like(y))
    with pytest.raises(StateError):
        model.activation("op1")
    for block in (n.block for n in model.nodes if n.block is not None):
        for layer in block.layers:
            assert layer._cache is None


def test_no_grad_forward_leaves_later_gradients_unchanged():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(2, 32, 32, 1))
    dout = rng.normal(size=(2, 32, 32, 1))

    def grads_and_dinput(model):
        model.forward(x)
        dx = model.backward(dout)
        return model.gradients(), dx

    want, want_dx = grads_and_dinput(small_model())
    model = small_model()
    model.forward(rng.uniform(size=(32, 32)), grad=False)
    got, got_dx = grads_and_dinput(model)
    assert np.array_equal(got_dx, want_dx)
    assert set(got) == set(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("kind", ["same", "half", "double", "ll", "final"])
@pytest.mark.parametrize("training", [False, True])
def test_no_grad_block_leaves_its_input_unchanged(kind, training):
    # Without gradients the block's later layers overwrite the conv's output;
    # they must not reach the block's input, nor change the result.
    block = Block("b", kind, 3, 5, np.random.default_rng(0))
    block.bn.buffers["moving_var"][:] = 2.0
    x = np.random.default_rng(1).normal(size=(2, 8, 8, 3))
    before = x.copy()
    want = block.forward(x, training, np.random.default_rng(2))
    got = block.forward(x, training, np.random.default_rng(2), grad=False)
    assert np.array_equal(x, before)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("training", [False, True])
def test_no_grad_model_forward_leaves_its_input_unchanged(training):
    model = small_model()
    # float32 and rank 4: the model's own dtype and layout, so the graph
    # reads this very array, not a copy.
    x = np.random.default_rng(13).uniform(size=(2, 32, 32, 1)).astype(np.float32)
    over = {"hl1": np.full((16, 16, 1), 0.25, dtype=np.float32)}
    before = x.copy()
    model.forward(x, training, np.random.default_rng(4), overrides=over, grad=False)
    assert np.array_equal(x, before)
    assert np.array_equal(over["hl1"], np.full((16, 16, 1), 0.25))


def test_no_grad_forward_peak_is_a_few_activations():
    # Freed after their last use and overwritten in place, activations leave
    # a traced peak of a few times the largest one at 256x256.
    model = build_model(ModelConfig(dwf=1, height=256, width=256), seed=1)
    x = np.random.default_rng(14).uniform(size=(256, 256))
    model.forward(x)
    largest = max(model.activation(node.name).nbytes for node in model.nodes)
    tracemalloc.start()
    try:
        model.forward(x, grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * largest


def test_backward_rank_follows_dout():
    model = small_model()
    x = np.random.default_rng(12).uniform(size=(32, 32))[None, ..., None]
    # One backward per forward: each backward consumes its forward's cache.
    for shape in [(32, 32), (32, 32, 1), (1, 32, 32, 1)]:
        model.forward(x)
        assert model.backward(np.ones(shape)).shape == shape
    model.forward(x)
    with pytest.raises(ShapeError):
        model.backward(np.ones((16, 32)))
    with pytest.raises(ShapeError):
        model.backward(np.ones((2, 32, 32, 1)))


def test_backward_leaves_dout_unchanged():
    # A float32 gradient of the output's shape reaches the output block as
    # the caller's own array.
    model = small_model()
    y = model.forward(np.random.default_rng(14).uniform(size=(2, 32, 32, 1)))
    dout = np.random.default_rng(15).normal(size=y.shape).astype(np.float32)
    want = dout.copy()
    model.backward(dout)
    assert np.array_equal(dout, want)


# -- training memory ---------------------------------------------------


def toy_step_inputs():
    """The toy training step's model, dropout rng, batch of 8 and target."""
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(8, 32, 32, 1)).astype(np.float32)
    target = rng.uniform(size=(8, 32, 32, 1)).astype(np.float32)
    return small_model(), rng, x, target


def test_backward_leaves_only_parameters_and_gradients():
    model, rng, x, target = toy_step_inputs()
    tracemalloc.start()
    try:
        y = model.forward(x, training=True, rng=rng)
        largest = max(model.activation(node.name).nbytes for node in model.nodes)
        dl = logcosh_loss(y, target)[1]
        del y
        model.backward(dl)
        del dl
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not model._cache
    for block in (n.block for n in model.nodes if n.block is not None):
        for layer in block.layers:
            assert layer._cache is None, block.name
    grads = sum(g.nbytes for g in model.gradients().values())
    stats = sum(a.nbytes for name, a in model.state_items() if "/moving_" in name)
    # What the pass allocated and still holds, beyond the gradients and the
    # updated running statistics: with every activation cached until the
    # next forward that was 8.9 MB (the whole pass's outputs, masks and
    # batch-norm caches); released, it is 85 KB of array headers, less than
    # the largest activation (128 KiB).
    assert held - grads - stats < largest


def test_training_step_peak_is_model_state_and_live_activations():
    model, rng, x, target = toy_step_inputs()
    params = model.parameters()
    state = sum(p.nbytes for p in params.values())
    opt = Adam()

    def step():
        y = model.forward(x, training=True, rng=rng)
        model.backward(logcosh_loss(y, target)[1])
        opt.step(params, model.gradients())

    tracemalloc.start()
    try:
        step()  # allocates Adam's moments
        tracemalloc.reset_peak()
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Beyond the parameters: Adam's two moments and one set of gradients
    # (3x the parameter bytes) plus the activations still to be read. When
    # every activation stayed cached until the next forward and the last
    # step's gradients lived through this step, the peak was 4.18x; now it
    # is 3.34x.
    assert peak < 3.6 * state


def test_backward_and_gradients_run_once_per_forward():
    model = small_model()
    x = np.random.default_rng(15).uniform(size=(2, 32, 32, 1))
    with pytest.raises(StateError):
        model.gradients()
    y = model.forward(x)
    model.backward(np.ones_like(y))
    with pytest.raises(StateError):
        model.activation("op1")
    with pytest.raises(StateError):
        model.backward(np.ones_like(y))
    grads = model.gradients()
    assert list(grads) == list(model.parameters())
    with pytest.raises(StateError):
        model.gradients()
    # The next forward and backward make a fresh set.
    model.forward(x)
    model.backward(np.ones_like(y))
    assert model.gradients().keys() == grads.keys()


def test_failed_backward_releases_nothing():
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(2, 32, 32, 1))
    dout = rng.normal(size=(2, 32, 32, 1))
    want = small_model()
    want.forward(x)
    want_dx = want.backward(dout)
    want_grads = want.gradients()
    model = small_model()
    model.forward(x)
    with pytest.raises(ShapeError):
        model.backward(dout[:1])
    assert np.array_equal(model.backward(dout), want_dx)
    got = model.gradients()
    for name, g in want_grads.items():
        assert np.array_equal(got[name], g), name


# -- weights file format ----------------------------------------------


def pack_weights(entries):
    """Independent writer for the weights container, used as an oracle."""
    blob = b"TOFW" + struct.pack("<II", 1, len(entries))
    for name, tensor in entries:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", tensor.ndim)
        blob += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        blob += tensor.astype("<f4").tobytes(order="C")
    return blob


def test_save_matches_independent_packer(tmp_path):
    model = small_model()
    path = tmp_path / "w.tofw"
    save_weights(model, path)
    want = pack_weights([(n, t) for n, t in model.state_items()])
    assert path.read_bytes() == want


def test_seeded_weights_file_does_not_depend_on_dtype(tmp_path):
    # Weights are drawn in float64 and rounded once into each dtype's
    # kernel, so both dtypes hold the same float32 values and write the
    # same bytes.
    files = []
    for dtype in (np.float32, np.float64):
        path = tmp_path / f"{np.dtype(dtype).name}.tofw"
        cfg = ModelConfig(dwf=1, height=32, width=32, dtype=dtype)
        save_weights(build_model(cfg, seed=8), path)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_save_load_round_trip(tmp_path):
    model = small_model(seed=21)
    path = tmp_path / "w.tofw"
    save_weights(model, path)
    loaded = load_weights(path, extents=(32, 32))
    again = tmp_path / "w2.tofw"
    save_weights(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    # float32 storage: values agree to float32 resolution
    x = np.random.default_rng(0).uniform(size=(32, 32))
    assert np.allclose(model.forward(x), loaded.forward(x), atol=1e-5)


def test_load_draws_no_random_weights(tmp_path, monkeypatch):
    path = tmp_path / "w.tofw"
    save_weights(small_model(seed=5), path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_weights drew random initial weights")

    # Patched on numpy itself, so no module of the package can seed a generator.
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    again = tmp_path / "w2.tofw"
    save_weights(load_weights(path, extents=(32, 32)), again)
    assert path.read_bytes() == again.read_bytes()


def test_load_infers_depth_factor(tmp_path):
    model = build_model(ModelConfig(dwf=2, height=32, width=32), seed=1)
    path = tmp_path / "w.tofw"
    save_weights(model, path)
    loaded = load_weights(path, extents=(64, 64))
    assert loaded.cfg.dwf == 2
    assert loaded.cfg.height == 64 and loaded.cfg.width == 64


def test_load_checks_extents_before_the_file(tmp_path):
    # Bad extents are the caller's, not the file's: ShapeError, raised
    # before the file is opened; a file implying a bad dwf is FormatError.
    path = tmp_path / "w.tofw"
    save_weights(small_model(), path)
    for target in (path, tmp_path / "missing.tofw"):
        with pytest.raises(ShapeError, match="height must be a positive multiple of 32"):
            load_weights(target, extents=(48, 64))
    path.write_bytes(pack_weights([("inp/conv/w", np.zeros((3, 3, 1, 0)))]))
    with pytest.raises(FormatError, match="implies an invalid model: dwf"):
        load_weights(path)


def test_read_weights_file_corruption(tmp_path):
    model = small_model()
    path = tmp_path / "w.tofw"
    save_weights(model, path)
    data = path.read_bytes()

    bad = tmp_path / "bad.tofw"

    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(FormatError, match="magic"):
        load_weights(bad)

    bad.write_bytes(data[:4] + struct.pack("<I", 9) + data[8:])
    with pytest.raises(FormatError, match="version"):
        load_weights(bad)

    bad.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        load_weights(bad)

    bad.write_bytes(data + b"\x00")
    with pytest.raises(FormatError):
        load_weights(bad)


def test_read_weights_file_huge_extents(tmp_path):
    # eight u32 extents of 0xFFFFFFFF: the element count overflows int64
    path = tmp_path / "huge.tofw"
    header = b"TOFW" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x"
    path.write_bytes(header + struct.pack("<B8I", 8, *[0xFFFFFFFF] * 8) + bytes(16))
    with pytest.raises(FormatError, match="truncated"):
        load_weights(path)


def test_read_weights_file_name_not_utf8(tmp_path):
    path = tmp_path / "name.tofw"
    header = b"TOFW" + struct.pack("<II", 1, 1) + struct.pack("<H", 2) + b"\xff\xfe"
    path.write_bytes(header + struct.pack("<BI", 1, 1) + bytes(4))
    with pytest.raises(FormatError, match="UTF-8"):
        load_weights(path)


def test_read_weights_file_duplicate_name(tmp_path):
    t = np.ones((2, 2), dtype=np.float32)
    path = tmp_path / "dup.tofw"
    path.write_bytes(pack_weights([("x", t), ("x", t)]))
    with pytest.raises(FormatError, match="duplicate"):
        load_weights(path)


def test_load_rejects_wrong_tensor_set(tmp_path, monkeypatch):
    # Each is a FormatError before any model array is written.
    model = small_model()
    entries = list(model.state_items())

    missing = tmp_path / "missing.tofw"
    missing.write_bytes(pack_weights(entries[:-1]))
    assert load_or_format_error(missing, monkeypatch) is None

    surplus = tmp_path / "surplus.tofw"
    surplus.write_bytes(pack_weights(entries + [("zz/extra", np.zeros(1))]))
    assert load_or_format_error(surplus, monkeypatch) is None

    wrong = tmp_path / "wrong.tofw"
    reshaped = [
        (n, t.reshape(-1) if n == "d4/conv/b" else t) for n, t in entries
    ]
    reshaped = [
        (n, np.zeros((1, 1)) if n == "inp/conv/b" else t) for n, t in reshaped
    ]
    wrong.write_bytes(pack_weights(reshaped))
    assert load_or_format_error(wrong, monkeypatch) is None

    # Same element count, so the file parses; only the last tensor is off.
    name, last = entries[-1]
    late = tmp_path / "late.tofw"
    late.write_bytes(pack_weights(entries[:-1] + [(name, last.reshape(1, -1))]))
    assert load_or_format_error(late, monkeypatch) is None


# A valid file small enough to fuzz: two tensors of rank 2 and 1.
SMALL_FILE = pack_weights(
    [("a/w", np.arange(6.0).reshape(2, 3)), ("b", np.array([1.5, -2.0]))]
)


def format_error_on_load(path, data: bytes):
    # Not the model's tensor set, so a load fails however far the walk of
    # the headers gets, and it fails with a FormatError.
    path.write_bytes(data)
    with pytest.raises(FormatError):
        load_weights(path, extents=(32, 32))


@given(
    st.one_of(
        st.binary(max_size=128),
        st.binary(max_size=128).map(lambda tail: SMALL_FILE[:12] + tail),
    )
)
def test_read_weights_file_arbitrary_bytes(tmp_path, data):
    format_error_on_load(tmp_path / "fuzz.tofw", data)


@given(st.integers(0, len(SMALL_FILE) - 1))
def test_read_weights_file_truncations(tmp_path, length):
    path = tmp_path / "cut.tofw"
    path.write_bytes(SMALL_FILE[:length])
    with pytest.raises(FormatError):
        load_weights(path, extents=(32, 32))


@given(st.integers(0, len(SMALL_FILE) - 1), st.integers(0, 255))
def test_read_weights_file_single_byte_edits(tmp_path, index, value):
    data = bytearray(SMALL_FILE)
    data[index] = value
    format_error_on_load(tmp_path / "edit.tofw", bytes(data))


# -- streamed loading --------------------------------------------------


@functools.cache
def model_file():
    """A saved dwf=1 model (the smallest real architecture) with -0.0, NaN,
    infinite and subnormal payload values: the file's bytes, the offsets of
    its header bytes (everything but the float32 payloads), and each
    tensor's (name, float32 array, offset of its payload)."""
    entries = [(name, arr.copy()) for name, arr in small_model(seed=6).state_items()]
    odd = np.array([-0.0, np.nan, -np.inf, np.inf, 1e-45], dtype=np.float32)
    entries[0][1].reshape(-1)[: odd.size] = odd
    blob = pack_weights(entries)
    headers, payloads, pos = list(range(12)), [], 12
    for name, arr in entries:
        size = 2 + len(name.encode("utf-8")) + 1 + 4 * arr.ndim
        headers += range(pos, pos + size)
        pos += size
        payloads.append((name, arr, pos))
        pos += arr.nbytes
    assert pos == len(blob)
    return blob, headers, payloads


def load_or_format_error(path, monkeypatch):
    """load_weights(path), or None after a FormatError; a failed load must
    not have written any array of the model it built."""
    built = []
    assemble = model_module._assemble

    def recording(cfg, rng):
        built.append(assemble(cfg, rng))
        return built[-1]

    monkeypatch.setattr(model_module, "_assemble", recording)
    try:
        return load_weights(path, extents=(32, 32))
    except FormatError:
        for model in built:
            fresh = assemble(model.cfg, None).state_items()
            for (name, got), (_, want) in zip(model.state_items(), fresh):
                assert np.array_equal(got, want), name
        return None
    finally:
        monkeypatch.undo()


def test_load_copies_every_payload_bit_for_bit(tmp_path):
    # Compared with the arrays of the model that wrote the file, so -0.0,
    # NaN, the infinities and the subnormal must all come back unchanged.
    blob, _, payloads = model_file()
    path = tmp_path / "w.tofw"
    path.write_bytes(blob)
    items = load_weights(path, extents=(32, 32)).state_items()
    assert [name for name, _ in items] == [name for name, _, _ in payloads]
    for (name, arr), (_, written, _) in zip(items, payloads):
        assert arr.astype("<f4").tobytes() == written.astype("<f4").tobytes(), name


def test_load_peak_is_about_the_model(tmp_path):
    # The file is walked, then each payload is read into the model's own
    # array: no whole-file buffer and no per-tensor copies.
    path = tmp_path / "w.tofw"
    path.write_bytes(model_file()[0])
    tracemalloc.start()
    try:
        model = load_weights(path, extents=(32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sum(arr.nbytes for _, arr in model.state_items())


def test_build_peak_is_about_the_model():
    # Every array is born in the model's dtype: a seeded build holds the
    # model plus one bounded chunk of float64 draws, with no float64 copy.
    tracemalloc.start()
    try:
        model = build_model(ModelConfig(dwf=1), seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * sum(arr.nbytes for _, arr in model.state_items())


def test_save_writes_each_array_without_a_copy(tmp_path):
    model = build_model(ModelConfig(dwf=1), seed=4)
    tracemalloc.start()
    try:
        save_weights(model, tmp_path / "w.tofw")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * sum(arr.nbytes for _, arr in model.state_items())


@given(st.data())
def test_load_weights_truncations(tmp_path, monkeypatch, data):
    blob, headers, _ = model_file()
    length = data.draw(
        st.one_of(st.sampled_from(headers), st.integers(0, len(blob) - 1))
    )
    path = tmp_path / "cut.tofw"
    path.write_bytes(blob[:length])
    assert load_or_format_error(path, monkeypatch) is None


@given(st.data(), st.integers(0, 255))
def test_load_weights_single_byte_edits(tmp_path, monkeypatch, data, value):
    blob, headers, payloads = model_file()
    index = data.draw(st.one_of(st.sampled_from(headers), st.integers(0, len(blob) - 1)))
    edited = bytearray(blob)
    edited[index] = value
    path = tmp_path / "edit.tofw"
    path.write_bytes(bytes(edited))
    loaded = load_or_format_error(path, monkeypatch)
    if loaded is not None:  # an edit that leaves a valid file loads it
        for (name, arr), (_, written, offset) in zip(loaded.state_items(), payloads):
            want = edited[offset : offset + written.nbytes]
            assert arr.astype("<f4").tobytes() == want, name
