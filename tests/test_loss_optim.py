import math
import tracemalloc

import numpy as np
import pytest

from thermofuse import ShapeError, StateError
from thermofuse.nn import Adam, NonFiniteGradientError, logcosh_loss
from thermofuse.nn.optim import _CHUNK_BYTES, BETA1, BETA2, EPS
from thermofuse.nn.gradcheck import gradient_check_fn


def test_logcosh_hand_values():
    loss, grad = logcosh_loss(np.array([0.0]), np.array([0.0]))
    assert loss == 0.0
    assert grad[0] == 0.0
    loss, _ = logcosh_loss(np.array([1.0]), np.array([0.0]))
    assert loss == pytest.approx(math.log(math.cosh(1.0)), abs=1e-15)


def test_logcosh_limits():
    # large residual r: log cosh r -> |r| - log 2
    for r in (30.0, 100.0, 700.0, 1e4):
        loss, grad = logcosh_loss(np.array([r]), np.array([0.0]))
        assert abs(loss - (r - math.log(2.0))) < 1e-8
        assert abs(grad[0] - 1.0) < 1e-8
        loss_m, grad_m = logcosh_loss(np.array([-r]), np.array([0.0]))
        assert abs(loss_m - (r - math.log(2.0))) < 1e-8
        assert abs(grad_m[0] + 1.0) < 1e-8
    # small residual: log cosh r ~ r^2 / 2
    for r in (1e-4, 1e-5):
        loss, _ = logcosh_loss(np.array([r]), np.array([0.0]))
        assert abs(loss - r * r / 2.0) < 1e-8


def test_logcosh_no_overflow():
    with np.errstate(over="raise"):
        loss, grad = logcosh_loss(np.full((4,), 1e8), np.zeros(4))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_logcosh_mean_and_gradient():
    rng = np.random.default_rng(19)
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))
    loss, grad = logcosh_loss(pred, target)
    want = np.log(np.cosh(pred - target)).mean()
    assert loss == pytest.approx(want, rel=1e-12)
    assert grad.shape == pred.shape
    assert np.allclose(grad, np.tanh(pred - target) / pred.size, atol=1e-15)

    report = gradient_check_fn(lambda p: logcosh_loss(p, target), pred)
    assert report.passed, str(report)


def test_logcosh_shape_mismatch():
    with pytest.raises(ShapeError):
        logcosh_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_adam_first_step_is_exactly_signed_lr():
    # step 1: corrected first moment equals the gradient exactly, so the
    # update is lr * g / (|g| + eps)
    rng = np.random.default_rng(8)
    for seed in range(5):
        g = np.random.default_rng(seed).normal(size=(4, 3))
        p = rng.normal(size=(4, 3))
        p0 = p.copy()
        opt = Adam(lr=0.01)
        opt.step({"w": p}, {"w": g})
        assert np.array_equal(opt.m["w"], g)  # bitwise, not approx
        assert np.array_equal(opt.v["w"], g * g)
        want = p0 - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, want, atol=0.0)


def test_adam_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.5])
    p0 = p.copy()
    opt = Adam()
    for _ in range(3):
        opt.step({"w": p}, {"w": np.zeros(3)})
    assert np.array_equal(p, p0)


def test_adam_matches_reference_recurrence():
    # textbook form: m_t/(1-b1^t), v_t/(1-b2^t) with raw EMAs
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)  # Kingma & Ba's defaults
    rng = np.random.default_rng(44)
    p = rng.normal(size=(6,))
    ref = p.copy()
    opt = Adam(lr=0.05)
    m = np.zeros(6)
    v = np.zeros(6)
    for t in range(1, 30):
        g = rng.normal(size=(6,))
        opt.step({"w": p}, {"w": g.copy()})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.999**t)
        ref -= 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p, ref, rtol=1e-12, atol=1e-12)


def test_adam_rejects_non_finite_and_keeps_state():
    p = np.array([1.0])
    opt = Adam()
    opt.step({"w": p}, {"w": np.array([0.5])})
    m_before = opt.m["w"].copy()
    count_before = opt.step_count
    with pytest.raises(NonFiniteGradientError) as err:
        opt.step({"w": p}, {"w": np.array([np.nan])})
    assert "w" in str(err.value)
    assert np.array_equal(opt.m["w"], m_before)
    assert opt.step_count == count_before
    with pytest.raises(NonFiniteGradientError):
        opt.step({"w": p}, {"w": np.array([np.inf])})


def test_adam_descends_on_quadratic():
    p = np.array([5.0, -3.0])
    opt = Adam(lr=0.1)
    for _ in range(500):
        opt.step({"w": p}, {"w": 2.0 * p})
    assert np.abs(p).max() < 1e-2


def reference_adam_step(opt, state, params, grads):
    """The out-of-place update Adam.step replaced, kept as the reference."""
    state["t"] += 1
    t = state["t"]
    c1 = (1.0 - BETA1) / (1.0 - BETA1**t)
    c2 = (1.0 - BETA2) / (1.0 - BETA2**t)
    for name, p in params.items():
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m += c1 * (g - m)
        v += c2 * (g * g - v)
        p -= opt.lr * m / (np.sqrt(v) + EPS)


def test_adam_in_place_matches_out_of_place_bitwise():
    # Shapes below, at and across the update's chunk size (128 KB of
    # values: 16 K float64 or 32 K float32), and a scalar, in each dtype.
    for dtype in (np.float64, np.float32):
        chunk = _CHUNK_BYTES // np.dtype(dtype).itemsize
        rng = np.random.default_rng(45)
        shapes = {"w": (3, 3, 5, 7), "b": (7,), "s": (), "at": (chunk,),
                  "big": (2 * chunk + 7232,), "m": (3, chunk)}
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        opt = Adam(lr=0.02)
        state = {"t": 0, "m": {}, "v": {}}
        for _ in range(30):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s).astype(dtype)
                     for k, s in shapes.items()}
            opt.step(params, grads)
            reference_adam_step(opt, state, ref, grads)
            for k in shapes:
                assert params[k].dtype == opt.m[k].dtype == opt.v[k].dtype == dtype
                assert np.array_equal(params[k], ref[k]), (dtype, k)
                assert np.array_equal(opt.m[k], state["m"][k]), (dtype, k)
                assert np.array_equal(opt.v[k], state["v"][k]), (dtype, k)


def test_adam_step_allocates_less_than_one_parameter():
    rng = np.random.default_rng(46)
    params = {"w": rng.normal(size=(3, 3, 64, 64)), "b": rng.normal(size=64)}
    grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
    opt = Adam()
    opt.step(params, grads)  # allocates m, v and the scratch rows
    tracemalloc.start()
    try:
        opt.step(params, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The out-of-place update peaked at two temporaries of the largest tensor.
    assert peak < params["w"].nbytes


def test_adam_finiteness_check_allocates_less_than_one_bool_gradient():
    # A per-tensor np.isfinite(g).all() made a bool array of the largest
    # gradient: one byte per value.
    rng = np.random.default_rng(47)
    params = {"w": rng.normal(size=(3, 3, 256, 256)).astype(np.float32),
              "b": np.zeros(256, dtype=np.float32)}
    grads = {k: rng.normal(size=p.shape).astype(np.float32) for k, p in params.items()}
    opt = Adam()
    opt.step(params, grads)  # allocates m, v and the scratch rows
    tracemalloc.start()
    try:
        opt.step(params, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grads["w"].size


def test_adam_rejects_non_finite_past_the_first_chunk_and_keeps_state():
    # Values past the first bool scratch row of the check are checked too,
    # every bad tensor is named in order, and nothing changes.
    n = 2 * _CHUNK_BYTES + 5
    rng = np.random.default_rng(48)
    params = {k: rng.normal(size=n) for k in ("a", "b", "c")}
    opt = Adam()
    opt.step(params, {k: rng.normal(size=n) for k in params})
    before = {k: (p.copy(), opt.m[k].copy(), opt.v[k].copy()) for k, p in params.items()}
    grads = {k: rng.normal(size=n) for k in params}
    grads["a"][-1] = np.nan
    grads["c"][_CHUNK_BYTES + 1] = -np.inf
    with pytest.raises(NonFiniteGradientError) as err:
        opt.step(params, grads)
    assert err.value.blocks == ["a", "c"]
    assert opt.step_count == 1
    for k, (p, m, v) in before.items():
        assert np.array_equal(params[k], p)
        assert np.array_equal(opt.m[k], m) and np.array_equal(opt.v[k], v)


def test_adam_rejects_non_contiguous_parameters_and_keeps_state():
    # A flat view of a strided parameter would be a copy, losing the update.
    p = np.zeros(3)
    q = np.zeros((4, 4))[:, ::2]
    opt = Adam()
    with pytest.raises(StateError, match="C-contiguous: q"):
        opt.step({"p": p, "q": q}, {"p": np.ones(3), "q": np.ones((4, 2))})
    assert opt.step_count == 0 and not opt.m
    assert np.array_equal(p, np.zeros(3))


@pytest.mark.parametrize(
    "grads,named",
    [
        ({"a": np.ones(2)}, "missing 'b'"),
        ({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)}, "unexpected 'c'"),
        ({"a": np.ones(2), "b": np.ones(4)}, "'b' has shape"),
    ],
)
def test_adam_rejects_mismatched_gradients_and_keeps_state(grads, named):
    # Checked before anything moves: `a` comes first, and used to be
    # updated before a missing `b` raised KeyError.
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    opt = Adam()
    opt.step(params, {"a": np.ones(2), "b": np.ones(3)})
    before = {k: (p.copy(), opt.m[k].copy(), opt.v[k].copy()) for k, p in params.items()}
    with pytest.raises(StateError, match=named):
        opt.step(params, grads)
    assert opt.step_count == 1
    for k, (p, m, v) in before.items():
        assert np.array_equal(params[k], p), k
        assert np.array_equal(opt.m[k], m) and np.array_equal(opt.v[k], v), k
