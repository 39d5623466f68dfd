"""The conv-gradient scatter and pooling kernels vs frozen copies of the
implementations they replaced, compared bit for bit.

The ``_frozen_*`` functions below are the kernels as they were before
the row-run col2im and the argmax-free max-pool: a per-tap scatter into
the padded gradient, ``argmax``/``take_along_axis`` over a transposed
window copy, ``put_along_axis`` routing and ``np.repeat`` averaging.
They live here, not in ``src/``, because nothing but these tests runs
them.  Hypothesis draws shapes with pooling remainders, every kernel
size and padding the apps use, both float dtypes, and values from a
small grid (so pooling windows tie, +0.0 against -0.0 included) with
NaNs of several payloads and infinities sprinkled in.  Results are
compared through same-width unsigned views, so a flipped zero sign or
NaN payload fails.

One limit on "bit for bit": where two NaNs with different bit patterns
meet in one sum, NumPy's add returns one or the other depending on the
inner loop that runs (a 1-element run and the tail of a SIMD loop return
the second operand, the SIMD body the first), not on the order of the
additions.  A scatter with a different run layout cannot promise that
payload, so the conv differentials check exact bits when every NaN has
the platform's default pattern (what inf - inf gives) and NaN positions
plus every other bit when the payloads are mixed.  Pooling never adds
two inputs and keeps every payload.

The repeated-backward tests pin what ``NTKTraceScorer`` relies on: after
one forward pass, every ``backward`` call gives the same gradients.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.tensor.autodiff_ops as ops
from repro.apps import get_app
from repro.tensor.layers import BuildError

# ---------------------------------------------------------------------------
# frozen kernels (the implementations the current ones replaced)
# ---------------------------------------------------------------------------


def _frozen_conv2d_backward(gout, cache, need_gx=True):
    xp, kernel, (ph, pw), x_shape = cache
    kh, kw, cin, cout = kernel.shape
    n, ho, wo, _ = gout.shape
    g2 = gout.reshape(-1, cout)
    cols = ops.im2col2d(xp, kh, kw).reshape(-1, kh * kw * cin)
    gk = (cols.T @ g2).reshape(kh, kw, cin, cout)
    gb = g2.sum(axis=0)
    if not need_gx:
        return None, gk, gb
    k2t = kernel.reshape(kh * kw * cin, cout).T
    if cols.flags.writeable and cols.dtype == np.result_type(g2, k2t):
        gcols = np.matmul(g2, k2t, out=cols)
    else:
        gcols = g2 @ k2t
    gcols = gcols.reshape(n, ho, wo, kh, kw, cin)
    gxp = np.zeros(xp.shape, dtype=gout.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + ho, j:j + wo, :] += gcols[:, :, :, i, j, :]
    if ph or pw:
        h, w = x_shape[1], x_shape[2]
        gx = gxp[:, ph:ph + h, pw:pw + w, :]
    else:
        gx = gxp
    return gx, gk, gb


def _frozen_conv1d_backward(gout, cache, need_gx=True):
    cols, kernel, p, x_shape, xp_shape = cache
    k, cin, cout = kernel.shape
    n, lo, _ = gout.shape
    g2 = gout.reshape(-1, cout)
    c2 = cols.reshape(-1, k * cin)
    gk = (c2.T @ g2).reshape(k, cin, cout)
    gb = g2.sum(axis=0)
    if not need_gx:
        return None, gk, gb
    gcols = (g2 @ kernel.reshape(k * cin, cout).T).reshape(n, lo, k, cin)
    gxp = np.zeros(xp_shape, dtype=gout.dtype)
    for i in range(k):
        gxp[:, i:i + lo, :] += gcols[:, :, i, :]
    gx = gxp[:, p:p + x_shape[1], :] if p else gxp
    return gx, gk, gb


def _frozen_maxpool2d_forward(x, p):
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    xw = x[:, :ho * p, :wo * p, :].reshape(n, ho, p, wo, p, c) \
        .transpose(0, 1, 3, 5, 2, 4).reshape(n, ho, wo, c, p * p)
    idx = xw.argmax(axis=-1)
    out = np.take_along_axis(xw, idx[..., None], axis=-1)[..., 0]
    if p * p <= 0xFF:
        idx = idx.astype(np.uint8)
    return out, (idx, x.shape, p)


def _frozen_maxpool2d_backward(gout, cache):
    idx, x_shape, p = cache
    n, ho, wo, c = gout.shape
    gw = np.zeros((n, ho, wo, c, p * p), dtype=gout.dtype)
    np.put_along_axis(gw, idx[..., None], gout[..., None], axis=-1)
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gx[:, :ho * p, :wo * p, :] = gw.reshape(n, ho, wo, c, p, p) \
        .transpose(0, 1, 4, 2, 5, 3).reshape(n, ho * p, wo * p, c)
    return gx


def _frozen_avgpool2d_forward(x, p):
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    xv = x[:, :ho * p, :wo * p, :].reshape(n, ho, p, wo, p, c)
    return xv.mean(axis=(2, 4)), (x.shape, p, ho, wo)


def _frozen_avgpool2d_backward(gout, cache):
    x_shape, p, ho, wo = cache
    gx = np.zeros(x_shape, dtype=gout.dtype)
    g = np.repeat(np.repeat(gout, p, axis=1), p, axis=2) / (p * p)
    gx[:, :ho * p, :wo * p, :] = g
    return gx


def _frozen_maxpool1d_forward(x, p):
    n, length, c = x.shape
    lo = length // p
    xv = x[:, :lo * p, :].reshape(n, lo, p, c)
    idx = xv.argmax(axis=2)
    out = np.take_along_axis(xv, idx[:, :, None, :], axis=2)[:, :, 0, :]
    if p <= 0xFF:
        idx = idx.astype(np.uint8)
    return out, (idx, x.shape, p)


def _frozen_maxpool1d_backward(gout, cache):
    idx, x_shape, p = cache
    n, lo, c = gout.shape
    gv = np.zeros((n, lo, p, c), dtype=gout.dtype)
    np.put_along_axis(gv, idx[:, :, None, :], gout[:, :, None, :], axis=2)
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gx[:, :lo * p, :] = gv.reshape(n, lo * p, c)
    return gx


def _frozen_avgpool1d_forward(x, p):
    n, length, c = x.shape
    lo = length // p
    xv = x[:, :lo * p, :].reshape(n, lo, p, c)
    return xv.mean(axis=2), (x.shape, p, lo)


def _frozen_avgpool1d_backward(gout, cache):
    x_shape, p, lo = cache
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gx[:, :lo * p, :] = np.repeat(gout, p, axis=1) / p
    return gx


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

GENERATED = settings(derandomize=True, database=None, deadline=None,
                     max_examples=120,
                     suppress_health_check=[HealthCheck.too_slow])

DTYPES = (np.float32, np.float64)


def _default_nan(dtype):
    """The NaN this platform's arithmetic produces (inf - inf)."""
    inf = np.full(1, np.inf, dtype)
    with np.errstate(invalid="ignore"):
        return (inf - inf)[0]


def _nans(dtype):
    """Quiet NaNs with four different bit patterns (sign and payload)."""
    if dtype == np.float32:
        pats = np.array([0x7FC00000, 0x7FC00001, 0xFFC00000], np.uint32)
    else:
        pats = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                         0xFFF8000000000000], np.uint64)
    return list(pats.view(dtype)) + [_default_nan(dtype)]


def _values(dtype, draw_seed, grid, specials, shape, nans=None):
    """An array on ``grid`` (standard normals when ``grid`` is None) with
    ``specials`` NaN/inf/signed-zero values at random positions; the
    NaNs come from ``nans`` (default: every pattern of :func:`_nans`)."""
    rng = np.random.default_rng(draw_seed)
    if grid is None:
        a = rng.standard_normal(shape).astype(dtype)
    else:
        a = rng.choice(np.asarray(grid, dtype=dtype), size=shape)
    nans = _nans(dtype) if nans is None else nans
    pool = list(nans) + [np.inf, -np.inf, 0.0, -0.0]
    flat = a.reshape(-1)
    for pos in rng.integers(0, flat.size, size=specials):
        flat[pos] = pool[rng.integers(len(pool))]
    return a


#: pooling inputs: few distinct values, so windows tie (conv operands
#: are normals instead: sums of grid values are exact in any order, so
#: they could not tell a reordered scatter from the frozen one)
POOL_GRID = (-2.0, -1.0, -0.0, 0.0, 1.0)


def _bits(a, nan_payloads=True):
    a = np.array(a)  # a contiguous copy
    if not nan_payloads:
        a[np.isnan(a)] = _default_nan(a.dtype)
    return a.view(f"u{a.itemsize}")


def assert_bitwise(new, old, what="", nan_payloads=True):
    """Equal shapes, dtypes and bits; with ``nan_payloads`` false, every
    NaN counts as the default one (positions must still match)."""
    if old is None:
        assert new is None, what
        return
    assert new.shape == old.shape and new.dtype == old.dtype, what
    assert np.array_equal(_bits(new, nan_payloads),
                          _bits(old, nan_payloads)), what


#: how many NaN/inf/signed-zero values an input gets
SPECIALS = st.integers(0, 4)


# ---------------------------------------------------------------------------
# bitwise differentials
# ---------------------------------------------------------------------------


@GENERATED
@given(n=st.integers(1, 3), h=st.integers(1, 8), w=st.integers(1, 8),
       cin=st.integers(1, 4), cout=st.integers(1, 4),
       k=st.sampled_from((1, 3, 5)),
       padding=st.sampled_from(("same", "valid")), need_gx=st.booleans(),
       dtype=st.sampled_from(DTYPES),
       seed=st.integers(0, 2**32 - 1), specials=SPECIALS,
       mixed_nans=st.booleans())
def test_conv2d_backward_matches_frozen_bitwise(n, h, w, cin, cout, k,
                                                padding, need_gx, dtype,
                                                seed, specials, mixed_nans):
    assume(padding == "same" or (k <= h and k <= w))
    nans = None if mixed_nans else [_default_nan(dtype)]
    x = _values(dtype, seed, None, specials, (n, h, w, cin), nans)
    kern = _values(dtype, seed + 1, None, 0, (k, k, cin, cout))
    bias = np.zeros(cout, dtype=dtype)
    with np.errstate(invalid="ignore"):
        out, cache = ops.conv2d_forward(x, kern, bias, padding)
        gout = _values(dtype, seed + 2, None, specials, out.shape,
                       nans)
        new = ops.conv2d_backward(gout, cache, need_gx)
        old = _frozen_conv2d_backward(gout, cache, need_gx)
    for a, b, name in zip(new, old, ("gx", "gk", "gb")):
        assert_bitwise(a, b, name, nan_payloads=not mixed_nans)


@GENERATED
@given(n=st.integers(1, 3), length=st.integers(1, 12), cin=st.integers(1, 4),
       cout=st.integers(1, 4), k=st.sampled_from((1, 3, 5, 7)),
       padding=st.sampled_from(("same", "valid")), need_gx=st.booleans(),
       dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**32 - 1),
       specials=SPECIALS, mixed_nans=st.booleans())
def test_conv1d_backward_matches_frozen_bitwise(n, length, cin, cout, k,
                                                padding, need_gx, dtype,
                                                seed, specials, mixed_nans):
    assume(padding == "same" or k <= length)
    nans = None if mixed_nans else [_default_nan(dtype)]
    x = _values(dtype, seed, None, specials, (n, length, cin), nans)
    kern = _values(dtype, seed + 1, None, 0, (k, cin, cout))
    with np.errstate(invalid="ignore"):
        out, cache = ops.conv1d_forward(x, kern, np.zeros(cout, dtype),
                                        padding)
        gout = _values(dtype, seed + 2, None, specials, out.shape,
                       nans)
        new = ops.conv1d_backward(gout, cache, need_gx)
        old = _frozen_conv1d_backward(gout, cache, need_gx)
    for a, b, name in zip(new, old, ("gx", "gk", "gb")):
        assert_bitwise(a, b, name, nan_payloads=not mixed_nans)


POOLS_2D = {
    "max": (ops.maxpool2d_forward, ops.maxpool2d_backward,
            _frozen_maxpool2d_forward, _frozen_maxpool2d_backward),
    "avg": (ops.avgpool2d_forward, ops.avgpool2d_backward,
            _frozen_avgpool2d_forward, _frozen_avgpool2d_backward),
}
POOLS_1D = {
    "max": (ops.maxpool1d_forward, ops.maxpool1d_backward,
            _frozen_maxpool1d_forward, _frozen_maxpool1d_backward),
    "avg": (ops.avgpool1d_forward, ops.avgpool1d_backward,
            _frozen_avgpool1d_forward, _frozen_avgpool1d_backward),
}


def _check_pool(kernels, x, p, seed, specials):
    fwd, bwd, frozen_fwd, frozen_bwd = kernels
    with np.errstate(invalid="ignore"):
        out, cache = fwd(x, p)
        out_old, cache_old = frozen_fwd(x, p)
    assert_bitwise(out, out_old, "out")
    if isinstance(cache[0], np.ndarray):  # max-pool window indices
        assert_bitwise(cache[0], cache_old[0], "idx")
    assert cache[1:] == cache_old[1:]
    gout = _values(x.dtype, seed + 1, None, specials, out.shape)
    assert_bitwise(bwd(gout, cache), frozen_bwd(gout, cache_old), "gx")


@pytest.mark.parametrize("kind", sorted(POOLS_2D))
def test_pool2d_matches_frozen_bitwise(kind):
    @GENERATED
    @given(n=st.integers(1, 3), ho=st.integers(1, 4), wo=st.integers(1, 4),
           c=st.integers(1, 5), p=st.sampled_from((2, 3)),
           rh=st.integers(0, 2), rw=st.integers(0, 2),
           dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**32 - 1),
           specials=SPECIALS)
    def check(n, ho, wo, c, p, rh, rw, dtype, seed, specials):
        shape = (n, ho * p + rh % p, wo * p + rw % p, c)
        x = _values(dtype, seed, POOL_GRID, specials, shape)
        _check_pool(POOLS_2D[kind], x, p, seed, specials)

    check()


@pytest.mark.parametrize("kind", sorted(POOLS_1D))
def test_pool1d_matches_frozen_bitwise(kind):
    @GENERATED
    @given(n=st.integers(1, 3), lo=st.integers(1, 6), c=st.integers(1, 5),
           p=st.sampled_from((2, 3)), r=st.integers(0, 2),
           dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**32 - 1),
           specials=SPECIALS)
    def check(n, lo, c, p, r, dtype, seed, specials):
        x = _values(dtype, seed, POOL_GRID, specials, (n, lo * p + r % p, c))
        _check_pool(POOLS_1D[kind], x, p, seed, specials)

    check()


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool_ties_keep_the_first_signed_zero_and_nan(dtype):
    """Hand-picked windows the generated ones may miss: a -0.0/+0.0 tie
    in either order, and two NaNs with different payloads."""
    nan_a, nan_b = _nans(dtype)[:2]
    windows = [(-0.0, 0.0, -1.0, -0.0), (0.0, -0.0, -0.0, 0.0),
               (1.0, nan_a, nan_b, 2.0), (-np.inf, -np.inf, -np.inf, -0.0)]
    x = np.array(windows, dtype=dtype).reshape(4, 2, 2, 1)
    out, (idx, _, _) = ops.maxpool2d_forward(x, 2)
    out_old, (idx_old, _, _) = _frozen_maxpool2d_forward(x, 2)
    assert idx.ravel().tolist() == idx_old.ravel().tolist() == [0, 0, 1, 3]
    assert_bitwise(out, out_old)
    assert_bitwise(out.ravel(), np.array([-0.0, 0.0, nan_a, -0.0], dtype))
    out1, (idx1, _, _) = ops.maxpool1d_forward(x.reshape(4, 4, 1), 4)
    assert idx1.ravel().tolist() == [0, 0, 1, 3]
    assert_bitwise(out1, out.reshape(4, 1, 1))


# ---------------------------------------------------------------------------
# repeated backward after one forward
# ---------------------------------------------------------------------------


def _conv2d_case(rng):
    x = rng.normal(size=(3, 7, 6, 4)).astype(np.float32)
    kern = rng.normal(size=(3, 3, 4, 5)).astype(np.float32)
    return (lambda: ops.conv2d_forward(x, kern, np.zeros(5, np.float32)),
            ops.conv2d_backward)


def _conv1d_case(rng, strided=False):
    x = rng.normal(size=(3, 22 if strided else 11, 4)).astype(np.float32)
    if strided:
        # a non-contiguous "valid" input: the forward's reshape copies,
        # so the cache holds a writeable column matrix of its own
        x = x[:, ::2, :]
    kern = rng.normal(size=(5, 4, 3)).astype(np.float32)
    padding = "valid" if strided else "same"
    return (lambda: ops.conv1d_forward(x, kern, np.zeros(3, np.float32),
                                       padding),
            ops.conv1d_backward)


def _pool_case(fwd, bwd, shape):
    def case(rng):
        x = rng.normal(size=shape).astype(np.float32)
        return (lambda: fwd(x, 2)), bwd
    return case


REPEAT_CASES = {
    "conv2d": _conv2d_case,
    "conv1d": _conv1d_case,
    "conv1d_copied_columns": lambda rng: _conv1d_case(rng, strided=True),
    "maxpool2d": _pool_case(ops.maxpool2d_forward, ops.maxpool2d_backward,
                            (3, 7, 6, 4)),
    "avgpool2d": _pool_case(ops.avgpool2d_forward, ops.avgpool2d_backward,
                            (3, 7, 6, 4)),
    "maxpool1d": _pool_case(ops.maxpool1d_forward, ops.maxpool1d_backward,
                            (3, 11, 4)),
    "avgpool1d": _pool_case(ops.avgpool1d_forward, ops.avgpool1d_backward,
                            (3, 11, 4)),
}


@pytest.mark.parametrize("name", sorted(REPEAT_CASES))
def test_kernel_backward_repeats_bitwise(name):
    rng = np.random.default_rng(0)
    forward, backward = REPEAT_CASES[name](rng)
    out, cache = forward()
    gout = rng.normal(size=out.shape).astype(np.float32)
    first = backward(gout, cache)
    first = first if isinstance(first, tuple) else (first,)
    first = tuple(a.copy() for a in first)
    second = backward(gout, cache)
    second = second if isinstance(second, tuple) else (second,)
    for a, b in zip(second, first):
        assert_bitwise(a, b, name)


APPS = ("cifar10", "mnist", "nt3", "uno")


@lru_cache(maxsize=None)
def _problem(app):
    return get_app(app).problem(seed=0)


@pytest.mark.parametrize("app", APPS)
def test_network_backward_repeats_bitwise(app):
    """Two ``backward`` calls after one forward give bitwise-equal
    parameter gradients, in inference and training mode."""
    prob = _problem(app)
    ds = prob.dataset
    n = 8
    xb = [a[:n] for a in ds.x_train] \
        if isinstance(ds.x_train, (list, tuple)) else ds.x_train[:n]
    counts = prob.space.choice_counts()

    @settings(GENERATED, max_examples=6)
    @given(seq=st.tuples(*(st.integers(0, c - 1) for c in counts)))
    def check(seq):
        try:
            model = prob.build_model(seq, rng=0)
        except BuildError:
            assume(False)
        trained = list(model.trainable())
        for training in (False, True):
            out = model.forward(xb, training=training)
            probe = np.random.default_rng(1).choice(
                np.array([-1.0, 1.0], np.float32), size=out.shape)
            model.backward(probe)
            first = {(layer.name, p): layer.grads[p].copy()
                     for _, layer, p in trained}
            model.backward(probe)
            for _, layer, p in trained:
                assert_bitwise(layer.grads[p], first[layer.name, p],
                               f"{layer.name}.{p}")

    check()
