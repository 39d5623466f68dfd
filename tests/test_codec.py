"""Generated round-trip and damage tests for the checkpoint codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.checkpoint.codec import (
    ALIGN,
    CorruptCheckpointError,
    decode_views,
    encode,
)

DTYPES = [np.float32, np.float64, np.int64, np.uint8, np.bool_]
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def tensors(draw):
    """An array in C, Fortran, transposed or reversed memory layout;
    0-d and empty shapes included."""
    arr = draw(hnp.arrays(
        st.sampled_from(DTYPES),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))
    layout = draw(st.sampled_from(["c", "f", "t", "rev"]))
    if layout == "f":
        return np.asfortranarray(arr)
    if layout == "t":
        return arr.T
    if layout == "rev" and arr.ndim:
        return arr[::-1]
    return arr


names = st.text(max_size=8)          # any unicode, the empty name included
weight_dicts = st.lists(st.tuples(names, tensors()), max_size=5,
                        unique_by=lambda t: t[0]).map(dict)
json_meta = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


def _address(arr) -> int:
    return arr.__array_interface__["data"][0]


@SETTINGS
@given(weight_dicts, json_meta, st.booleans())
def test_round_trip_is_bitwise(weights, meta, compress):
    blob = encode(weights, meta, compress=compress)   # a writable buffer
    out, out_meta = decode_views(blob)
    assert out_meta == meta
    assert list(out) == list(weights)
    base = _address(np.frombuffer(blob, np.uint8))
    for name, arr in weights.items():
        view = out[name]
        assert view.dtype == arr.dtype and view.shape == arr.shape
        assert view.tobytes() == arr.tobytes()
        assert view.flags.aligned and not view.flags.writeable
        if not compress and view.size:
            assert (_address(view) - base) % ALIGN == 0


@SETTINGS
@given(weight_dicts, st.booleans(), st.data())
def test_damaged_blob_raises_corrupt_checkpoint(weights, compress, data):
    blob = bytes(encode(weights, {"score": 0.5}, compress=compress))
    damage = data.draw(st.sampled_from(["truncate", "append", "flip"]))
    if damage == "truncate":
        bad = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "append":
        bad = blob + data.draw(st.binary(min_size=1, max_size=80))
    else:
        at = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        bad = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
    with pytest.raises(CorruptCheckpointError):
        decode_views(bad)


def test_object_arrays_are_refused():
    with pytest.raises(ValueError, match="OBJECT"):
        encode({"names": np.array(["a", None], dtype=object)})
