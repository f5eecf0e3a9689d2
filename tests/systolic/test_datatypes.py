"""Unit tests for fixed-width two's-complement arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.systolic.datatypes import (
    INT8,
    INT16,
    INT32,
    UINT8,
    IntType,
    flip_bit_array,
    force_bit_array,
    wrap_array,
)


class TestRanges:
    def test_int8_range(self):
        assert INT8.min_value == -128
        assert INT8.max_value == 127

    def test_int32_range(self):
        assert INT32.min_value == -(2**31)
        assert INT32.max_value == 2**31 - 1

    def test_uint8_range(self):
        assert UINT8.min_value == 0
        assert UINT8.max_value == 255

    def test_mask(self):
        assert INT8.mask == 0xFF
        assert INT32.mask == 0xFFFFFFFF

    def test_contains(self):
        assert INT8.contains(127)
        assert INT8.contains(-128)
        assert not INT8.contains(128)
        assert not INT8.contains(-129)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            IntType(width=0, signed=True, name="BAD")


class TestWrap:
    def test_identity_in_range(self):
        for v in (-128, -1, 0, 1, 127):
            assert INT8.wrap(v) == v

    def test_positive_overflow_wraps_negative(self):
        assert INT8.wrap(128) == -128
        assert INT8.wrap(129) == -127
        assert INT32.wrap(2**31) == -(2**31)

    def test_negative_overflow_wraps_positive(self):
        assert INT8.wrap(-129) == 127
        assert INT32.wrap(-(2**31) - 1) == 2**31 - 1

    def test_unsigned_wrap(self):
        assert UINT8.wrap(256) == 0
        assert UINT8.wrap(-1) == 255

    def test_wrap_is_mod_2w(self):
        for v in range(-600, 600, 7):
            assert INT8.wrap(v) % 256 == v % 256

    def test_clamp_saturates(self):
        assert INT8.clamp(500) == 127
        assert INT8.clamp(-500) == -128
        assert INT8.clamp(5) == 5

    def test_unsigned_roundtrip(self):
        for v in (-128, -1, 0, 1, 127):
            assert INT8.from_unsigned(INT8.to_unsigned(v)) == v


class TestBits:
    def test_get_bit(self):
        assert INT8.get_bit(0b0101, 0) == 1
        assert INT8.get_bit(0b0101, 1) == 0
        assert INT8.get_bit(-1, 7) == 1  # sign bit of -1 is set

    def test_force_bit_set(self):
        assert INT32.force_bit(0, 3, 1) == 8
        assert INT32.force_bit(8, 3, 1) == 8  # idempotent

    def test_force_bit_clear(self):
        assert INT32.force_bit(8, 3, 0) == 0
        assert INT32.force_bit(0, 3, 0) == 0

    def test_force_sign_bit_negates(self):
        assert INT8.force_bit(0, 7, 1) == -128
        assert INT8.force_bit(-128, 7, 0) == 0

    def test_force_is_idempotent(self):
        for v in range(-128, 128):
            once = INT8.force_bit(v, 5, 1)
            assert INT8.force_bit(once, 5, 1) == once

    def test_flip_bit_is_involution(self):
        for v in (-100, -1, 0, 1, 42, 127):
            assert INT8.flip_bit(INT8.flip_bit(v, 4), 4) == v

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ValueError):
            INT8.get_bit(0, 8)
        with pytest.raises(ValueError):
            INT32.force_bit(0, 32, 1)
        with pytest.raises(ValueError):
            INT8.flip_bit(0, -1)

    def test_bad_stuck_value_rejected(self):
        with pytest.raises(ValueError):
            INT8.force_bit(0, 0, 2)

    def test_bit_string(self):
        assert INT8.bit_string(5) == "00000101"
        assert INT8.bit_string(-1) == "11111111"


class TestAlu:
    def test_add_wraps(self):
        assert INT8.add(127, 1) == -128

    def test_mul_wraps(self):
        assert INT8.mul(64, 2) == -128
        assert INT16.mul(-128, -128) == 16384  # int8 product fits int16

    def test_int8_product_fits_int32(self):
        assert INT32.mul(-128, -128) == 16384


class TestNumpyDtype:
    def test_dtypes(self):
        assert INT8.numpy_dtype == np.dtype(np.int8)
        assert INT16.numpy_dtype == np.dtype(np.int16)
        assert INT32.numpy_dtype == np.dtype(np.int32)
        assert UINT8.numpy_dtype == np.dtype(np.uint8)


class TestVectorised:
    def test_wrap_array_matches_scalar(self):
        values = np.arange(-300, 300, 13)
        wrapped = wrap_array(values, INT8)
        for v, w in zip(values.tolist(), wrapped.tolist()):
            assert w == INT8.wrap(v)

    def test_wrap_array_returns_int64(self):
        assert wrap_array(np.array([1, 2]), INT32).dtype == np.int64

    def test_force_bit_array_matches_scalar(self):
        values = np.arange(-50, 50)
        for stuck in (0, 1):
            forced = force_bit_array(values, 4, stuck, INT8)
            for v, f in zip(values.tolist(), forced.tolist()):
                assert f == INT8.force_bit(v, 4, stuck)

    def test_flip_bit_array_matches_scalar(self):
        values = np.arange(-50, 50)
        flipped = flip_bit_array(values, 6, INT8)
        for v, f in zip(values.tolist(), flipped.tolist()):
            assert f == INT8.flip_bit(v, 6)

    def test_force_bit_array_validates(self):
        with pytest.raises(ValueError):
            force_bit_array(np.array([0]), 8, 1, INT8)
        with pytest.raises(ValueError):
            force_bit_array(np.array([0]), 0, 5, INT8)

    def test_high_bit_force_int32(self):
        forced = force_bit_array(np.array([0]), 31, 1, INT32)
        assert forced[0] == -(2**31)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def typed_values(draw):
    """An ``IntType`` of width 1-63 and int64 values for it, boundary
    values (+-2**(w-1), 2**w and their neighbours) mixed with arbitrary
    ones."""
    width = draw(st.integers(min_value=1, max_value=63))
    dtype = IntType(width=width, signed=draw(st.booleans()), name="t")
    edges = [
        edge + delta
        for edge in (0, 2 ** (width - 1), -(2 ** (width - 1)), 2**width)
        for delta in (-1, 0, 1)
        if INT64_MIN <= edge + delta <= INT64_MAX
    ]
    value = st.one_of(
        st.sampled_from(edges),
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    )
    return dtype, draw(st.lists(value, min_size=1, max_size=16))


class TestVectorisedMatchesScalar:
    """The vectorised helpers are the scalar ``IntType`` operations,
    elementwise, on every width the int64 carrier holds."""

    @given(typed_values())
    def test_wrap_array(self, case):
        dtype, values = case
        array = np.array(values, dtype=np.int64)
        wrapped = wrap_array(array, dtype)
        assert wrapped.dtype == np.int64
        assert wrapped.tolist() == [dtype.wrap(v) for v in values]
        assert array.tolist() == values  # the input is not modified

    @given(typed_values(), st.data())
    def test_force_bit_array(self, case, data):
        dtype, values = case
        bit = data.draw(st.integers(min_value=0, max_value=dtype.width - 1))
        stuck = data.draw(st.sampled_from([0, 1]))
        array = np.array(values, dtype=np.int64)
        forced = force_bit_array(array, bit, stuck, dtype)
        assert forced.dtype == np.int64
        assert forced.tolist() == [
            dtype.force_bit(v, bit, stuck) for v in values
        ]
        assert array.tolist() == values

    @given(typed_values(), st.data())
    def test_flip_bit_array(self, case, data):
        dtype, values = case
        bit = data.draw(st.integers(min_value=0, max_value=dtype.width - 1))
        array = np.array(values, dtype=np.int64)
        assert flip_bit_array(array, bit, dtype).tolist() == [
            dtype.flip_bit(v, bit) for v in values
        ]
        assert array.tolist() == values

    @given(typed_values())
    def test_zero_dim_input(self, case):
        # A 0-d input yields a 0-d array from the signed wrap and an int64
        # scalar from the unsigned one; both index and compare like ints.
        dtype, (value, *_) = case
        kind = np.ndarray if dtype.signed else np.int64
        for given_value in (value, np.int64(value), np.array(value)):
            wrapped = wrap_array(given_value, dtype)
            assert type(wrapped) is kind
            assert wrapped.dtype == np.int64 and wrapped.ndim == 0
            assert int(wrapped) == dtype.wrap(value)
            forced = force_bit_array(given_value, 0, 1, dtype)
            assert type(forced) is kind
            assert int(forced) == dtype.force_bit(value, 0, 1)
