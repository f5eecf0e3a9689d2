"""Fixed-width two's-complement arithmetic for the systolic datapath.

The paper's systolic array (Gemmini configured for INT8) multiplies INT8
operands into an INT32 accumulator. Hardware arithmetic wraps on overflow;
Python integers do not. This module provides the bit-accurate primitives the
rest of the simulator is built on:

* :class:`IntType` — a width/signedness specification with wrap, clamp,
  bit-extraction, and bit-forcing operations. The forcing operations are the
  mechanism through which stuck-at faults perturb datapath signals.
* Pre-built specs :data:`INT8`, :data:`INT16`, :data:`INT32` matching the
  Gemmini INT8 configuration used in the paper (inputs INT8, products INT16,
  accumulation INT32).

All operations are defined on plain Python ints so that the cycle-level
simulator stays dependency-free; :func:`wrap_array` provides the vectorised
counterpart used by the fast functional engine.

Example
-------
>>> from repro.systolic.datatypes import INT32
>>> INT32.wrap(2**31)          # hardware wrap-around
-2147483648
>>> INT32.force_bit(0, 3, 1)   # stuck-at-1 on bit 3 of a zero signal
8
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntType",
    "INT8",
    "INT16",
    "INT32",
    "UINT8",
    "wrap_array",
    "force_bit_array",
    "flip_bit_array",
]


@dataclass(frozen=True)
class IntType:
    """A fixed-width integer type with hardware (wrapping) semantics.

    Parameters
    ----------
    width:
        Number of bits, including the sign bit for signed types.
    signed:
        Whether values are interpreted as two's complement.
    name:
        Human-readable name used in reprs and error messages.
    """

    width: int
    signed: bool
    name: str

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")

    # ------------------------------------------------------------------
    # Ranges
    # ------------------------------------------------------------------
    @property
    def min_value(self) -> int:
        """Smallest representable value."""
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        """Largest representable value."""
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    @property
    def mask(self) -> int:
        """All-ones bit mask of this width."""
        return (1 << self.width) - 1

    def contains(self, value: int) -> bool:
        """Return True if ``value`` is representable without wrapping."""
        return self.min_value <= value <= self.max_value

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def wrap(self, value: int) -> int:
        """Reduce ``value`` modulo 2**width, reinterpreting as this type.

        This is the semantics of hardware adders/multipliers that simply
        truncate carries beyond the register width.
        """
        value &= self.mask
        if self.signed and value > self.max_value:
            value -= 1 << self.width
        return value

    def clamp(self, value: int) -> int:
        """Saturate ``value`` into range (used by quantisation, not the ALU)."""
        return max(self.min_value, min(self.max_value, value))

    def to_unsigned(self, value: int) -> int:
        """Reinterpret a (possibly negative) value as its raw bit pattern."""
        return value & self.mask

    def from_unsigned(self, bits: int) -> int:
        """Reinterpret a raw bit pattern as a value of this type."""
        return self.wrap(bits)

    # ------------------------------------------------------------------
    # Bit-level operations (the fault-injection primitives)
    # ------------------------------------------------------------------
    def check_bit(self, bit: int) -> None:
        """Validate that ``bit`` indexes a bit of this type.

        Raises
        ------
        ValueError
            If ``bit`` is out of ``[0, width)``.
        """
        if not 0 <= bit < self.width:
            raise ValueError(
                f"bit {bit} out of range for {self.name} (width {self.width})"
            )

    def get_bit(self, value: int, bit: int) -> int:
        """Return bit ``bit`` (0 = LSB) of ``value``'s two's-complement form."""
        self.check_bit(bit)
        return (self.to_unsigned(value) >> bit) & 1

    def force_bit(self, value: int, bit: int, stuck_value: int) -> int:
        """Force bit ``bit`` of ``value`` to ``stuck_value`` (0 or 1).

        This models a stuck-at fault on one wire of a bus: the faulty wire
        always carries ``stuck_value`` regardless of the driven value.
        """
        self.check_bit(bit)
        if stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, got {stuck_value}")
        bits = self.to_unsigned(value)
        if stuck_value:
            bits |= 1 << bit
        else:
            bits &= ~(1 << bit)
        return self.from_unsigned(bits)

    def flip_bit(self, value: int, bit: int) -> int:
        """Invert bit ``bit`` of ``value`` (transient bit-flip model)."""
        self.check_bit(bit)
        return self.from_unsigned(self.to_unsigned(value) ^ (1 << bit))

    # ------------------------------------------------------------------
    # Wrapping ALU helpers
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """Wrapping addition."""
        return self.wrap(a + b)

    def mul(self, a: int, b: int) -> int:
        """Wrapping multiplication."""
        return self.wrap(a * b)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def bit_string(self, value: int) -> str:
        """Render ``value`` as a binary string of exactly ``width`` digits."""
        return format(self.to_unsigned(value), f"0{self.width}b")

    @property
    def numpy_dtype(self) -> np.dtype:
        """The smallest numpy dtype that stores raw values of this type."""
        if self.width <= 8:
            return np.dtype(np.int8 if self.signed else np.uint8)
        if self.width <= 16:
            return np.dtype(np.int16 if self.signed else np.uint16)
        if self.width <= 32:
            return np.dtype(np.int32 if self.signed else np.uint32)
        if self.width <= 64:
            return np.dtype(np.int64 if self.signed else np.uint64)
        raise ValueError(f"no numpy dtype for width {self.width}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


INT8 = IntType(width=8, signed=True, name="INT8")
INT16 = IntType(width=16, signed=True, name="INT16")
INT32 = IntType(width=32, signed=True, name="INT32")
UINT8 = IntType(width=8, signed=False, name="UINT8")


# ----------------------------------------------------------------------
# Vectorised counterparts (used by repro.systolic.functional)
# ----------------------------------------------------------------------
def wrap_array(values: np.ndarray, dtype: IntType) -> np.ndarray:
    """Wrap an int64 array into ``dtype``'s range, returning int64.

    int64 is retained so that downstream arithmetic (which may itself wrap)
    never overflows numpy's fixed-width types mid-expression.
    """
    mask = np.int64(dtype.mask)
    if not dtype.signed:
        return np.asarray(values, dtype=np.int64) & mask
    # ((v + 2**(w-1)) & mask) - 2**(w-1), in place on one new array; an
    # int64 overflow in the offset wraps mod 2**64, which the mask undoes.
    half = np.int64(1 << (dtype.width - 1))
    wrapped = np.array(values, dtype=np.int64)
    wrapped += half
    wrapped &= mask
    wrapped -= half
    return wrapped


def force_bit_array(
    values: np.ndarray, bit: int, stuck_value: int, dtype: IntType
) -> np.ndarray:
    """Vectorised :meth:`IntType.force_bit` over an int64 array."""
    dtype.check_bit(bit)
    if stuck_value not in (0, 1):
        raise ValueError(f"stuck_value must be 0 or 1, got {stuck_value}")
    # Bit operations below the width commute with the wrap, which masks.
    raw = np.asarray(values, dtype=np.int64)
    if stuck_value:
        return wrap_array(raw | np.int64(1 << bit), dtype)
    return wrap_array(raw & np.int64(~(1 << bit)), dtype)


def flip_bit_array(values: np.ndarray, bit: int, dtype: IntType) -> np.ndarray:
    """Vectorised :meth:`IntType.flip_bit` over an int64 array."""
    dtype.check_bit(bit)
    raw = np.asarray(values, dtype=np.int64)
    return wrap_array(raw ^ np.int64(1 << bit), dtype)
