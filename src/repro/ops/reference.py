"""Golden (fault-free) reference implementations in plain numpy.

These are the oracles the FI framework diffs against ("ground truth",
Section III-B) and the functional-correctness baseline for every execution
path in the repo. All references use the same wrap-around INT32 semantics
as the hardware, so a golden systolic run must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ops.im2col import ConvGeometry
from repro.systolic.datatypes import INT8, INT32, IntType, wrap_array

__all__ = ["reference_gemm", "reference_conv2d", "uniform_ones"]


def reference_gemm(
    a: np.ndarray,
    b: np.ndarray,
    bias: np.ndarray | None = None,
    input_dtype: IntType = INT8,
    acc_dtype: IntType = INT32,
) -> np.ndarray:
    """Wrapping-INT32 matrix product, bit-exact with a golden mesh run."""
    a = wrap_array(np.asarray(a), input_dtype)
    b = wrap_array(np.asarray(b), input_dtype)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(
            f"incompatible GEMM operands: {np.asarray(a).shape} @ {np.asarray(b).shape}"
        )
    out = a @ b
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.int64)
    return wrap_array(out, acc_dtype)


def reference_conv2d(
    inputs: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    input_dtype: IntType = INT8,
    acc_dtype: IntType = INT32,
) -> np.ndarray:
    """Direct (non-lowered) convolution with hardware wrap semantics.

    Used to validate the im2col + GEMM path: the two must agree exactly,
    because wrapped addition is associative modulo ``2**width``.
    """
    inputs = wrap_array(np.asarray(inputs), input_dtype)
    weights = wrap_array(np.asarray(weights), input_dtype)
    geometry = ConvGeometry.from_tensors(inputs, weights, stride=stride, padding=padding)
    g = geometry
    if padding:
        inputs = np.pad(
            inputs,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    out = np.zeros((g.n, g.k, g.p, g.q), dtype=np.int64)
    for n in range(g.n):
        for k in range(g.k):
            for p in range(g.p):
                for q in range(g.q):
                    window = inputs[
                        n,
                        :,
                        p * stride : p * stride + g.r,
                        q * stride : q * stride + g.s,
                    ]
                    out[n, k, p, q] = np.sum(
                        window * weights[k], dtype=np.int64
                    )
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int64)
        if bias.shape != (g.k,):
            raise ValueError(f"bias must have shape ({g.k},), got {bias.shape}")
        out = out + bias[None, :, None, None]
    return wrap_array(out, acc_dtype)


def uniform_ones(*shape: int) -> np.ndarray:
    """The paper's anti-masking operand: a uniform all-ones matrix.

    Near-zero DNN weights can suppress fault patterns (Challenge 2,
    Section III-A); pattern-extraction campaigns therefore use all-ones
    operands so every fault that can manifest does manifest.
    """
    return np.ones(shape, dtype=np.int64)
