"""Arithmetic on truncated complex power series.

A truncated series is a 1-d complex128 array ``c`` of the coefficients of

    s(z) = c[0] + c[1] z + c[2] z**2 + ... + c[N] z**N

indexed by power, whose order ``N`` is ``c.size - 1`` (default 32).
Coefficients beyond the order are treated as unknown rather than zero, so
every operation obeys truncation consistency: coefficient ``k`` of a result
depends only on coefficients ``0..k`` of the operands, and binary operations
return a series truncated at the smaller of the two operand orders.  Adding
arrays or scaling one by a number needs no function of its own; operands
of ``+`` and ``-`` must have the same order.

The module provides products, quotients, composition, and for a series with
zero constant term exp, sinh and the termwise integral of ``s(t)/t`` (class
members are ``z exp(integral_0^z sinh(w(t))/t dt)``), Horner evaluation and
differentiation.  Every operation is a pure function: it never writes into
its operands, and it lets non-finite values through.

:func:`coefficients` is the one checked constructor: a finite, read-only
copy padded or cut to an order.  It is called where outside input enters a
series, not on the arrays the operations build.

Series serialize as a JSON array of ``[re, im]`` pairs indexed by power
(element 0 is the constant term); see :func:`to_pairs`.  Such an array is
read back by ``coefficients(json_numbers(pairs, field, pairs=True))``, where
:func:`json_numbers` checks the numbers and names ``field`` in its errors.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

DEFAULT_ORDER = 32

#: Magnitude below which a constant term is considered too close to zero to
#: divide by.
CONSTANT_TERM_TOL = 1e-14


class SeriesError(ValueError):
    """Base class for series precondition failures."""


class NearZeroConstantTerm(SeriesError):
    """Division requested by a series with |c[0]| below tolerance."""


class NonzeroInnerConstant(SeriesError):
    """Composition, integration of s(t)/t or division by z got a constant term other than 0."""


# -- constructors ---------------------------------------------------------


def coefficients(values: Iterable[complex], order: int | None = None) -> np.ndarray:
    """Checked read-only copy of the coefficients ``values``, by increasing power.

    They must be non-empty, 1-d and finite.  With ``order`` they are padded
    with zeros or cut to length ``order + 1``.
    """
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values),
                     dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must form a non-empty 1-d sequence")
    if order is not None:
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        out = np.zeros(order + 1, dtype=np.complex128)
        keep = min(arr.size, order + 1)
        out[:keep] = arr[:keep]
        arr = out
    else:
        arr = arr.copy()
    if not np.isfinite(arr).all():
        raise ValueError("series coefficients must be finite")
    arr.setflags(write=False)
    return arr


def constant(value: complex, order: int = DEFAULT_ORDER) -> np.ndarray:
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = value
    return out


def monomial(k: int, order: int = DEFAULT_ORDER) -> np.ndarray:
    if not 0 <= k <= order:
        raise ValueError(f"monomial power {k} outside order {order}")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[k] = 1.0
    return out


def json_numbers(value, field: str, pairs: bool = False) -> list:
    """The JSON array ``value`` of numbers as floats, or with ``pairs`` of
    ``[re, im]`` pairs (``json_pair``) as complex numbers.

    A number is a JSON int or float that fits a float.  Anything else where
    an array or a number belongs, a string or a bool among them, raises
    ValueError naming ``field``.
    """
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, got {type(value).__name__}")
    if pairs:
        return [json_pair(p, f"{field}[{i}]") for i, p in enumerate(value)]
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{field}[{i}] must be a JSON number, got {type(x).__name__}")
    try:
        return [float(x) for x in value]
    except OverflowError:
        raise ValueError(f"{field} holds an int too large for a float") from None


def json_pair(value, field: str) -> complex:
    """The JSON array ``value`` of exactly two numbers, ``[re, im]``, as a complex number."""
    re_im = json_numbers(value, field)
    if len(re_im) != 2:
        raise ValueError(f"{field} must be an [re, im] pair of two numbers, got {len(re_im)}")
    return complex(*re_im)


def to_pairs(s: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in s]


# -- core operations ------------------------------------------------------


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated at the smaller operand order."""
    n = min(a.size, b.size) - 1
    return np.convolve(a[: n + 1], b[: n + 1])[: n + 1]


def div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quotient a/b up to the smaller operand order, by the division recurrence.

    Requires ``|b[0]|`` above the constant-term tolerance.
    """
    b0 = b[0]
    if abs(b0) <= CONSTANT_TERM_TOL:
        raise NearZeroConstantTerm(
            f"cannot divide by series with |constant term| = {abs(b0):.3e}")
    n = min(a.size, b.size) - 1
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = a[0] / b0
    for k in range(1, n + 1):
        out[k] = (a[k] - np.dot(b[1 : k + 1], out[k - 1 :: -1])) / b0
    return out


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer(inner(z)) up to the smaller operand order, by nested Horner multiplication.

    The inner constant term must be exactly zero, otherwise the result
    would need all (untracked) higher coefficients of the outer series.
    Each Horner step, ``acc = convolve(acc, inner)[:n + 1]`` and then
    ``acc[0] += outer[k]``, has the bits of ``mul(acc, inner)`` plus the
    zero-padded constant ``outer[k]``: no convolution sum is -0.0, which
    adding 0.0 would change.
    """
    if inner[0] != 0:
        raise NonzeroInnerConstant(f"inner constant term must be exactly 0, got {inner[0]}")
    n = min(outer.size, inner.size) - 1
    b = inner[: n + 1]
    acc = np.zeros(n + 1, dtype=np.complex128)
    acc[0] = outer[n]
    for k in range(n - 1, -1, -1):
        acc = np.convolve(acc, b)[: n + 1]
        acc[0] += outer[k]
    return acc


def derivative(s: np.ndarray) -> np.ndarray:
    """Termwise derivative; the order drops by one."""
    if s.size == 1:
        return np.zeros(1, dtype=np.complex128)
    return s[1:] * np.arange(1, s.size)


def integrate_over_t(s: np.ndarray) -> np.ndarray:
    """Termwise integral of s(t)/t from 0 to z.

    Requires ``s[0] == 0`` exactly (else ``NonzeroInnerConstant``); the result
    has zero constant term and coefficient ``s[k]/k`` at power k.
    """
    if s[0] != 0:
        raise NonzeroInnerConstant(f"constant term must be exactly 0, got {s[0]}")
    out = np.zeros(s.size, dtype=np.complex128)
    out[1:] = s[1:] / np.arange(1, s.size)
    return out


def evaluate(coeffs: np.ndarray, z) -> np.ndarray:
    """Horner sum of the coefficients at the array z, from the top power down.

    A coefficient may be a row with one value per lane.  The steps are
    np.polyval's, y = y z + c, run in place, so each value has np.polyval's
    bits on the array z.  numpy's in-place complex multiply rounds
    differently only on a single element, which goes through t.

    Truncation error grows with ``|z|``; values near ``|z| = 1`` are only as
    good as the coefficient decay allows.
    """
    z = np.asarray(z)
    y = np.zeros(np.broadcast_shapes(z.shape, coeffs.shape[1:]), np.result_type(coeffs, z))
    t = y if y.size > 1 else np.empty_like(y)
    for c in coeffs[::-1]:
        np.add(np.multiply(y, z, out=t), c, out=y)
    return y


def shift_up(s: np.ndarray) -> np.ndarray:
    """Multiply by z (coefficients shift one power up; order grows by one)."""
    out = np.zeros(s.size + 1, dtype=np.complex128)
    out[1:] = s
    return out


def shift_down(s: np.ndarray) -> np.ndarray:
    """Divide by z; requires an exactly zero constant term."""
    if s[0] != 0:
        raise NonzeroInnerConstant(f"cannot divide by z: constant term is {s[0]}")
    if s.size == 1:
        return np.zeros(1, dtype=np.complex128)
    return s[1:].copy()


# -- transcendental maps --------------------------------------------------


@functools.cache
def _inverse_factorials(order: int) -> np.ndarray:
    """1/k! for k = 0..order, by successive division; read-only and built once per order."""
    out = np.empty(order + 1, dtype=np.complex128)
    inv_fact = 1.0
    for k in range(order + 1):
        out[k] = inv_fact
        inv_fact /= k + 1
    out.setflags(write=False)
    return out


@functools.cache
def _odd_inverse_factorials(order: int) -> np.ndarray:
    """1/k! for odd k and 0.0 for even k = 0..order; read-only and built once per order."""
    out = _inverse_factorials(order).copy()
    out[::2] = 0.0
    out.setflags(write=False)
    return out


def exp(s: np.ndarray) -> np.ndarray:
    """exp of a series with constant term exactly 0: the 1/k! table composed with it."""
    return compose(_inverse_factorials(s.size - 1), s)


def sinh(s: np.ndarray) -> np.ndarray:
    """sinh of a series with constant term exactly 0: the odd 1/k! composed with it."""
    return compose(_odd_inverse_factorials(s.size - 1), s)
