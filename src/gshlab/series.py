"""Arithmetic on truncated complex power series.

A :class:`TruncatedSeries` holds the coefficients ``c[0] .. c[N]`` of

    s(z) = c[0] + c[1] z + c[2] z**2 + ... + c[N] z**N

where ``N`` is the truncation order (default 32).  Coefficients beyond the
order are treated as unknown rather than zero, so every operation obeys
truncation consistency: coefficient ``k`` of a result depends only on
coefficients ``0..k`` of the operands, and binary operations return a series
truncated at the smaller of the two operand orders.

The module provides products, quotients, composition, and for a series with
zero constant term exp, sinh and the termwise integral of ``s(t)/t`` (class
members are ``z exp(integral_0^z sinh(w(t))/t dt)``), Horner evaluation and
differentiation.  Series are immutable after construction and every
operation is a pure function.

Quotient, composition, exp, sinh, the integral and evaluation are computed
by array kernels (``div_coeffs``, ``compose_coeffs``, ``exp_coeffs``,
``sinh_coeffs``, ``integrate_coeffs``, ``evaluate_coeffs``) on plain
complex128 coefficient arrays, which the series functions wrap;
``div_coeffs`` serves ``div`` only.  Member construction chains the kernels
and builds one series from the result.

Series serialize as a JSON array of ``[re, im]`` pairs indexed by power
(element 0 is the constant term); see :func:`to_pairs` / :func:`from_pairs`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


class TruncatedSeries:
    """Immutable truncated power series with complex coefficients.

    Parameters
    ----------
    coeffs:
        Coefficients by increasing power.  Must be non-empty and finite.
    order:
        Optional target truncation order.  The coefficient list is padded
        with zeros or truncated to length ``order + 1``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[complex], order: int | None = None):
        arr = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
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
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, length ``order + 1``."""
        return self._coeffs

    @property
    def order(self) -> int:
        return self._coeffs.size - 1

    def __getitem__(self, k: int) -> complex:
        return complex(self._coeffs[k])

    def truncate(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self._coeffs, order=order)

    # -- arithmetic -------------------------------------------------------

    def _lift(self, other) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, float, complex, np.number)):
            return constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncatedSeries(self._coeffs[: n + 1] + o._coeffs[: n + 1])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncatedSeries(self._coeffs[: n + 1] - o._coeffs[: n + 1])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return TruncatedSeries(self._coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self._coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


# -- constructors ---------------------------------------------------------


def constant(value: complex, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = value
    return TruncatedSeries(out)


def identity(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The series of z itself."""
    return monomial(1, order)


def monomial(k: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    if not 0 <= k <= order:
        raise ValueError(f"monomial power {k} outside order {order}")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[k] = 1.0
    return TruncatedSeries(out)


def from_pairs(pairs: Sequence[Sequence[float]]) -> TruncatedSeries:
    """Build a series from ``[[re, im], ...]`` (JSON wire format)."""
    return TruncatedSeries([complex(p[0], p[1]) for p in pairs])


def to_pairs(s: TruncatedSeries) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in s.coeffs]


# -- core operations ------------------------------------------------------


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the smaller operand order."""
    n = min(a.order, b.order)
    out = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])[: n + 1]
    return TruncatedSeries(out)


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series quotient a/b; requires ``|b[0]|`` above the constant-term tolerance."""
    return TruncatedSeries(div_coeffs(a.coeffs, b.coeffs))


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of outer(inner(z)); the inner constant term must be exactly zero."""
    return TruncatedSeries(compose_coeffs(outer.coeffs, inner.coeffs))


def derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; the order drops by one."""
    if s.order == 0:
        return TruncatedSeries([0.0])
    k = np.arange(1, s.order + 1)
    return TruncatedSeries(s.coeffs[1:] * k)


def integrate_over_t(s: TruncatedSeries) -> TruncatedSeries:
    """Termwise integral of s(t)/t from 0 to z.

    Requires ``s[0] == 0`` exactly (else ``NonzeroInnerConstant``); the result
    has zero constant term and coefficient ``s[k]/k`` at power k.
    """
    return TruncatedSeries(integrate_coeffs(s.coeffs))


def evaluate(s: TruncatedSeries, z):
    """Horner evaluation of the truncated series at a point or array.

    Truncation error grows with ``|z|``; values near ``|z| = 1`` are only as
    good as the coefficient decay allows.
    """
    result = evaluate_coeffs(s.coeffs, z)
    if np.ndim(z) == 0:
        return complex(result)
    return result


def shift_up(s: TruncatedSeries) -> TruncatedSeries:
    """Multiply by z (coefficients shift one power up; order grows by one)."""
    out = np.zeros(s.order + 2, dtype=np.complex128)
    out[1:] = s.coeffs
    return TruncatedSeries(out)


def shift_down(s: TruncatedSeries) -> TruncatedSeries:
    """Divide by z; requires an exactly zero constant term."""
    if s.coeffs[0] != 0:
        raise NonzeroInnerConstant(
            f"cannot divide by z: constant term is {s.coeffs[0]}")
    if s.order == 0:
        return TruncatedSeries([0.0])
    return TruncatedSeries(s.coeffs[1:])


# -- transcendental maps --------------------------------------------------


def exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with constant term exactly 0 (else ``NonzeroInnerConstant``)."""
    return TruncatedSeries(exp_coeffs(s.coeffs))


def sinh(s: TruncatedSeries) -> TruncatedSeries:
    """sinh of a series with constant term exactly 0 (else ``NonzeroInnerConstant``)."""
    return TruncatedSeries(sinh_coeffs(s.coeffs))


# -- array kernels ----------------------------------------------------------
#
# The operations above wrap these.  Each takes plain complex128 coefficient
# arrays indexed by power and returns one (``evaluate_coeffs`` returns values),
# checks the same precondition and raises the same exception as its wrapper,
# and lets non-finite values through: whoever builds a series from the result
# rejects them.


def div_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quotient a/b up to the shorter operand's order, by the division recurrence."""
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


def evaluate_coeffs(coeffs: np.ndarray, z) -> np.ndarray:
    """Horner sum of the coefficients at the array z, from the top power down.

    A coefficient may be a row with one value per lane.  The steps are
    np.polyval's, y = y z + c, run in place, so each value has np.polyval's
    bits on the array z.  numpy's in-place complex multiply rounds
    differently only on a single element, which goes through t.
    """
    z = np.asarray(z)
    y = np.zeros(np.broadcast_shapes(z.shape, coeffs.shape[1:]), np.result_type(coeffs, z))
    t = y if y.size > 1 else np.empty_like(y)
    for c in coeffs[::-1]:
        np.add(np.multiply(y, z, out=t), c, out=y)
    return y


def compose_coeffs(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer(inner(z)) up to the shorter operand's order, by nested Horner multiplication.

    The inner constant term must be exactly zero, otherwise the result
    would need all (untracked) higher coefficients of the outer series.
    Each Horner step, ``acc = convolve(acc, inner)[:n + 1]`` and then
    ``acc[0] += outer[k]``, has the bits of ``mul(acc, inner) + outer[k]``
    on series: no convolution sum is -0.0, which adding 0.0 would change.
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


def integrate_coeffs(s: np.ndarray) -> np.ndarray:
    """Termwise integral of s(t)/t; ``s[0]`` must be exactly 0."""
    if s[0] != 0:
        raise NonzeroInnerConstant(f"constant term must be exactly 0, got {s[0]}")
    out = np.zeros(s.size, dtype=np.complex128)
    out[1:] = s[1:] / np.arange(1, s.size)
    return out


def _inverse_factorials(order: int) -> np.ndarray:
    """1/k! for k = 0..order, by successive division."""
    out = np.empty(order + 1, dtype=np.complex128)
    inv_fact = 1.0
    for k in range(order + 1):
        out[k] = inv_fact
        inv_fact /= k + 1
    return out


def exp_coeffs(s: np.ndarray) -> np.ndarray:
    """exp of a series with constant term exactly 0: the 1/k! table composed with it."""
    return compose_coeffs(_inverse_factorials(s.size - 1), s)


def sinh_coeffs(s: np.ndarray) -> np.ndarray:
    """sinh of a series with constant term exactly 0: the odd 1/k! composed with it."""
    table = _inverse_factorials(s.size - 1)
    table[::2] = 0.0
    return compose_coeffs(table, s)
