"""Rational matrix transfer functions over a common monic denominator.

Coefficients are stored in ascending degree order: ``den[k]`` multiplies
``s**k``. An m-port function keeps one numerator polynomial per (output,
input) entry in an ``(m, m, deg + 1)`` array.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DimensionMismatch, NonMonic

MONIC_TOL = 1e-9


def poly_from_roots(roots: np.ndarray) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients.

    The descending coefficients are multiplied out in place, one factor
    (s - r) per root; as with ``np.poly``, conjugate-closed roots give
    exactly real coefficients."""
    roots = np.asarray(roots, dtype=complex).ravel()
    a = np.zeros(roots.size + 1, dtype=complex)
    a[0] = 1.0
    for k, r in enumerate(roots):
        a[1 : k + 2] -= r * a[: k + 1]
    if np.array_equal(np.sort(roots), np.sort(roots.conj())):
        a = a.real.astype(complex)
    return a[::-1]


def require_finite(value, name: str) -> np.ndarray:
    """Return value as an array: the one finiteness check of array arguments.
    Raises ValueError naming ``name`` unless every entry is a finite number; as
    in :func:`require_real`, a bool, a str and an int beyond 64 bits are not."""
    a = np.asarray(value)
    if a.dtype.kind not in "iufc" or isinstance(value, list) and any(
        isinstance(v, (bool, np.bool_)) for v in value
    ):
        raise ValueError(f"{name} must be finite numbers, got {reprlib.repr(value)}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def require_real(value, name: str, low: float, strict: bool = False) -> float:
    """Return value as a float: the one check of every real scalar argument.

    Raises ValueError naming ``name`` unless value is a real scalar, finite
    and >= low (> low when ``strict``). A bool, which float() would read as
    1 or 0, has its own message; a complex value, even with a zero
    imaginary part, a str, None, an array and an int beyond the float range
    are refused as not real."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
    try:
        x = float(value) if isinstance(value, numbers.Real) else np.nan
    except OverflowError:
        x = np.nan
    if not (low < x < np.inf or x == low and not strict):
        bound = f"{'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return x


def require_whole(value, name: str, low: float) -> int:
    """Return value as an int: :func:`require_real`'s rule, and integral.
    Every refusal, a bool's too, reads "``name`` must be an integer >= low"
    ("``name`` must be an integer" for ``low = -inf``)."""
    try:
        x = require_real(value, name, low)
    except ValueError:
        x = np.nan
    if not x.is_integer():
        bound = f" >= {low}" if low > -np.inf else ""
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(x)


def read_only(a: np.ndarray) -> np.ndarray:
    """Make a read-only and return it: the one freeze of every kept array."""
    a.setflags(write=False)
    return a


def require_monic(den: np.ndarray) -> None:
    """Raise NonMonic unless den (ascending) has degree >= 1 and leading
    coefficient 1 within ``MONIC_TOL`` relative to its largest coefficient."""
    if len(den) < 2:
        raise NonMonic("denominator must have degree >= 1")
    if abs(den[-1] - 1.0) > MONIC_TOL * max(1.0, np.abs(den).max()):
        raise NonMonic(f"denominator leading coefficient {den[-1]} is not 1")


@dataclass(frozen=True, eq=False)
class RationalTF:
    """Matrix rational function num(s) / den(s), immutable: ``num``, ``den``
    and ``poles`` are made read-only at construction
    (:func:`make_rational_tf` copies its input first).

    Attributes
    ----------
    num : ndarray, shape (m, m, deg + 1)
        Numerator coefficients per port pair, ascending degree.
    den : ndarray, shape (deg + 1,)
        Common denominator coefficients, ascending degree, monic.
    poles : ndarray or None
        The exact roots of den when they are known (a single-port
        :func:`~qsysid.model.transfer_rational`), else None; the single-port
        reconstruction then takes them in place of ``eigvals`` of the
        companion matrix.
    """

    num: np.ndarray
    den: np.ndarray
    poles: np.ndarray | None = None
    # the single-port reconstruction of this immutable function: one read-only
    # record, kept by qsysid.realization on first use and shared by every caller
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for a in (self.num, self.den, self.poles):
            if a is not None:
                read_only(a)

    @property
    def m(self) -> int:
        """Port count, the numerator's."""
        return self.num.shape[0]

    @property
    def degree(self) -> int:
        return len(self.den) - 1

    def eval(self, s) -> np.ndarray:
        """Value at a complex point or an array of them, shape ``s.shape + (m, m)``."""
        s = np.asarray(s, dtype=complex)
        num = np.moveaxis(polyval(s, np.moveaxis(self.num, 2, 0)), (0, 1), (-2, -1))
        return num / polyval(s, self.den)[..., None, None]


def make_rational_tf(num, den) -> RationalTF:
    """Validate and normalize raw coefficient arrays into a RationalTF.

    ``num`` may be a 1-D array for the single-port case or a full
    ``(m, m, deg + 1)`` array. The denominator must be monic within
    ``MONIC_TOL``; its leading coefficient is then snapped to exactly 1.
    A coefficient that is not finite raises ValueError. Both arrays are
    copied, so the function never shares memory with the caller's.
    """
    den = np.array(den, dtype=complex).ravel()
    num = np.array(num, dtype=complex)
    require_finite(num, "num")
    require_finite(den, "den")
    if num.ndim == 1:
        num = num.reshape(1, 1, -1)
    if num.ndim != 3 or num.shape[0] != num.shape[1]:
        raise DimensionMismatch(f"numerator array has shape {num.shape}")
    require_monic(den)
    den[-1] = 1.0
    size = len(den)
    if num.shape[2] != size:
        if np.abs(num[:, :, size:]).max(initial=0.0) > 0:
            raise DimensionMismatch("numerator degree exceeds denominator degree")
        kept, num = num[:, :, :size], np.zeros(num.shape[:2] + (size,), dtype=complex)
        num[:, :, : kept.shape[2]] = kept
    return RationalTF(num=num, den=den)
