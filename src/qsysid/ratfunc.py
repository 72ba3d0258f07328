"""Rational matrix transfer functions over a common monic denominator.

Coefficients are stored in ascending degree order: ``den[k]`` multiplies
``s**k``. A single-port function keeps its numerator as a ``(1, 1, deg + 1)``
array; an m-port one (m > 1) is its denominator and spectral measure alone.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DimensionMismatch, NonMonic

MONIC_TOL = 1e-9


def poly_from_roots(roots: np.ndarray) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients.

    The descending coefficients are multiplied out in place, one factor
    (s - r) per root; as with ``np.poly``, conjugate-closed roots give
    exactly real coefficients."""
    roots = np.asarray(require_finite(roots, "roots"), dtype=complex).ravel()
    a = np.zeros(roots.size + 1, dtype=complex)
    a[0] = 1.0
    for k, r in enumerate(roots):
        a[1 : k + 2] -= r * a[: k + 1]
    if np.array_equal(np.sort(roots), np.sort(roots.conj())):
        a = a.real.astype(complex)
    return a[::-1]


def as_numbers(entries: list, real: bool = False) -> np.ndarray | None:
    """The one number rule: the flat list ``entries`` as a float (or complex)
    array, or None unless each is a ``numbers.Complex`` (``numbers.Real`` when
    ``real``), not a bool and not an int beyond the float range."""
    types = set(map(type, entries))
    kind = numbers.Real if real else numbers.Complex
    if not all(issubclass(t, kind) and not issubclass(t, (bool, np.bool_)) for t in types):
        return None
    dtype = float if all(issubclass(t, numbers.Real) for t in types) else complex
    try:
        return np.array(entries, dtype=dtype)
    except OverflowError:  # an int beyond the float range
        return None


def require_finite(value, name: str) -> np.ndarray:
    """Return value as an array: the one check of every array argument. Raises
    ValueError naming ``name`` unless every entry, at any depth, is a finite
    number by :func:`as_numbers`; a numeric NumPy array is returned as it is."""
    a = value
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iufc"):
        try:  # every entry at every depth; a ragged nest leaves a list among them
            entries = np.array(value, dtype=object)
        except ValueError:  # a nest too ragged for an object array holds no numbers
            entries = np.array(None)
        a = as_numbers(entries.ravel().tolist())
        if a is None:
            raise ValueError(f"{name} must be finite numbers, got {reprlib.repr(value)}")
        a = a.reshape(entries.shape)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def require_real(value, name: str, low: float, strict: bool = False) -> float:
    """Return value as a float: the one check of every real scalar argument.

    Raises ValueError naming ``name`` unless value is one real number by
    :func:`as_numbers` (not a complex, a str, None or an array), finite and
    >= low (> low when ``strict``); a bool has its own message."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
    x = as_numbers([value], real=True)
    x = np.nan if x is None else x.item()
    if not (low < x < np.inf or x == low and not strict):
        bound = f"{'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return x


def require_whole(value, name: str, low: float) -> int:
    """Return value as an int: a real number by :func:`as_numbers`, integral
    and >= low; an int or NumPy integer comes back exact, not through its float.
    Every refusal, a bool's too, reads "``name`` must be an integer >= low"
    ("``name`` must be an integer" for ``low = -inf``)."""
    x = as_numbers([value], real=True)
    if x is None or not (x[0] >= low and x[0].is_integer()):
        bound = f" >= {low}" if low > -np.inf else ""
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value if isinstance(value, numbers.Integral) else x[0])


def read_only(a: np.ndarray) -> np.ndarray:
    """Make a read-only and return it: the one freeze of every kept array."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RationalTF:
    """Matrix rational function Xi(s) over a common monic denominator, immutable:
    its arrays are made read-only at construction (:func:`make_rational_tf`
    copies its input first).

    Attributes
    ----------
    num : ndarray, shape (1, 1, deg + 1), or None
        Numerator coefficients, ascending degree, given exactly when m = 1.
    den : ndarray, shape (deg + 1,)
        Common denominator coefficients, ascending degree, monic: ``den[-1]``
        is exactly 1.
    measure : (lam, cv) or None
        The spectral measure of Xi when it is known (the reached ``(lam, c V)`` of
        :func:`~qsysid.model.transfer_rational`), else None: real lam of a length
        k <= the degree, ascending, and couplings cv, m x k, no column 0, all
        finite; taken as den's own. Xi is then its Cayley form, :func:`cayley`.
    """

    num: np.ndarray | None
    den: np.ndarray
    measure: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        """Raise ValueError for a field, or part of ``measure``, not a finite ndarray, or
        a measure's values not as above; NonMonic unless ``den`` is 1-D, of degree
        >= 1 and ends in exactly 1; DimensionMismatch for any other shape not so, and
        for a numerator given when m > 1 or missing when m = 1."""
        measure = () if self.measure is None else self.measure
        named = [("den", self.den), *(("measure", a) for a in measure)]
        if self.num is not None:  # a multiport function carries none
            named.insert(0, ("num", self.num))
        for name, a in named:
            if not isinstance(a, np.ndarray):
                raise ValueError(f"{name} must be an ndarray, got {type(a).__name__}")
            require_finite(a, name)
        if self.den.ndim != 1 or len(self.den) < 2 or self.den[-1] != 1:
            raise NonMonic(f"denominator {reprlib.repr(self.den)} is not monic of degree >= 1")
        if self.measure is not None:
            shapes = [a.shape for a in measure]
            if len(shapes) != 2 or len(shapes[0]) != 1 or shapes[1][1:] != shapes[0] \
                    or not shapes[1][0] or shapes[0][0] > self.degree:
                raise DimensionMismatch(f"measure shapes {shapes} are not (k,) and "
                                        f"(m, k), k <= {self.degree}")
            lam, cv = measure
            if not (lam.dtype.kind == "f" and (lam[:-1] <= lam[1:]).all()
                    and np.abs(cv).max(axis=0, initial=0.0).all()):
                raise ValueError(f"measure must be real lam ascending and cv with no column 0, "
                                 f"got {reprlib.repr(measure)}")
        if (self.num is None) != (self.m > 1):
            raise DimensionMismatch(f"a numerator is given exactly when m = 1, got "
                                    f"{'none' if self.num is None else 'one'} for m = {self.m}")
        if self.num is not None and self.num.shape != (1, 1, len(self.den)):
            raise DimensionMismatch(f"numerator shape {self.num.shape} is not "
                                    f"(1, 1, {len(self.den)})")
        for _, a in named:
            read_only(a)

    @property
    def m(self) -> int:
        """Port count, the measure's, or 1 without one."""
        return 1 if self.measure is None else self.measure[1].shape[0]

    @property
    def degree(self) -> int:
        return len(self.den) - 1

    def eval(self, s) -> np.ndarray:
        """Value at a complex point or an array of them, shape ``s.shape + (m, m)``, s passing
        :func:`require_finite`: the Cayley form of ``measure`` if any, else num(s) / den(s)."""
        s = np.asarray(require_finite(s, "s"), dtype=complex)
        if self.measure is not None:
            return cayley(*self.measure, s.ravel()).reshape(s.shape + (self.m,) * 2)
        return (polyval(s, self.num[0, 0]) / polyval(s, self.den))[..., None, None]


def cayley(lam: np.ndarray, cv: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Xi at the points s (1-D): (I + G/2)^{-1} (I - G/2), G(s) = sum_k u_k u_k† / (s + i lam_k),
    u_k the columns of cv. The solve loses |G_k| = |u_k|² / |s + i lam_k| times eps at a
    pole of G, where Xi has none: an atom with |G_k| > 100 joins after it by Sherman-Morrison."""
    e = s[:, None] + 1j * lam
    near = (np.abs(cv) ** 2).sum(axis=0) > 100 * np.abs(e)
    g = (cv / np.where(near, np.inf, e)[:, None, :]) @ cv.conj().T
    eye = np.eye(cv.shape[0])
    xi = np.linalg.solve(eye + 0.5 * g, eye - 0.5 * g)
    for p, k in zip(*np.nonzero(near)):  # on Xi + I = 2 (I + G/2)^{-1}
        a, u = xi[p] + eye, cv[:, k]
        xi[p] -= np.outer(a @ u, u.conj() @ a) / (4 * e[p, k] + u.conj() @ a @ u)
    return xi


def make_rational_tf(num, den) -> RationalTF:
    """Validate and normalize raw single-port coefficient arrays into a RationalTF.

    ``num`` may be a 1-D array or a ``(1, 1, deg + 1)`` one. The denominator
    must be monic within ``MONIC_TOL``; its leading coefficient is then snapped
    to exactly 1. Raises ValueError naming ``num`` or ``den`` unless it is finite
    numbers (:func:`require_finite`), and DimensionMismatch for a numerator of
    any other shape: a multiport function is its measure
    (:func:`~qsysid.model.transfer_rational`). Both are copied, never shared with
    the caller.
    """
    num = np.array(require_finite(num, "num"), dtype=complex)
    den = np.array(require_finite(den, "den"), dtype=complex).ravel()
    if num.ndim == 1:
        num = num.reshape(1, 1, -1)
    if num.ndim != 3 or num.shape[:2] != (1, 1):
        raise DimensionMismatch(f"numerator array has shape {num.shape}, not that of one port")
    if len(den) < 2:
        raise NonMonic("denominator must have degree >= 1")
    if abs(den[-1] - 1.0) > MONIC_TOL * max(1.0, np.abs(den).max()):
        raise NonMonic(f"denominator leading coefficient {den[-1]} is not 1")
    den[-1] = 1.0
    size = len(den)
    if num.shape[2] != size:
        if np.abs(num[:, :, size:]).max(initial=0.0) > 0:
            raise DimensionMismatch("numerator degree exceeds denominator degree")
        kept, num = num[:, :, :size], np.zeros((1, 1, size), dtype=complex)
        num[:, :, : kept.shape[2]] = kept
    return RationalTF(num=num, den=den)
