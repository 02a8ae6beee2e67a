"""Exact arithmetic over GF(p^e) with elements encoded as integers.

GF(p^e) is GF(p)[x]/(f) for a monic irreducible f of degree e.  An element
with coefficient vector (c_0, ..., c_{e-1}) over GF(p) is stored as the
integer sum c_i * p^i, so element 0 is the additive identity, element 1 the
multiplicative identity, and for prime fields the encoding coincides with
ordinary residues mod p.

All arithmetic runs through one path on ints and integer numpy arrays:
elements are split into base-p digit vectors (`GF._digits`), added digitwise
mod p, or multiplied as coefficient polynomials and reduced top-down by f
(`_reduce`), and joined back into integers (`GF._join`).  A prime field is
GF(p)[x]/(x), so its product is a * b mod p with no separate branch.  Every
field, whatever its size, computes this way; there are no lookup tables.
Only ints and integer arrays are elements: floats, strings and bools are
rejected with `FieldError`.  A ``GF`` object validates its parameters once
and is immutable afterwards.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_FIELD_SIZE = 1 << 16

# Built-in irreducible monic moduli, ascending coefficients (c_0, ..., c_e).
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),              # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),           # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),        # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),     # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    (3, 2): (1, 0, 1),              # x^2 + 1
    (3, 3): (1, 2, 0, 1),           # x^3 + 2x + 1
    (3, 4): (1, 1, 1, 1, 1),        # x^4 + x^3 + x^2 + x + 1
    (5, 2): (2, 0, 1),              # x^2 + 2
    (5, 3): (1, 1, 0, 1),           # x^3 + x + 1
    (7, 2): (1, 0, 1),              # x^2 + 1
    (11, 2): (1, 0, 1),             # x^2 + 1
}


class FieldError(ValueError):
    """Invalid field specification or out-of-range element."""


def _unwrap(x):
    """A 0-d result as a Python int; arrays as they are."""
    return int(x) if np.ndim(x) == 0 else x


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for n < 2^16."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _reduce(c, mod, p):
    """Remainder of the polynomials c modulo the monic polynomials mod over
    GF(p), eliminating the top coefficient one degree at a time.  Both hold
    ascending coefficients along their first axis and broadcast along the
    rest.  Works in place on c; returns the low coefficients in [0, p)."""
    d = len(mod) - 1
    low = mod[:d].reshape((d,) + mod.shape[1:] + (1,) * (c.ndim - mod.ndim))
    for k in range(len(c) - 1, d - 1, -1):
        c[k - d:k] -= c[k] % p * low
    return c[:d] % p


def _is_irreducible(mod, p):
    """Trial division of mod (degree e >= 2) by every monic polynomial of
    degree 1..e/2; degree 1 covers the roots."""
    f = np.array(mod)[:, None]
    for d in range(1, (len(mod) - 1) // 2 + 1):
        divisors = np.array([c + (1,) for c in itertools.product(range(p), repeat=d)]).T
        if not _reduce(np.tile(f, p**d), divisors, p).any(axis=0).all():
            return False
    return True


class GF:
    """Finite field GF(p^e) with integer-encoded elements.

    Parameters
    ----------
    p : int
        Prime characteristic (p < 2^16).
    e : int
        Extension degree; the field has s = p^e elements (s <= 2^16).
    modulus : sequence of int or None
        Monic irreducible polynomial of degree e over GF(p), given as
        ascending coefficients (c_0, ..., c_e).  Required only when e > 1
        and no built-in modulus exists; validated in all cases.
    """

    __slots__ = ("p", "e", "s", "modulus", "_powers", "_reducer")

    def __init__(self, p: int, e: int = 1, modulus=None):
        # caps first: is_prime(p) or p**e on huge inputs would run for minutes
        if isinstance(p, int) and p >= MAX_FIELD_SIZE:
            raise FieldError(f"characteristic {p} exceeds the 2^16 cap")
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError(f"characteristic must be prime, got {p!r}")
        if not isinstance(e, int) or e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e!r}")
        if e > 16:  # p >= 2, so p^e > 2^16
            raise FieldError(f"field size {p}^{e} exceeds the 2^16 cap")
        s = p**e
        if s > MAX_FIELD_SIZE:
            raise FieldError(f"field size {s} exceeds the 2^16 cap")
        self.p = p
        self.e = e
        self.s = s
        if e == 1:
            if modulus is not None:
                raise FieldError("modulus only applies to extension fields")
            self.modulus = None
        else:
            if modulus is None:
                try:
                    modulus = _DEFAULT_MODULI[(p, e)]
                except KeyError:
                    raise FieldError(
                        f"no built-in modulus for GF({p}^{e}); supply one"
                    ) from None
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1:
                raise FieldError(
                    f"modulus must have {e + 1} coefficients, got {len(modulus)}"
                )
            if modulus[-1] != 1:
                raise FieldError("modulus must be monic")
            if not _is_irreducible(modulus, p):
                raise FieldError(f"modulus {modulus} is reducible over GF({p})")
            self.modulus = modulus
        self._powers = p ** np.arange(e, dtype=np.int64)
        # GF(p) is GF(p)[x]/(x): a prime field reduces by x, which a product
        # of degree 0 never needs
        self._reducer = np.array(self.modulus or (0, 1), dtype=np.int64)

    # -- the one arithmetic, elementwise on ints and integer arrays ----------

    def _digits(self, *elements):
        """Base-p coefficient vectors of each argument along a new first
        axis.  The arguments get a common number of axes first, so that
        their digit arrays broadcast against each other."""
        arrays = [np.asarray(a, dtype=np.int64) for a in elements]
        n = max(a.ndim for a in arrays)
        powers = self._powers.reshape((-1,) + (1,) * n)
        return [a.reshape((1,) * (n - a.ndim) + a.shape) // powers % self.p
                for a in arrays]

    def _join(self, c):
        """Elements whose coefficient vectors (first axis) are c mod p."""
        return np.tensordot(self._powers, c % self.p, axes=1)

    def _add(self, a, b):
        # digit by digit, so that no (e, ...) array of the broadcast shape
        # is ever held
        da, db = self._digits(a, b)
        return sum((x + y) % self.p * w for x, y, w in zip(da, db, self._powers))

    def _mul(self, a, b):
        da, db = self._digits(a, b)
        e = self.e
        prod = np.zeros((2 * e - 1,) + np.broadcast_shapes(da.shape, db.shape)[1:],
                        dtype=np.int64)
        for i in range(e):
            prod[i:i + e] += da[i] * db
        return self._join(_reduce(prod, self._reducer, self.p))

    def _check(self, *elements):
        for a in elements:
            a = np.asarray(a)
            if a.dtype.kind not in "iu" or not np.all((0 <= a) & (a < self.s)):
                raise FieldError(f"{a} is not an element of GF({self.s})")

    # -- public operations ---------------------------------------------------

    def elements(self) -> list[int]:
        """All field elements in canonical index order 0, 1, ..., s-1."""
        return list(range(self.s))

    def add(self, a, b):
        """a + b for ints or, elementwise, integer arrays."""
        self._check(a, b)
        return _unwrap(self._add(a, b))

    def mul(self, a, b):
        """a * b for ints or, elementwise, integer arrays."""
        self._check(a, b)
        return _unwrap(self._mul(a, b))

    def pow(self, a, k: int):
        """Square-and-multiply power of an int or, elementwise, an integer
        array; pow(a, 0) = 1 for every a."""
        self._check(a)
        if k < 0:
            raise FieldError("exponent must be nonnegative")
        result = np.ones_like(a)
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return _unwrap(result)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e}, modulus={self.modulus})"


def parse_field(text: str) -> GF:
    """Parse a field spec: ``p``, ``p^e``, or ``p^e:c0,c1,...,ce``.

    Example: ``3^2:1,0,1`` is GF(9) with modulus 1 + 0x + x^2.
    """
    text = text.strip()
    modulus = None
    if ":" in text:
        text, coeff_part = text.split(":", 1)
        try:
            modulus = tuple(int(c) for c in coeff_part.split(","))
        except ValueError:
            raise FieldError(f"bad modulus coefficients: {coeff_part!r}") from None
    if "^" in text:
        p_part, e_part = text.split("^", 1)
    else:
        p_part, e_part = text, "1"
    try:
        p, e = int(p_part), int(e_part)
    except ValueError:
        raise FieldError(f"bad field spec: {text!r}") from None
    if e == 1 and modulus is not None:
        raise FieldError("modulus only applies to extension fields")
    return GF(p, e, modulus)
