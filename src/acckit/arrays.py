"""Codebooks over small alphabets and their moment-matrix constructions.

Builds three related row arrays over GF(s): the strength-t orthogonal array
``U`` (all linear combinations of the first t power rows), the coset array
``V`` (the t-th power row shifted by combinations of the first t-1 rows),
and their stack ``W``, over any field `GF` supports, prime or extension.
Each array is grown one basis row at a time through the field's array
arithmetic.  A ``U``/``V``/``W`` tag read from a file is trusted only when
the rows are that array rebuilt (`provenance_holds`).  Also provides exact
distance / coincidence scans and an orthogonal-array property checker with
failure witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codec import (json_int, json_ints, json_list, read_json, read_lines,
                    text_int, write_json, write_lines)
from .gf import _DEFAULT_MODULI, GF, MAX_FIELD_SIZE, FieldError

PROVENANCES = ("U", "V", "W", "imported")


class ParameterError(ValueError):
    """Construction parameters outside the supported range."""


@dataclass
class CodeBook:
    """M row vectors of length m with symbols in [0, s)."""

    s: int
    m: int
    rows: np.ndarray
    provenance: str = "imported"
    t: int | None = None  # strength parameter, set for U/V/W builds
    modulus: tuple[int, ...] | None = None  # a build's non-built-in modulus

    def __post_init__(self):
        if self.m < 1 or self.s < 1:
            raise ParameterError(f"need m >= 1 and s >= 1, got m={self.m}, s={self.s}")
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ParameterError("rows must be a 2-D array")
        if rows.shape[1] != self.m:
            raise ParameterError(f"rows have length {rows.shape[1]}, expected {self.m}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.s):
            raise ParameterError(f"symbols must lie in [0, {self.s})")
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance {self.provenance!r}")
        self.rows = rows

    @property
    def M(self) -> int:
        return self.rows.shape[0]

    def row_set(self) -> set[tuple[int, ...]]:
        return set(map(tuple, self.rows.tolist()))

    def to_json_dict(self) -> dict:
        d = {
            "s": self.s,
            "m": self.m,
            "rows": self.rows.tolist(),
            "provenance": self.provenance,
        }
        if self.t is not None:
            d["t"] = self.t
        if self.modulus is not None:
            d["modulus"] = list(self.modulus)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "CodeBook":
        return cls(s=json_int(d["s"], "s"), m=json_int(d["m"], "m"),
                   rows=[json_ints(r, "row") for r in json_list(d["rows"], "rows")],
                   provenance=d.get("provenance", "imported"),
                   t=json_int(d["t"], "t") if "t" in d else None,
                   modulus=(tuple(json_ints(d["modulus"], "modulus"))
                            if "modulus" in d else None))


# File formats: JSON when the path ends in ".json", else one row of
# space-separated integers per line, with s the largest symbol + 1.
def save_codebook(book: CodeBook, path) -> None:
    if str(path).endswith(".json"):
        write_json(book.to_json_dict(), path)
    else:
        write_lines((" ".join(map(str, row)) for row in book.rows.tolist()), path)


def load_codebook(path) -> CodeBook:
    if not str(path).endswith(".json"):
        return read_lines(path, _book_from_lines, ParameterError)
    return read_json(path, CodeBook.from_json_dict, ParameterError)


def _book_from_lines(lines) -> CodeBook:
    rows = [[text_int(tok) for tok in line.split()] for line in lines]
    if len({len(r) for r in rows}) != 1:
        raise ParameterError("rows have inconsistent lengths")
    return CodeBook(s=max(map(max, rows)) + 1, m=len(rows[0]), rows=rows)


# ---------------------------------------------------------------------------
# Moment matrix and the U / V / W builders
# ---------------------------------------------------------------------------

def rho(i: int, m: int, gf: GF) -> tuple[int, ...]:
    """Row i of the moment matrix: all-ones for i = 0, else elementwise
    i-th powers of the first m field elements."""
    if i < 0:
        raise ParameterError("power index must be nonnegative")
    if not 3 <= m <= gf.s:
        raise ParameterError(f"need 3 <= m <= {gf.s}, got m={m}")
    return tuple(gf.pow(np.arange(m), i).tolist())


def _moment_rows(gf: GF, t: int, m: int) -> np.ndarray:
    """The moment rows rho(0), ..., rho(t-1) over GF(s), as a (t, m) array."""
    if t < 2:
        raise ParameterError("strength t must be >= 2")
    if t > m:
        raise ParameterError(f"strength t={t} cannot exceed m={m}")
    return np.array([rho(i, m, gf) for i in range(t)], dtype=np.int64)


def _span(gf: GF, basis: np.ndarray) -> np.ndarray:
    """All s^k combinations of the k rows of basis over GF(s), in canonical
    base-s order of the coefficient vector, first coefficient fastest."""
    m = basis.shape[1]
    scalars = np.arange(gf.s)[:, None, None]
    rows = np.zeros((1, m), dtype=np.int64)
    for row in basis:
        rows = gf.add(rows, gf.mul(scalars, row)).reshape(-1, m)
    return rows


def _array_book(gf: GF, rows, provenance: str, t: int) -> CodeBook:
    """A built array, recording gf's modulus unless it is the built-in one."""
    builtin = _DEFAULT_MODULI.get((gf.p, gf.e))
    return CodeBook(s=gf.s, m=rows.shape[1], rows=rows, provenance=provenance,
                    t=t, modulus=None if gf.modulus == builtin else gf.modulus)


def build_U(gf: GF, t: int, m: int) -> CodeBook:
    """The s^t x m array of all linear combinations of the moment rows;
    an orthogonal array of strength t and index unity."""
    return _array_book(gf, _span(gf, _moment_rows(gf, t, m)), "U", t)


def build_V(gf: GF, t: int, m: int) -> CodeBook:
    """The s^(t-1) x m coset array: the t-th power row plus combinations
    of the first t-1 moment rows."""
    R = _moment_rows(gf, t, m)
    return _array_book(gf, gf.add(_span(gf, R[: t - 1]), rho(t, m, gf)), "V", t)


def build_W(gf: GF, t: int, m: int) -> CodeBook:
    """U stacked above V: s^t + s^(t-1) rows."""
    rows = np.vstack([build_U(gf, t, m).rows, build_V(gf, t, m).rows])
    return _array_book(gf, rows, "W", t)


def array_rows(which: str, s: int, t: int) -> int:
    """Row count of the U, V or W array over GF(s) at strength t."""
    u, v = {"U": (1, 0), "V": (0, 1), "W": (1, 1)}[which]
    return u * s**t + v * s**(t - 1)


def provenance_holds(book: CodeBook) -> bool:
    """True when book is tagged U, V or W with a strength t and its rows are
    that array rebuilt over GF(s), with the book's modulus or else the
    built-in one.  A file can set any tag, so a shortcut that rests on the
    tag asks this first."""
    s, t, m = book.s, book.t, book.m
    if (book.provenance not in ("U", "V", "W") or t is None
            or not (2 <= t <= m and 3 <= m <= s <= MAX_FIELD_SIZE)
            or book.M != array_rows(book.provenance, s, t)):
        return False
    p = next(d for d in range(2, s + 1) if s % d == 0)
    try:
        gf = GF(p, round(np.log(s) / np.log(p)), book.modulus)
    except FieldError:  # no modulus to rebuild with, or an invalid one
        return False
    build = {"U": build_U, "V": build_V, "W": build_W}[book.provenance]
    # a size other than s means s is no prime power: nothing to rebuild
    return gf.s == s and np.array_equal(build(gf, t, m).rows, book.rows)


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OACheck:
    """Outcome of an orthogonal-array check; on failure, the offending
    column subset and symbol tuple with its observed count."""

    ok: bool
    strength: int
    columns: tuple[int, ...] | None = None
    symbols: tuple[int, ...] | None = None
    count: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        d = {"ok": self.ok, "strength": self.strength}
        if not self.ok:
            d["columns"] = list(self.columns)
            d["symbols"] = list(self.symbols)
            d["count"] = self.count
        return d


def verify_oa(book: CodeBook, t: int) -> OACheck:
    """Check that every ordered t-tuple appears exactly once in every
    t-column subarray.  A wrong row count shows up as a count != 1 and is
    reported through the same witness fields; the reported failure is the
    first in column-subset order, then in code order (last column most
    significant).  That code lies below L = min(s^t, M + 1), since fewer
    than s^t rows miss one of the codes 0..M, so codes are clamped at L as
    they accumulate and counted in O(M) memory, without overflow."""
    if t < 2:
        raise ParameterError("strength t must be >= 2; t = 1 is degenerate")
    if t > book.m:
        raise ParameterError(f"strength t={t} exceeds word length m={book.m}")
    s = book.s
    L = min(s**t, book.M + 1)
    radix = min(s, L)  # with s > L, a nonzero higher digit clamps anyway
    for cols in itertools.combinations(range(book.m), t):
        codes = np.zeros(book.M, dtype=np.int64)
        for c in reversed(cols):
            codes = np.minimum(codes * radix + np.minimum(book.rows[:, c], L), L)
        counts = np.bincount(codes, minlength=L + 1)[:L]
        bad = np.nonzero(counts != 1)[0]
        if len(bad):
            code = int(bad[0])
            symbols = tuple(int(code // s**j) % s for j in range(t))
            return OACheck(ok=False, strength=t, columns=cols,
                           symbols=symbols, count=int(counts[code]))
    return OACheck(ok=True, strength=t)


def min_distance(book: CodeBook) -> int:
    """Minimum pairwise Hamming distance.

    For the linear array U (provenance "U", checked by `provenance_holds`)
    the minimum nonzero row weight gives the same value in O(M m); every
    other book is scanned pairwise.
    """
    if book.M < 2:
        raise ParameterError("min_distance needs at least 2 rows")
    if book.provenance == "U" and provenance_holds(book):
        weights = (book.rows != 0).sum(axis=1)
        return int(weights[weights > 0].min())
    return book.m - _max_coincidences(book.rows, None, book.m)[0]


@dataclass(frozen=True)
class Lemma1Report:
    """Observed maxima of pairwise coincidences within and across the two
    blocks of W, against the structural bounds t-1 (U-U), t-2 (V-V), t (U-V)."""

    t: int
    m: int
    s: int
    max_uu: int
    max_vv: int
    max_uv: int
    violation: tuple[str, int, int, int] | None = None  # (class, i, j, count)

    @property
    def bounds(self) -> tuple[int, int, int]:
        return (self.t - 1, self.t - 2, self.t)

    @property
    def ok(self) -> bool:
        return self.violation is None

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        d = {
            "t": self.t, "m": self.m, "s": self.s,
            "max_uu": self.max_uu, "max_vv": self.max_vv, "max_uv": self.max_uv,
            "bound_uu": self.t - 1, "bound_vv": self.t - 2, "bound_uv": self.t,
            "ok": self.ok,
        }
        if self.violation is not None:
            cls, i, j, c = self.violation
            d["violation"] = {"pair_class": cls, "i": i, "j": j, "coincidences": c}
        return d


def _max_coincidences(a: np.ndarray, b: np.ndarray | None, bound: int):
    """Max pairwise coincidences within a (b=None) or across a and b.
    Returns (max, first pair (i, j, count) exceeding bound, or None)."""
    best = -1
    worst = None
    for i in range(a.shape[0] - (b is None)):
        counts = (a[i] == (a[i + 1:] if b is None else b)).sum(axis=1)
        best = max(best, int(counts.max()))
        if worst is None and (over := np.flatnonzero(counts > bound)).size:
            j = int(over[0])
            worst = (i, j + i + 1 if b is None else j, int(counts[j]))
    return best, worst


def check_lemma1_bounds(gf: GF, t: int, m: int) -> Lemma1Report:
    """Exhaustively scan all row pairs of W for the coincidence bounds."""
    u = build_U(gf, t, m).rows
    v = build_V(gf, t, m).rows
    max_uu, bad_uu = _max_coincidences(u, None, t - 1)
    max_vv, bad_vv = _max_coincidences(v, None, t - 2)
    max_uv, bad_uv = _max_coincidences(u, v, t)
    violation = None
    if bad_uu is not None:
        violation = ("U-U", *bad_uu)
    elif bad_vv is not None:
        violation = ("V-V", *bad_vv)
    elif bad_uv is not None:
        violation = ("U-V", *bad_uv)
    return Lemma1Report(t=t, m=m, s=gf.s, max_uu=max_uu, max_vv=max_vv,
                        max_uv=max_uv, violation=violation)
