"""Building binary anti-collusion codes from codebooks and set families.

Two constructions are implemented.  The concatenation construction maps
codebook row j to the union over coordinates i of {i} x F(symbol_ji),
yielding one subset of the product universe per row; when the codebook is
K-union-distinct and the inner family is too, the result is a K-union-
distinct family.  The augmentation construction additionally adjoins, for
every coordinate, a copy of each member of a second family G; under the
four augmentation hypotheses the enlarged family is K-cover-free.  Either
family converts to a binary code by complementing incidence columns.

Every build returns a machine-readable Certificate recording which
hypotheses were checked and how (exhaustive enumeration, structural
justification, fixture assumption, or sampling); a build refuses to emit
an uncertified code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .arrays import CodeBook, min_distance, provenance_holds
from .codec import (bits_to_str, json_int, json_list, pack_masks, read_json,
                    str_to_bits, write_json)
from .families import (SetFamily, Universe, Witness, _canonical_cover_witness,
                       distance_slack, is_k_cff, is_k_udf, is_k_ud_code)

MODES = ("exhaustive", "structural", "sampled")


class ConstructionError(ValueError):
    """Bad inputs to a construction (shape or parameter mismatch)."""


class ConstructionRefused(RuntimeError):
    """A required hypothesis failed; carries the certificate."""

    def __init__(self, certificate: "Certificate"):
        self.certificate = certificate
        failed = [e.name for e in certificate.entries if e.required and not e.result]
        super().__init__(f"construction refused; failed conditions: {failed}")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class ConditionEntry:
    name: str
    mode: str
    result: bool
    required: bool = True
    params: dict = field(default_factory=dict)
    witness: Witness | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConstructionError(f"unknown certificate mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        d = {"name": self.name, "mode": self.mode, "result": self.result,
             "required": self.required}
        if self.params:
            d["params"] = self.params
        if self.witness is not None:
            d["witness"] = self.witness.to_json_dict()
        return d


@dataclass
class Certificate:
    construction: str  # "theorem1" | "theorem2" | "direct"
    params: dict = field(default_factory=dict)
    entries: list[ConditionEntry] = field(default_factory=list)

    def add(self, name: str, mode: str, result: bool, required: bool = True,
            params: dict | None = None, witness: Witness | None = None) -> None:
        self.entries.append(ConditionEntry(name=name, mode=mode, result=bool(result),
                                           required=required, params=params or {},
                                           witness=witness))

    @property
    def certified(self) -> bool:
        return all(e.result for e in self.entries if e.required)

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction,
            "params": self.params,
            "certified": self.certified,
            "entries": [e.to_json_dict() for e in self.entries],
        }


def save_certificate(cert: Certificate, path) -> None:
    write_json(cert.to_json_dict(), path)


# ---------------------------------------------------------------------------
# The binary code itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AndAcc:
    """n binary codewords of length v with resilience K.  Codewords are
    integer bitmasks; user j (1-based) sits at index j-1.  Frozen, so the
    packed view that tracing caches on it cannot go stale."""

    v: int
    n: int
    K: int
    codewords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "codewords",
                           tuple(int(c) for c in self.codewords))
        if len(self.codewords) != self.n:
            raise ConstructionError(f"{len(self.codewords)} codewords, expected {self.n}")
        top = 1 << self.v
        for j, c in enumerate(self.codewords):
            if not 0 <= c < top:
                raise ConstructionError(f"codeword {j} exceeds length {self.v}")

    @cached_property
    def _columns(self):
        """The codewords as a (words, n) uint64 array, built at the code's
        first trace and kept with it: n * ceil(v / 64) * 8 bytes."""
        return pack_masks(self.codewords, self.v)

    def codeword_string(self, j: int) -> str:
        return bits_to_str(self.codewords[j], self.v)

    def to_json_dict(self) -> dict:
        return {"v": self.v, "n": self.n, "K": self.K,
                "codewords": [self.codeword_string(j) for j in range(self.n)]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "AndAcc":
        v = json_int(d["v"], "v")
        return cls(v=v, n=json_int(d["n"], "n"), K=json_int(d["K"], "K"),
                   codewords=[str_to_bits(s, v)
                              for s in json_list(d["codewords"], "codewords")])


def save_acc(acc: AndAcc, path) -> None:
    write_json(acc.to_json_dict(), path)


def load_acc(path) -> AndAcc:
    return read_json(path, AndAcc.from_json_dict, ConstructionError)


def family_to_acc(family: SetFamily, K: int) -> AndAcc:
    """Codeword j = bit complement of member j's mask."""
    v = family.universe.v
    full = (1 << v) - 1
    return AndAcc(v=v, n=family.n, K=K,
                  codewords=[full & ~m for m in family.members])


def acc_to_family(acc: AndAcc, product=None) -> SetFamily:
    """Inverse of family_to_acc.  An all-ones codeword would complement to
    an empty member, which set families exclude."""
    full = (1 << acc.v) - 1
    universe = Universe(acc.v, product=product)
    return SetFamily(universe, [full & ~c for c in acc.codewords])


# ---------------------------------------------------------------------------
# Concatenation construction
# ---------------------------------------------------------------------------

def build_h0(code: CodeBook, family: SetFamily) -> SetFamily:
    """Member j = union over coordinates i of block-i copy of the inner
    member selected by symbol (i, j), over the universe {1..m} x {0..q-1}."""
    if family.n != code.s:
        raise ConstructionError(
            f"inner family has {family.n} members, alphabet needs {code.s}")
    q = family.universe.v
    universe = Universe(code.m * q, product=(code.m, q))
    # shifted[i][a]: inner member a moved into block i
    shifted = [[mask << (i * q) for mask in family.members]
               for i in range(code.m)]
    members = []
    for row in code.rows.tolist():
        mask = 0
        for table, symbol in zip(shifted, row):
            mask |= table[symbol]
        members.append(mask)
    return SetFamily(universe, members)


def _structural_ud_entry(code: CodeBook, K: int) -> ConditionEntry | None:
    """Structural K-UD justification for a stacked-array codebook: valid for
    K = 2, odd alphabet, 2(t-1) < m, and rows that are W rebuilt at the
    tagged strength."""
    if (code.provenance != "W" or code.t is None or K != 2 or code.s % 2 == 0
            or 2 * (code.t - 1) >= code.m or not provenance_holds(code)):
        return None
    return ConditionEntry(
        name="code is K-UD", mode="structural", result=True,
        params={"provenance": "W", "s": code.s, "t": code.t, "m": code.m,
                "odd_alphabet": True, "margin": f"2(t-1)={2 * (code.t - 1)} < m={code.m}"})


def build_theorem1_acc(code: CodeBook, family: SetFamily, K: int,
                       mode: str = "exhaustive"):
    """Concatenation build: requires the codebook K-union-distinct and the
    inner family K-union-distinct.  Returns (AndAcc, Certificate).

    mode "structural" certifies the codebook from its stacked-array
    provenance when applicable; otherwise it falls back to the exhaustive
    check and records why.  The family is always checked exhaustively.
    """
    if mode not in ("exhaustive", "structural"):
        raise ConstructionError(f"mode must be exhaustive or structural, got {mode!r}")
    if family.n != code.s:
        raise ConstructionError(
            f"inner family has {family.n} members, alphabet needs {code.s}")
    q = family.universe.v
    cert = Certificate(construction="theorem1",
                       params={"K": K, "m": code.m, "q": q, "s": code.s,
                               "M": code.M, "v": code.m * q, "n": code.M})
    code_entry = None
    if mode == "structural":
        code_entry = _structural_ud_entry(code, K)
        if code_entry is None:
            cert.add("structural certification unavailable", "structural", True,
                     required=False,
                     params={"reason": "needs rows equal to the rebuilt W, "
                                       "K=2, odd alphabet, 2(t-1) < m",
                             "provenance": code.provenance, "s": code.s,
                             "K": K, "fallback": "exhaustive"})
    if code_entry is None:
        res = is_k_ud_code(code, K)
        code_entry = ConditionEntry(name="code is K-UD", mode="exhaustive",
                                    result=res.ok, params={"checked": res.checked},
                                    witness=res.witness)
    cert.entries.append(code_entry)

    fres = is_k_udf(family, K)
    cert.add("inner family is K-UDF", "exhaustive", fres.ok,
             params={"checked": fres.checked}, witness=fres.witness)

    if not cert.certified:
        raise ConstructionRefused(cert)
    out_family = build_h0(code, family)
    acc = family_to_acc(out_family, K)
    return acc, cert


# ---------------------------------------------------------------------------
# Augmentation construction
# ---------------------------------------------------------------------------

def check_theorem2_conditions(code: CodeBook, f: SetFamily, g: SetFamily,
                              K: int) -> Certificate:
    """Evaluate the four augmentation hypotheses plus member-distinctness,
    all exhaustively.  Never raises on a failed condition; the certificate
    records everything."""
    if f.universe.v != g.universe.v:
        raise ConstructionError(
            f"F and G live on different universes: {f.universe.v} vs {g.universe.v}")
    if f.n != code.s:
        raise ConstructionError(
            f"inner family has {f.n} members, alphabet needs {code.s}")
    m, q, u = code.m, f.universe.v, g.n
    cert = Certificate(construction="theorem2",
                       params={"K": K, "m": m, "q": q, "s": code.s, "M": code.M,
                               "u": u, "v": m * q, "n": code.M + m * u})

    cert.add("K < m", "exhaustive", K < m, params={"K": K, "m": m})

    d = min_distance(code)
    slack = distance_slack(m, d, K)
    cert.add("distance condition K(m-d) < m", "exhaustive", slack > 0,
             params={"d": d, "slack": slack})

    fres = is_k_cff(f, K)
    cert.add("inner family is K-CFF", "exhaustive", fres.ok,
             params={"checked": fres.checked}, witness=fres.witness)

    cw = _canonical_cover_witness(f.members + g.members, K,
                                  range(f.n, f.n + g.n))
    cert.add("cross-cover condition on G", "exhaustive", cw is None,
             params={"members": f.n + g.n}, witness=cw)

    distinct = len(set(f.members) | set(g.members)) == f.n + g.n
    cert.add("F and G members distinct", "exhaustive", distinct)
    return cert


def build_theorem2_acc(code: CodeBook, f: SetFamily, g: SetFamily, K: int):
    """Augmentation build: the concatenated family plus, for each
    coordinate, a tagged copy of every member of G.  Returns
    (AndAcc, Certificate); refuses if any hypothesis fails."""
    cert = check_theorem2_conditions(code, f, g, K)
    if not cert.certified:
        raise ConstructionRefused(cert)
    h0 = build_h0(code, f)
    q = f.universe.v
    members = list(h0.members)
    for i in range(code.m):
        for gm in g.members:
            members.append(gm << (i * q))
    out_family = SetFamily(h0.universe, members)
    acc = family_to_acc(out_family, K)
    return acc, cert


# ---------------------------------------------------------------------------
# Comparison against a given prior code's parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorComparison:
    v: int
    n: int
    K: int
    prior_v: int
    prior_n: int

    @property
    def exceeds_bib_bound(self) -> bool:
        """True when n > v(v-1)/((K+1)K), the ceiling for block-design
        based codes with these parameters."""
        return self.n * (self.K + 1) * self.K > self.v * (self.v - 1)

    @property
    def delta_v(self) -> int:
        return self.v - self.prior_v

    @property
    def delta_n(self) -> int:
        return self.n - self.prior_n

    def summary(self) -> str:
        parts = []
        if self.delta_n > 0:
            parts.append(f"larger n (+{self.delta_n})")
        elif self.delta_n == 0:
            parts.append("same n")
        else:
            parts.append(f"smaller n ({self.delta_n})")
        if self.delta_v < 0:
            parts.append(f"smaller v ({self.delta_v})")
        elif self.delta_v == 0:
            parts.append("same v")
        else:
            parts.append(f"larger v (+{self.delta_v})")
        return ", ".join(parts)

    def to_json_dict(self) -> dict:
        return {"v": self.v, "n": self.n, "K": self.K,
                "prior_v": self.prior_v, "prior_n": self.prior_n,
                "delta_v": self.delta_v, "delta_n": self.delta_n,
                "exceeds_bib_bound": self.exceeds_bib_bound,
                "summary": self.summary()}


def compare_prior(acc: AndAcc, prior_v: int, prior_n: int) -> PriorComparison:
    if prior_v < 1 or prior_n < 1:
        raise ConstructionError(f"a prior code needs v >= 1 and n >= 1, "
                                f"got v={prior_v}, n={prior_n}")
    return PriorComparison(v=acc.v, n=acc.n, K=acc.K,
                           prior_v=prior_v, prior_n=prior_n)
