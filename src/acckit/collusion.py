"""AND-collusion attacks, exact coalition tracing, and a conjecture scan.

A coalition's fingerprint is the bitwise AND of its members' codewords.
Tracing keeps the users whose codeword is 1 everywhere the fingerprint is,
in one vectorised pass over a packed (words, n) view of the codewords,
built at the code's first trace and kept with the code: n * ceil(v/64) * 8
bytes.  It then searches the kept users exhaustively, in index order, for
a coalition of size at most K whose AND reproduces the fingerprint; for a
code certified at resilience K that coalition is unique.  The model is
exact: no noise or erasure channel, and a fingerprint produced by an
oversized or corrupted coalition yields a no-match report rather than a
guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .accs import AndAcc
from .arrays import build_W
from .codec import bits_to_str, pack_masks, str_to_bits
from .families import (SAMPLER, FamilyError, SampleReport, VerifyResult,
                       Witness, is_k_ud_code, sample_ud_code)
from .gf import GF


class CollusionError(ValueError):
    """Bad attack or trace inputs."""


@dataclass(frozen=True)
class Fingerprint:
    """Observed mark vector of length v; coalition recorded when simulated
    (0-based user indices)."""

    v: int
    bits: int
    coalition: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.v < 0:
            raise CollusionError(f"fingerprint length must be >= 0, got {self.v}")
        if not 0 <= self.bits < 1 << self.v:
            raise CollusionError(f"fingerprint bits must lie in [0, 2^{self.v})")

    def bitstring(self) -> str:
        return bits_to_str(self.bits, self.v)

    @classmethod
    def from_bitstring(cls, text: str) -> "Fingerprint":
        try:
            return cls(v=len(text), bits=str_to_bits(text))
        except ValueError as exc:
            raise CollusionError(f"fingerprint must be over 0/1: {exc}") from exc


def and_attack(acc: AndAcc, coalition) -> Fingerprint:
    """Bitwise AND of the coalition's codewords (0-based user indices)."""
    users = sorted(set(int(j) for j in coalition))
    if not users:
        raise CollusionError("coalition must be nonempty")
    if users[0] < 0 or users[-1] >= acc.n:
        raise CollusionError(f"user indices must lie in [0, {acc.n})")
    bits = (1 << acc.v) - 1
    for j in users:
        bits &= acc.codewords[j]
    return Fingerprint(v=acc.v, bits=bits, coalition=tuple(users))


@dataclass(frozen=True)
class TraceResult:
    """Outcome of a trace.

    When `found`, `users` is the unique coalition of size <= K whose AND
    reproduces the fingerprint -- the exact culprit set whenever at most K
    users actually colluded.  `superset_consistent` marks that strictly
    larger coalitions (supersets of `users` within the candidate set) would
    produce the same fingerprint, so the answer is exact only under the
    size-K assumption.  An oversized coalition can never come back as a
    confident (unflagged) match: that would force the candidate set to be
    no larger than the match, which cannot hold.
    """

    found: bool
    users: tuple[int, ...] | None = None  # 0-based
    candidates: tuple[int, ...] = ()
    superset_consistent: bool = False
    reason: str = ""

    @property
    def confident(self) -> bool:
        return self.found and not self.superset_consistent

    def __bool__(self) -> bool:
        return self.found

    def to_json_dict(self) -> dict:
        d = {"found": self.found, "candidates": list(self.candidates)}
        if self.found:
            d["users"] = list(self.users)
            d["superset_consistent"] = self.superset_consistent
            d["confident"] = self.confident
        else:
            d["reason"] = self.reason
        return d


def trace(acc: AndAcc, fp: Fingerprint, K: int | None = None) -> TraceResult:
    """Recover the coalition that produced fp, searching coalitions of size
    at most K (default: the code's resilience).  Returns a no-match report
    if nothing of size <= K reproduces the fingerprint."""
    if fp.v != acc.v:
        raise CollusionError(f"fingerprint length {fp.v} != code length {acc.v}")
    if K is None:
        K = acc.K
    if K < 1:
        raise CollusionError(f"K must be >= 1, got {K}")
    bits = fp.bits
    cols = acc._columns
    words = pack_masks([bits], acc.v)
    candidates = tuple(np.flatnonzero(((cols & words) == words).all(axis=0))
                       .tolist())
    codewords, full = acc.codewords, (1 << acc.v) - 1
    for k in range(1, min(K, len(candidates)) + 1):
        for J in itertools.combinations(candidates, k):
            acc_bits = full
            for j in J:
                acc_bits &= codewords[j]
            if acc_bits == bits:
                return TraceResult(True, users=J, candidates=candidates,
                                   superset_consistent=len(J) < len(candidates))
    return TraceResult(False, candidates=candidates,
                       reason=f"no coalition of size <= {K} matches; "
                              "oversized or corrupted fingerprint")


# ---------------------------------------------------------------------------
# Empirical scan of the stacked array's union-distinctness beyond K = 2
# ---------------------------------------------------------------------------

SCAN_NOTE = "empirical; conjecture unproven"


@dataclass(frozen=True)
class ScanReport:
    s: int
    t: int
    m: int
    k: int
    rows: int
    mode: str  # "exhaustive" | "sampled"
    ok: bool
    checked: int
    trials: int = 0
    violations: int = 0
    seed: int | None = None
    witness: Witness | None = None
    note: str = SCAN_NOTE

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        d = {"s": self.s, "t": self.t, "m": self.m, "K": self.k,
             "rows": self.rows, "mode": self.mode, "ok": self.ok,
             "checked": self.checked, "note": self.note}
        if self.mode == "sampled":
            d["trials"] = self.trials
            d["violations"] = self.violations
            d["seed"] = self.seed
            d["sampler"] = SAMPLER
        if self.witness is not None:
            d["witness"] = self.witness.to_json_dict()
        return d


def scan_remark6(gf: GF, t: int, m: int, K: int, mode: str = "exhaustive",
                 trials: int = 10**6, seed: int = 0) -> ScanReport:
    """Build the stacked array and test it for K-union-distinctness, either
    exhaustively (within `is_k_ud_code`'s budget) or by seeded
    sampling.  The outcome is evidence only; nothing is certified for
    K > 2."""
    if not K >= t >= 2:
        raise CollusionError(f"need K >= t >= 2, got K={K}, t={t}")
    if K * (t - 1) >= m:
        raise CollusionError(f"need K(t-1) < m, got {K * (t - 1)} >= {m}")
    if gf.s % 2 == 0:
        raise CollusionError("scan requires an odd alphabet size")
    book = build_W(gf, t, m)
    if mode == "exhaustive":
        try:
            res: VerifyResult = is_k_ud_code(book, K)
        except FamilyError as exc:
            raise CollusionError(f"{book.M} rows at K={K} exceed the exhaustive "
                                 "budget; use mode='sampled'") from exc
        return ScanReport(s=gf.s, t=t, m=m, k=K, rows=book.M, mode="exhaustive",
                          ok=res.ok, checked=res.checked, witness=res.witness)
    if mode == "sampled":
        rep: SampleReport = sample_ud_code(book, K, trials, seed)
        return ScanReport(s=gf.s, t=t, m=m, k=K, rows=book.M, mode="sampled",
                          ok=rep.ok, checked=rep.trials, trials=rep.trials,
                          violations=rep.violations, seed=seed, witness=rep.witness)
    raise CollusionError(f"unknown mode {mode!r}")
