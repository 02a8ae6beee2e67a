"""Constant-weight binary codes and the set families they induce.

A code here is N words of length q, all of weight w, with pairwise Hamming
distance at least d.  Between equal-weight words the distance is even and
equals 2(w - |overlap|), so the distance floor is an intersection cap.
Codes come from three sources -- a deterministic greedy scan, a seeded
annealing search, and file import -- and all of them are re-checked by the
same verifier, which is the ground truth.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .codec import (bits_to_str, json_int, json_list, pack_masks, read_json,
                    read_lines, str_to_bits, unpack_masks, write_json,
                    write_lines)
from .families import SetFamily, Universe


class CodeError(ValueError):
    """Malformed constant-weight code or parameters."""


@dataclass
class ConstantWeightCode:
    """N binary words of length q, weight w, pairwise distance >= d.
    Words are integer bitmasks, bit k = position k."""

    q: int
    w: int
    d: int
    words: list[int]

    def __post_init__(self):
        self.words = [int(x) for x in self.words]

    @property
    def N(self) -> int:
        return len(self.words)

    def word_string(self, j: int) -> str:
        return bits_to_str(self.words[j], self.q)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "w": self.w, "d": self.d,
                "words": [self.word_string(j) for j in range(self.N)]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstantWeightCode":
        q = json_int(d["q"], "q")
        return cls(q=q, w=json_int(d["w"], "w"), d=json_int(d["d"], "d"),
                   words=[str_to_bits(s, q) for s in json_list(d["words"], "words")])


@dataclass(frozen=True)
class CWVerdict:
    ok: bool
    reason: str = ""
    indices: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        d = {"ok": self.ok}
        if not self.ok:
            d["reason"] = self.reason
            d["indices"] = list(self.indices)
        return d


def verify_cw_code(code: ConstantWeightCode) -> CWVerdict:
    """Check length, exact weight, distinctness, and the distance floor."""
    top = 1 << code.q
    for j, word in enumerate(code.words):
        if word < 0 or word >= top:
            return CWVerdict(False, f"word {j} exceeds length {code.q}", (j,))
        if word.bit_count() != code.w:
            return CWVerdict(False,
                             f"word {j} has weight {word.bit_count()}, expected {code.w}",
                             (j,))
    # distance 2(w - overlap) >= d  <=>  overlap <= w - ceil(d / 2)
    max_overlap = code.w - (code.d + 1) // 2
    for i in range(code.N - 1):
        wi = code.words[i]
        for j in range(i + 1, code.N):
            if wi == code.words[j]:
                return CWVerdict(False, f"words {i} and {j} are equal", (i, j))
            if (wi & code.words[j]).bit_count() > max_overlap:
                dist = (wi ^ code.words[j]).bit_count()
                return CWVerdict(False,
                                 f"words {i} and {j} are at distance {dist} < {code.d}",
                                 (i, j))
    return CWVerdict(True)


def _normalize_distance(d: int) -> int:
    if d % 2:
        warnings.warn(f"odd distance {d} rounded up to {d + 1} "
                      "(equal-weight words differ in an even number of places)")
        d += 1
    return d


def _check_params(q: int, d: int, w: int) -> int:
    if not 0 < w <= q:
        raise CodeError(f"need 0 < w <= q, got w={w}, q={q}")
    d = _normalize_distance(d)
    if d > 2 * w:
        raise CodeError(f"distance {d} exceeds 2w = {2 * w}")
    return d


# Candidate words per block of the greedy lexicode scan.
_LEXICODE_BLOCK = 1 << 14
# Caps on the scan's candidates C(q, w), and on candidates times the most
# words it can keep.  Near either cap a scan takes up to about 10 s:
# (19, 2, 7) keeps all its 50,388 candidates, 2.5 * 10^9 checks, in 9 s
# on a 2-vCPU host.
MAX_LEXICODE_CANDIDATES = 10**8
MAX_LEXICODE_CHECKS = 3 * 10**9
# Most words a search pool holds: its clash lists grow as the square, and
# a pool at the cap takes about 8 s and 0.56 GB at budget 10 (2-vCPU host).
MAX_SEARCH_POOL = 1 << 13


def greedy_lexicode(q: int, d: int, w: int) -> ConstantWeightCode:
    """Scan all weight-w words in lexicographic order of their support and
    keep each word compatible with everything kept so far (the lexicode
    construction of Conway and Sloane).  Deterministic.

    The scan runs over blocks of at most `_LEXICODE_BLOCK` consecutive
    candidates (`_lex_blocks`), each word packed into ceil(q / 64) uint64
    lanes.  A block is first cut down to the candidates that overlap every
    kept word in at most w - d/2 places; then its first surviving
    candidate is kept and the rest are cut against it, until none is left.
    Memory is bounded by a few blocks, not by C(q, w); past either
    lexicode cap the scan is refused before it starts.
    """
    d = _check_params(q, d, w)
    max_overlap = w - d // 2
    candidates = comb(q, w)
    if candidates > MAX_LEXICODE_CANDIDATES:
        raise CodeError(f"C({q}, {w}) = {candidates} candidate words, past "
                        f"the cap of {MAX_LEXICODE_CANDIDATES} candidates")
    # no t-subset, t = max_overlap + 1, lies in two kept words, so at most
    # C(q, t) / C(w, t) words are kept (all C(q, w) when t > w)
    t = min(max_overlap + 1, w)
    if (checks := candidates * (comb(q, t) // comb(w, t))) > MAX_LEXICODE_CHECKS:
        raise CodeError(f"the scan of C({q}, {w}) candidates could take "
                        f"{checks} checks, past the cap of "
                        f"{MAX_LEXICODE_CHECKS} checks")
    kept: list[np.ndarray] = []
    for block in _lex_blocks(q, w):
        alive = np.arange(len(block))
        for row in kept:
            if not len(alive):
                break
            alive = alive[_overlaps(block[alive], row) <= max_overlap]
        while len(alive):
            row = block[alive[0]]
            kept.append(row)
            alive = alive[1:]
            alive = alive[_overlaps(block[alive], row) <= max_overlap]
    return ConstantWeightCode(q=q, w=w, d=d,
                              words=unpack_masks(np.array(kept).T))


def _overlaps(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """|rows[i] & row| for each packed word rows[i]."""
    return np.bitwise_count(rows & row).sum(axis=1)


def _lex_blocks(q: int, w: int):
    """All weight-w words of length q in lexicographic order of their
    support, as (count, ceil(q / 64)) uint64 arrays of at most
    `_LEXICODE_BLOCK` rows, the transpose of `pack_masks` columns.

    The words whose support starts with a fixed prefix and continues with
    k elements of start..q-1 are split, while there are more than a block
    of them, into those that take `start` next and those that do not."""
    bits = pack_masks([1 << p for p in range(q)], q).T
    stack = [(0, w, np.zeros_like(bits[0]))]
    while stack:
        start, k, prefix = stack.pop()
        if comb(q - start, k) <= _LEXICODE_BLOCK:
            block = _lex_suffixes(bits, start, k)
            block |= prefix
            yield block
        else:
            stack.append((start + 1, k, prefix))
            stack.append((start + 1, k - 1, prefix | bits[start]))


def _lex_suffixes(bits: np.ndarray, start: int, k: int) -> np.ndarray:
    """The words of all k-subsets of start..q-1, in lexicographic order.

    Level j holds the j-subsets of lo..q-1 for lo = start + k - j, the
    only positions a k-subset's last j elements can take.  The j-subsets
    that start at a are a followed by a (j-1)-subset of a+1..q-1, and
    those are the last C(q - a - 1, j - 1) entries of level j - 1."""
    q, lanes = bits.shape
    level = np.zeros((1, lanes), dtype=np.uint64)
    for j in range(1, k + 1):
        lo = start + k - j
        out = np.empty((comb(q - lo, j), lanes), dtype=np.uint64)
        pos = 0
        for a in range(lo, q - j + 1):
            tail = level[len(level) - comb(q - a - 1, j - 1):]
            np.bitwise_or(tail, bits[a], out=out[pos:pos + len(tail)])
            pos += len(tail)
        level = out
    return level


def stochastic_search(q: int, d: int, w: int, target_n: int,
                      seed: int = 0, budget: int = 200_000) -> ConstantWeightCode:
    """Seeded annealing toward a code of target_n words.

    Keeps a pool of target_n candidate words and repeatedly swaps a word
    involved in a conflict for a fresh random word, accepting uphill moves
    with a geometrically cooled probability.  Returns the largest
    conflict-free subset seen (which may be smaller than target_n), always
    re-verified before return.  Reproducible for a given (seed, budget).
    """
    d = _check_params(q, d, w)
    if not 1 <= target_n <= MAX_SEARCH_POOL:
        raise CodeError(f"target_n must lie in 1..{MAX_SEARCH_POOL}, the "
                        f"cap on the pool, got {target_n}")
    rng = random.Random(seed)
    max_overlap = w - d // 2

    def random_word():
        word = 0
        for k in rng.sample(range(q), w):
            word |= 1 << k
        return word

    def clashes(word, skip):
        """Per pool word: whether it overlaps `word` in more than
        max_overlap places; False at position skip."""
        flags = [(word & other).bit_count() > max_overlap for other in state]
        flags[skip] = False
        return flags

    # seed the pool greedily, then pad with random words
    state = list(greedy_lexicode(q, d, w).words[:target_n])
    while len(state) < target_n:
        state.append(random_word())
    # clash[i]: the flags of state[i] against the pool, kept symmetric
    clash = [clashes(wd, i) for i, wd in enumerate(state)]
    conflict_count = [sum(row) for row in clash]
    energy = sum(conflict_count) // 2

    best_words = _feasible_subset(state, max_overlap)
    t_start, t_end = 2.0, 0.02
    cool = (t_end / t_start) ** (1.0 / max(budget, 1))
    temp = t_start
    bad = [i for i, c in enumerate(conflict_count) if c > 0]
    for _ in range(budget):
        if energy == 0:
            break
        temp *= cool
        i = rng.choice(bad)
        new_word = random_word()
        flags = clashes(new_word, i)
        new_c = sum(flags)
        delta = new_c - conflict_count[i]
        if delta <= 0 or rng.random() < pow(2.718281828, -delta / temp):
            for idx, (had, has) in enumerate(zip(clash[i], flags)):
                if had != has:
                    conflict_count[idx] += 1 if has else -1
                    clash[idx][i] = has
            clash[i] = flags
            state[i] = new_word
            conflict_count[i] = new_c
            energy += delta
            bad = [j for j, c in enumerate(conflict_count) if c > 0]
            if energy <= len(best_words):  # cheap gate before extracting
                feasible = _feasible_subset(state, max_overlap)
                if len(feasible) > len(best_words):
                    best_words = feasible
    if energy == 0:
        best_words = state
    code = ConstantWeightCode(q=q, w=w, d=d, words=sorted(set(best_words)))
    verdict = verify_cw_code(code)
    if not verdict.ok:
        raise AssertionError(f"search produced an invalid code: {verdict.reason}")
    return code


def _feasible_subset(words, max_overlap):
    """Greedily drop conflicting words, most-conflicted first (the earliest
    on ties).  A dropped word's degree goes negative, so it is never
    picked again and is left out of the result."""
    keep = list(dict.fromkeys(words))
    nbrs = [[] for _ in keep]
    for i, j in itertools.combinations(range(len(keep)), 2):
        if (keep[i] & keep[j]).bit_count() > max_overlap:
            nbrs[i].append(j)
            nbrs[j].append(i)
    degree = [len(n) for n in nbrs]
    while degree and (top := max(degree)) > 0:
        worst = degree.index(top)
        degree[worst] = -1
        for j in nbrs[worst]:
            degree[j] -= 1
    return [word for word, deg in zip(keep, degree) if deg >= 0]


def family_from_code(code: ConstantWeightCode) -> SetFamily:
    """Member j = support of word j, over a universe of size q."""
    verdict = verify_cw_code(code)
    if not verdict.ok:
        raise CodeError(f"refusing family from invalid code: {verdict.reason}")
    return SetFamily(Universe(code.q), list(code.words))


@dataclass(frozen=True)
class Condition8:
    """The three sufficient inequalities tying two constant-weight codes to
    the cover-free and cross-cover hypotheses of the augmentation build:
    K(w1 - d1/2) < w1,  K(w2 - d2/2) < w2,  w2 > K w1."""

    first: bool
    second: bool
    third: bool

    @property
    def all_ok(self) -> bool:
        return self.first and self.second and self.third

    def __bool__(self) -> bool:
        return self.all_ok

    def to_json_dict(self) -> dict:
        return {"first": self.first, "second": self.second,
                "third": self.third, "all_ok": self.all_ok}


def check_condition_8(b1: ConstantWeightCode, b2: ConstantWeightCode,
                      K: int) -> Condition8:
    if b1.q != b2.q:
        raise CodeError(f"codes live on different lengths: {b1.q} vs {b2.q}")
    # stated over halves; doubled to stay in integers
    first = K * (2 * b1.w - b1.d) < 2 * b1.w
    second = K * (2 * b2.w - b2.d) < 2 * b2.w
    third = b2.w > K * b1.w
    return Condition8(first, second, third)


# ---------------------------------------------------------------------------
# File formats: JSON (carries q, w, d) or one bitstring per line
# ---------------------------------------------------------------------------

def export_code(code: ConstantWeightCode, path) -> None:
    if str(path).endswith(".json"):
        write_json(code.to_json_dict(), path)
    else:
        write_lines((code.word_string(j) for j in range(code.N)), path)


def import_code(path, d: int | None = None,
                verify: bool = True) -> ConstantWeightCode:
    """Load (and by default re-verify) a code.  JSON files carry their own
    (q, w, d); for bitstring files q and w are inferred and d defaults to
    the observed minimum distance.  verify=False skips the property check
    but still rejects malformed files."""
    if str(path).endswith(".json"):
        code = read_json(path, ConstantWeightCode.from_json_dict, CodeError)
    else:
        code = read_lines(path, lambda lines: _code_from_lines(lines, d), CodeError)
    if verify:
        verdict = verify_cw_code(code)
        if not verdict.ok:
            raise CodeError(f"code in {path} failed verification: {verdict.reason}")
    return code


def _code_from_lines(lines, d: int | None) -> ConstantWeightCode:
    q = len(lines[0])
    words = [str_to_bits(line, q) for line in lines]
    if d is None:
        d = min(((a ^ b).bit_count() for a, b in itertools.combinations(words, 2)),
                default=2 * words[0].bit_count())
    return ConstantWeightCode(q=q, w=words[0].bit_count(), d=d, words=words)
