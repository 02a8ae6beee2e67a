"""Set families over finite universes and exhaustive property verifiers.

Members are stored as Python integer bitmasks (bit k = element k of the
universe), so a union is a single OR and universes wider than 64 elements
need no special casing; vectorised paths pack them once into (words, n)
uint64 columns (`codec.pack_masks`).  The verifiers here are the
artifact's ground truth: they are exact, they emit a replayable witness
on failure, and the witness is deterministic (first failure in canonical
enumeration order: index sets by size then lexicographically, covering
sets before targets).

Three properties are covered:

* union-distinct families: all unions of at most K distinct members differ
  (any two different index sets count, including nested ones);
* cover-free families: no union of at most K members contains another
  member that is not part of the union;
* union-distinct codes: no two different row-index sets of size at most K
  produce the same per-coordinate symbol sets; a codebook is checked and
  sampled as its one-hot family (`_one_hot`).

For K = 2 at scale, a sort-based duplicate scan over packed 64-bit keys
replaces the dictionary walk.  Each row gets a label such that equal keys
come from label pairs of the same class; whole classes are packed into
batches of about 2^17 keys, and each batch is filled, sorted and checked
on its own, one batch per CPU at a time, so the scan holds a few MB per
worker rather than one array of every key.  Verdicts are identical, and
the canonical witness is recovered by walking only the index sets whose
key repeats.  A K = 2 code check first drops the rows that agree with no
other row on ceil(m/2) or more coordinates, which no duplicate involves.
On a product universe whose fields are 2-union-distinct in every block,
a K = 2 union check is that code check on the members' fields (the
converse of the concatenation construction), so it scans only the
members that the code's heavy-row cut keeps (`is_k_udf`).
Cover-freeness first drops, in bulk, the targets that two exact bounds
prove uncoverable (a count of shared elements, and on a product universe
a count of blocks), then runs one exact kernel per remaining target over
the distinct projections of the other members onto it, which yields the
verdict and the canonical witness in one pass.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from math import comb, isqrt

import numpy as np

from .arrays import CodeBook
from .codec import (bits_to_str, json_int, json_ints, json_list, pack_masks,
                    read_json, split_words, write_json)

# Above this many enumerated units an exhaustive dictionary walk is refused
# (use sampling or the packed K=2 path instead).  The walk's dictionary
# holds about 175 bytes per unit, so this caps it near 0.9 GB.
_EXHAUSTIVE_LIMIT = 5 * 10**6
# K=2 union scans switch to the packed path beyond this member count.
_PACKED_THRESHOLD = 512
# The K = 2 code check cuts a book to its heavy rows when it has at least
# this many rows per ceil(m/2)-subset of coordinates: the index then costs
# a small share of the scan it saves, and 12-row books skip it.
_AGREE_ROWS = 32
# Above this many keys the packed K=2 scan is refused.  Its memory is a
# few batches, so this bounds its time: 10^8 keys take about 1.5 s on two
# CPUs.
_PACKED_LIMIT = 10**8
# The packed scan sorts its keys in batches of about this many (1 MB),
# whole classes at a time; a class larger than that is a batch alone.
_PACKED_BATCH = 2**17
# At most this many row labels, so at most 8,256 label pairs (`_batches`).
_PACKED_LABELS = 128
# Triangles are filled in strips of at most this many keys (128 KB): on the
# 332 heavy rows of W over GF(83), one table peaked at 2.3 MB, strips 0.9.
_PACKED_STRIP = 2**14
# The cover kernel refuses a search whose root bounds would take more
# than this many 64-bit word operations (about 20 s), or whose projections
# and search nodes pass this many steps (tens of seconds in Python).
_COVER_WORDS = 2 * 10**10
_COVER_STEPS = 10**8
# The root bounds take targets in chunks of about this many (target,
# member) entries, so each temporary table stays near 1 MB.
_COVER_CHUNK = 2**17


class FamilyError(ValueError):
    """Malformed family or unusable verifier parameters."""


@dataclass(frozen=True)
class Universe:
    """Ordered universe of v elements, optionally the product
    {1..m} x {0..q-1} flattened by (i, l) -> (i-1) q + l."""

    v: int
    product: tuple[int, int] | None = None

    def __post_init__(self):
        if self.v < 1:
            raise FamilyError(f"universe size must be positive, got {self.v}")
        if self.product is not None:
            m, q = self.product
            if m < 1 or q < 1 or m * q != self.v:
                raise FamilyError(f"product {m}x{q} does not match v={self.v}")
            object.__setattr__(self, "product", (int(m), int(q)))

    def to_json_dict(self) -> dict:
        prod = None
        if self.product is not None:
            prod = {"m": self.product[0], "q": self.product[1]}
        return {"v": self.v, "product": prod}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Universe":
        v = json_int(d["v"], "v")
        prod = d.get("product")
        if prod is not None:
            prod = (json_int(prod["m"], "m"), json_int(prod["q"], "q"))
        return cls(v=v, product=prod)


class SetFamily:
    """n nonempty subsets of an ordered universe, as bitmasks."""

    def __init__(self, universe: Universe, members: list[int]):
        self.universe = universe
        self.members = [int(m) for m in members]
        top = 1 << universe.v
        for j, mask in enumerate(self.members):
            if mask <= 0:
                raise FamilyError(f"member {j} is empty")
            if mask >= top:
                raise FamilyError(f"member {j} exceeds universe size {universe.v}")

    @classmethod
    def from_sets(cls, universe: Universe, sets) -> "SetFamily":
        members = []
        for s in sets:
            mask = 0
            for idx in s:
                idx = int(idx)
                if not 0 <= idx < universe.v:
                    raise FamilyError(f"element {idx} outside universe")
                mask |= 1 << idx
            members.append(mask)
        return cls(universe, members)

    @property
    def n(self) -> int:
        return len(self.members)

    def subfamily(self, indices) -> "SetFamily":
        """Members at `indices`, in that order; indices must be distinct
        and lie in [0, n)."""
        indices = list(indices)
        for j in indices:
            if not 0 <= j < self.n:
                raise FamilyError(f"subfamily index {j} outside 0..{self.n - 1}")
        if len(set(indices)) != len(indices):
            raise FamilyError("subfamily indices repeat")
        return SetFamily(self.universe, [self.members[j] for j in indices])

    def to_json_dict(self) -> dict:
        v = self.universe.v
        return {
            "universe": self.universe.to_json_dict(),
            "sets": [[k for k, bit in enumerate(bits_to_str(mask, v))
                      if bit == "1"] for mask in self.members],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SetFamily":
        sets = [json_ints(s, "set") for s in json_list(d["sets"], "sets")]
        return cls.from_sets(Universe.from_json_dict(d["universe"]), sets)

    def __eq__(self, other):
        return (isinstance(other, SetFamily)
                and self.universe == other.universe
                and self.members == other.members)

    def __repr__(self):
        return f"SetFamily(v={self.universe.v}, n={self.n})"


def save_family(family: SetFamily, path) -> None:
    write_json(family.to_json_dict(), path)


def load_family(path) -> SetFamily:
    return read_json(path, SetFamily.from_json_dict, FamilyError)


def union_of(family: SetFamily, indices) -> int:
    u = 0
    for j in indices:
        u |= family.members[j]
    return u


# ---------------------------------------------------------------------------
# Verdicts and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Replayable record of a verifier failure.

    duplicate-union:       union over j1 equals union over j2 (j1 earlier).
    cover:                 union over j2 contains member `covered`.
    duplicate-symbol-set:  rows j1 and rows j2 give equal symbol sets at
                           every coordinate.
    """

    kind: str
    j1: tuple[int, ...] = ()
    j2: tuple[int, ...] = ()
    covered: int | None = None

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.j1:
            d["j1"] = list(self.j1)
        if self.j2:
            d["j2"] = list(self.j2)
        if self.covered is not None:
            d["covered"] = self.covered
        return d


@dataclass(frozen=True)
class VerifyResult:
    """An exhaustive verdict, its witness on a failure, and `checked`, the
    units the verdict stands for.  On `ok` that is every unit.  On a
    failure a dictionary walk counts the units up to and including the
    witness, while a packed K = 2 scan counts every unit, since it has
    sorted them all; `is_k_cff` counts every cover check either way."""

    ok: bool
    witness: Witness | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        d = {"ok": self.ok, "checked": self.checked}
        if self.witness is not None:
            d["witness"] = self.witness.to_json_dict()
        return d


def replay_witness(obj, witness: Witness) -> bool:
    """Confirm that a witness indeed exhibits the claimed failure (on a
    CodeBook for kind duplicate-symbol-set, else on a SetFamily)."""
    if witness.kind == "duplicate-symbol-set":
        a, b = (obj.rows[list(J)].T.tolist() for J in (witness.j1, witness.j2))
        return (witness.j1 != witness.j2
                and all(set(x) == set(y) for x, y in zip(a, b)))
    if witness.kind == "cover":
        u = union_of(obj, witness.j2)
        return (witness.covered not in witness.j2
                and obj.members[witness.covered] & ~u == 0)
    elif witness.kind != "duplicate-union":
        raise FamilyError(f"unknown witness kind {witness.kind!r}")
    return (witness.j1 != witness.j2
            and union_of(obj, witness.j1) == union_of(obj, witness.j2))


def _index_subsets(n: int, kmax: int):
    """All nonempty index subsets of size <= kmax, by size then lex."""
    for k in range(1, min(kmax, n) + 1):
        yield from itertools.combinations(range(n), k)


def _subset_count(n: int, kmax: int) -> int:
    return sum(comb(n, k) for k in range(1, min(kmax, n) + 1))


# ---------------------------------------------------------------------------
# Union-distinct family check
# ---------------------------------------------------------------------------

def is_k_udf(family: SetFamily, K: int) -> VerifyResult:
    """Exhaustively check that all unions of <= K members are distinct.

    A K = 2 check of more than `_PACKED_THRESHOLD` members over at most 64
    elements is a packed scan; any other is a dictionary walk.  On a
    product universe (m, q) where each block's distinct fields are
    2-union-distinct (`_product_fields`), read member j as a codeword whose
    symbol at block b is its q-bit field there.  At each block

    * the union of the fields of J, |J| <= 2, determines their set,
    * and that set determines the union,
    * so U(J1) = U(J2) exactly when J1 and J2 have equal symbol sets at
      every block: the family's duplicates are the code's.

    Only the code's heavy rows (`_heavy_rows`) can then take part in a
    duplicate, so the scan runs on those members alone, in index order,
    which keeps the first repeat and its witness.  `checked` is the
    scan's n + C(n, 2) on every route."""
    _require_family(family, K)
    n = family.n
    total = _subset_count(n, K)
    pair_scan = min(K, n) == 2 and family.universe.v <= 64 and n > _PACKED_THRESHOLD
    if total > (_PACKED_LIMIT if pair_scan else _EXHAUSTIVE_LIMIT):
        raise FamilyError(f"{total} unions exceed the exhaustive budget; use sample_udf")
    if pair_scan:
        words = pack_masks(family.members, family.universe.v)[0]
        fields = _product_fields(words, family.universe.product)
        rows = np.arange(n) if fields is None else _heavy_rows(fields)
        if not len(rows):
            return VerifyResult(True, None, total)
        # a row's label is its member's top field of min(v, 16) bits: the
        # top field of a union is the OR of its members' fields
        arr = words[rows]
        top = arr >> np.uint64(max(family.universe.v - 16, 0))
        res = _packed_pair_scan(
            arr, lambda I, J, out: np.bitwise_or(arr[I, None], arr[J], out=out),
            top, np.bitwise_or, "duplicate-union")
        if res.ok:
            return VerifyResult(True, None, total)
        j1, j2 = (tuple(rows[list(J)].tolist())
                  for J in (res.witness.j1, res.witness.j2))
        return VerifyResult(False, Witness("duplicate-union", j1, j2), total)
    seen: dict[int, tuple[int, ...]] = {}
    members = family.members
    checked = 0
    for J in _index_subsets(n, K):
        u = 0
        for j in J:
            u |= members[j]
        checked += 1
        prev = seen.get(u)
        if prev is not None:
            return VerifyResult(False, Witness("duplicate-union", prev, J), checked)
        seen[u] = J
    return VerifyResult(True, None, checked)


def _product_fields(words, product) -> np.ndarray | None:
    """The (n, m) table of the members' q-bit fields on the product
    universe `product` = (m, q), from their packed words, if the K = 2
    scan may be cut to that code's heavy rows; else None.  Counts decide
    first: `is_k_ud_code`'s rule for the cut, and at most isqrt(2n)
    distinct fields per block, which caps the walks over their unions at
    m * n, against the scan's n^2 / 2 (and leaves m = 1 with distinct
    members to the scan).  Then each block's distinct fields must have
    distinct unions of at most two (an empty field beside another fails)."""
    if product is None:
        return None
    m, q = product
    n = len(words)
    if n < _AGREE_ROWS * comb(m, -(-m // 2)):
        return None
    shifts = np.arange(m, dtype=np.uint64) * np.uint64(q)
    fields = words[:, None] >> shifts & np.uint64((1 << q) - 1)
    blocks = [np.unique(col).tolist() for col in fields.T]
    if max(map(len, blocks)) > isqrt(2 * n):
        return None
    for block in blocks:
        unions = {a | b for a, b in
                  itertools.combinations_with_replacement(block, 2)}
        if len(unions) < comb(len(block) + 1, 2):
            return None
    return fields


def _packed_pair_scan(single, outer, labels, klass, kind: str) -> VerifyResult:
    """K = 2 duplicate scan over packed keys, sorted one batch at a time.

    `single` holds the uint64 keys of the n singletons, and outer(I, J,
    out) writes into the uint64 array `out` the keys of the index sets
    {i, j}, i in I and j in J, as a len(I) x len(J) table; where i = j
    that is the singleton {i}.  Each row carries a non-negative integer
    label, and klass(g, h) maps label pairs (arrays, g <= h) to classes
    such that equal keys always fall in the same class, also after the
    labels are shifted right (which is how `_batches` coarsens too many
    labels).  Whole classes are packed into batches of about
    `_PACKED_BATCH` keys, and each batch is filled, sorted and checked for
    equal neighbours on its own, on a thread pool when there are several
    batches and CPUs.  On a duplicate, `_first_repeat` walks the index
    sets whose key repeats in canonical order, which yields the same first
    witness as the dictionary walk.
    """
    n = len(single)
    batches = _batches(labels, klass)

    def scan(batch):
        size, pieces = batch
        keys = np.empty(size, np.uint64)
        pos = 0
        for I, J, tri in pieces:
            if tri:
                block = _table(outer, I, J)[_triu((len(I), len(J)), 0)]
                keys[pos:pos + len(block)] = block
            else:
                block = keys[pos:pos + len(I) * len(J)]
                outer(I, J, block.reshape(len(I), len(J)))
            pos += len(block)
        keys.sort()
        dup = keys[1:] == keys[:-1]
        return keys[1:][dup]

    workers = min(len(batches), _cpu_count())
    if workers > 1:
        # imported here: the import costs about 10 ms of start-up
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            dups = list(pool.map(scan, batches))
    else:
        dups = [scan(batch) for batch in batches]
    dup = np.unique(np.concatenate(dups))
    total = n + n * (n - 1) // 2
    if not len(dup):
        return VerifyResult(True, None, total)
    witness = Witness(kind, *_first_repeat(single, outer, dup))
    return VerifyResult(False, witness, total)


def _batches(labels, klass) -> list:
    """The packed scan's batches, as (key count, pieces).

    Labels only cut the keys of several batches along class boundaries,
    and each label pair costs a piece, so the key count sets how many are
    kept: keys that fit one batch share one label, and keys that need b
    batches keep their labels shifted right until at most min(L, isqrt(L
    * b)) remain, L = `_PACKED_LABELS` (about 64 label pairs a batch).
    Rows are grouped by label, and the label pairs g <= h are ordered by
    class, then by (g, h).  A class joins batch b when the keys before it
    number b * B up to (b + 1) * B, B = `_PACKED_BATCH`, so every batch
    ends on a class boundary.  A piece (I, J, tri) holds the index sets
    I x J: the label pairs (g, h), (g, h + 1), ... of one batch form one
    rectangle, and a pair (g, g) the upper triangle of its group, diagonal
    included (tri), in strips of at most `_PACKED_STRIP` keys with
    J[:len(I)] = I."""
    n = len(labels)
    need = -(-(n * (n + 1) // 2) // _PACKED_BATCH)
    cap = 1 if need == 1 else min(_PACKED_LABELS, isqrt(_PACKED_LABELS * need))
    labels = labels.astype(np.int64) if cap > 1 else np.zeros(n, np.int64)
    while len(np.unique(labels)) > cap:
        labels >>= 1
    values, lab = np.unique(labels, return_inverse=True)
    perm = np.argsort(lab, kind="stable")
    start = np.r_[0, np.cumsum(np.bincount(lab))]
    count = np.diff(start)
    g, h = np.triu_indices(len(values))
    size = np.where(g == h, count[g] * (count[g] + 1) // 2,
                    count[g] * count[h])
    cls = klass(values[g], values[h])
    order = np.lexsort((h, g, cls))
    g, h, size, cls = g[order], h[order], size[order], cls[order]
    offset = np.cumsum(size) - size
    first = np.r_[True, cls[1:] != cls[:-1]]
    batch = np.maximum.accumulate(np.where(first, offset, 0)) // _PACKED_BATCH
    cuts = np.flatnonzero(np.diff(batch)) + 1
    out = []
    for seg, keys in zip(np.split(np.arange(len(g)), cuts),
                         np.add.reduceat(size, np.r_[0, cuts]).tolist()):
        rects = []
        for a, b in zip(g[seg].tolist(), h[seg].tolist()):
            last = rects[-1] if rects else None
            if last and last[0] == a != last[1] and last[2] == b - 1:
                last[2] = b
            else:
                rects.append([a, b, b])
        pieces = []
        for a, b0, b1 in rects:
            I = perm[start[a]:start[a + 1]]
            if a == b0:
                step = max(1, _PACKED_STRIP // len(I))
                pieces += [(I[r:r + step], I[r:], True)
                           for r in range(0, len(I), step)]
            else:
                pieces.append((I, perm[start[b0]:start[b1 + 1]], False))
        out.append((keys, pieces))
    return out


def _table(outer, I, J) -> np.ndarray:
    out = np.empty((len(I), len(J)), np.uint64)
    outer(I, J, out)
    return out


def _triu(shape, k: int) -> np.ndarray:
    """Mask of the entries (r, c) of a table with c >= r + k."""
    return np.triu(np.ones(shape, dtype=bool), k)


def _first_repeat(single, outer, dup) -> tuple:
    """The first index set, by size then lex, whose key repeats an earlier
    one's, and that earlier one.  Only index sets whose key lies in the
    sorted array `dup` are walked: the singletons, then the pairs in
    strips of rows, up to the first repeat."""
    n = len(single)
    rows = np.arange(n)
    step = max(1, _PACKED_BATCH // n)

    def repeated(keys):
        return dup[np.minimum(np.searchsorted(dup, keys), len(dup) - 1)] == keys

    def chunks():
        hit = np.flatnonzero(repeated(single))
        yield single[hit].tolist(), [(p,) for p in hit.tolist()]
        for a in range(0, n - 1, step):
            table = _table(outer, rows[a:a + step], rows[a:])
            r, c = np.nonzero(repeated(table) & _triu(table.shape, 1))
            yield table[r, c].tolist(), zip((a + r).tolist(), (a + c).tolist())

    seen: dict[int, tuple[int, ...]] = {}
    for keys, index_sets in chunks():
        for key, J in zip(keys, index_sets):
            if key in seen:
                return seen[key], J
            seen[key] = J
    raise AssertionError("duplicate keys reported but not found on refill")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Cover-free family check
# ---------------------------------------------------------------------------

def is_k_cff(family: SetFamily, K: int) -> VerifyResult:
    """Exhaustively check that no union of <= K members covers a member
    outside the union.

    The exact cover kernel `_canonical_cover_witness` runs over every
    member as a target, with the block bound when the universe is a
    product; it yields the verdict and the canonical witness (the first
    failure in enumeration order) in one pass.  `checked` counts the
    n * sum C(n-1, k) cover checks the verdict stands for.  Past the
    kernel's work budget it raises `FamilyError`; use sample_cff then.
    """
    _require_family(family, K)
    n = family.n
    naive = n * _subset_count(n - 1, K) if n > 1 else 0
    witness = _canonical_cover_witness(family.members, K, range(n),
                                       family.universe.product)
    return VerifyResult(witness is None, witness, naive)


def _canonical_cover_witness(members, K, targets,
                             product=None) -> Witness | None:
    """First union of <= K members, in canonical order (size, then lex),
    that covers a nonempty member h in `targets` outside the union; None
    if there is none.

    Targets that `_root_refuted` proves uncoverable are dropped first;
    `product` = (m, q) says that members live on {1..m} x {0..q-1}.  Each
    other target h is searched on its own.  Every other member is
    projected onto h (its intersection with h, a mask of at most |h|
    bits), and of equal nonzero projections only the first index is kept:
    a cover member swapped for an earlier index with the same projection
    still covers h, at the same size and no later in lex order.  For k =
    1, 2, ... `_lex_first_cover` then finds h's lex-first minimum cover.
    The witness is the least (|S|, S) over the targets, ties going to the
    earlier target, so sizes above the best found so far are skipped.

    The root bounds' word operations are counted before they run, the
    projections before the search, and the search nodes as it goes; past
    either budget the search is refused with `FamilyError`.
    """
    targets = list(targets)
    if product:
        v = product[0] * product[1]
    else:
        v = max((mask.bit_length() for mask in members), default=1)
    # per (target, member) pair: one word-AND per word for the count
    # bound, and at most one per word of each block for the block bound
    words = len(targets) * len(members) * (
        -(-v // 64) + (product[0] * -(-product[1] // 64) if product else 0))
    if words > _COVER_WORDS:
        raise FamilyError(f"{words} word operations exceed the cover budget "
                          f"of {_COVER_WORDS}; use sample_cff")
    alive = list(itertools.compress(
        targets, (~_root_refuted(members, K, targets, v, product)).tolist()))
    budget = [_COVER_STEPS]
    # each remaining target projects at most every member
    _spend(budget, len(alive) * len(members))
    best, best_h = None, None
    for h in alive:
        target = members[h]
        first: dict[int, int] = {}
        # once a single member j covers, only members before j can do better
        stop = best[0] if best and len(best) == 1 else len(members)
        for j, mask in enumerate(members[:stop]):
            if (local := mask & target) and j != h:
                first.setdefault(local, j)
        reps = list(first.items())
        widest = max((local.bit_count() for local in first), default=0)
        for k in range(1, min(K, len(best) if best else K) + 1):
            S = _lex_first_cover(reps, target, k, 0, widest, budget)
            if S is not None:
                if best is None or (k, S) < (len(best), best):
                    best, best_h = S, h
                break
    return None if best is None else Witness("cover", j2=best, covered=best_h)


def _spend(budget: list, steps: int) -> None:
    budget[0] -= steps
    if budget[0] < 0:
        raise FamilyError(f"cover search exceeds its budget of {_COVER_STEPS} "
                          "steps; use sample_cff")


def _root_refuted(members, K, targets, v, product) -> np.ndarray:
    """Which targets no union of k <= K members other than themselves can
    cover, by two exact bounds on such a cover S of member h:

    * |h| <= k * widest, where widest is the largest |p & h| over the
      members p other than h;
    * on a product universe (m, q), each block b in which h is nonempty
      has a member of S holding at least ceil(|h_b| / k) >= ceil(|h_b| /
      K) elements of h_b: call a member heavy at such a block b.  So h is
      nonempty in at most k * max heavy(p) blocks, where heavy(p) counts
      the blocks at which p (other than h) is heavy.

    The block bound runs first, on every target, and the count bound on
    the targets it leaves."""
    T = np.asarray(targets, dtype=np.intp)
    refuted = np.zeros(len(T), dtype=bool)
    if product and len(T):
        refuted = _block_refuted(members, K, T, *product)
    alive = ~refuted
    if alive.any():
        cols = pack_masks(members, v)
        sizes = np.bitwise_count(cols).sum(axis=0, dtype=np.int64)
        widest = _max_over_others(T[alive], len(members),
                                  lambda chunk: _overlaps(cols, chunk, v))
        refuted[alive] = sizes[T[alive]] > K * widest
    return refuted


def _block_refuted(members, K, T, m: int, q: int) -> np.ndarray:
    """The block bound of `_root_refuted`.  In each block, a member's q-bit
    field is named by an ID among the distinct fields members have there,
    so whether p is heavy at b for h is a lookup in a table over those
    fields, one row per target: one gather per block and chunk of targets,
    not a pass over full-width members."""
    n, full = len(members), (1 << q) - 1
    blocks = []
    for b in range(m):
        index: dict[int, int] = {}
        ids = np.array([index.setdefault(mask >> (b * q) & full, len(index))
                        for mask in members], dtype=np.intp)
        blocks.append((ids, pack_masks(list(index), q),
                       np.array([field.bit_count() for field in index])))
    nonempty = sum(sizes[ids] > 0 for ids, _, sizes in blocks)

    def heavy(chunk):
        out = np.zeros((len(chunk), n), dtype=np.min_scalar_type(m))
        for ids, fields, sizes in blocks:
            h = ids[chunk]
            need = sizes[h, None]
            table = (_overlaps(fields, h, q) >= -(-need // K)) & (need > 0)
            out += np.take(table, ids, axis=1)
        return out

    return nonempty[T] > K * _max_over_others(T, n, heavy)


def _overlaps(cols, rows, v: int) -> np.ndarray:
    """Table of |x & y| for x the masks at `rows` and y every mask, from
    the `pack_masks` columns of masks of at most v bits."""
    out = np.zeros((len(rows), cols.shape[1]), dtype=np.min_scalar_type(v))
    for col in cols:
        out += np.bitwise_count(col & col[rows, None])
    return out


def _max_over_others(T, n: int, score) -> np.ndarray:
    """Entry t: the largest score(chunk)[i, p] over the members p other
    than T[t], where chunk = T[s:s + c] holds T[t] at row i = t - s and
    score(chunk) is a (len(chunk), n) table.  Chunks hold about
    `_COVER_CHUNK` entries."""
    out = np.empty(len(T), dtype=np.int64)
    step = max(1, _COVER_CHUNK // n)
    for s in range(0, len(T), step):
        chunk = T[s:s + step]
        table = score(chunk)
        table[np.arange(len(chunk)), chunk] = 0
        out[s:s + step] = table.max(axis=1)
    return out


def _lex_first_cover(reps, residual, k, pos, widest, budget):
    """Lex-first k indices from reps[pos:] ((projection, index) pairs in
    index order) whose projections cover `residual`, each strictly
    shrinking it in turn, or None.  Every member of a minimum cover shrinks
    the residual whatever the order, so this prunes no minimum cover; nor
    does giving up once the residual has more bits than k projections of
    at most `widest` bits can hold.  Each call spends its loop's length
    from `budget` (`_spend`)."""
    if residual.bit_count() > k * widest:
        return None
    _spend(budget, len(reps) - pos)
    for ci in range(pos, len(reps)):
        mask, j = reps[ci]
        nr = residual & ~mask
        if nr == residual:
            continue
        if k == 1:
            if not nr:
                return (j,)
        else:
            sub = _lex_first_cover(reps, nr, k - 1, ci + 1, widest, budget)
            if sub is not None:
                return (j, *sub)
    return None


def is_partial_cff(family: SetFamily, subfamily_indices, K: int) -> VerifyResult:
    """Check the designated subfamily, considered alone, for cover-freeness.
    Witness indices refer to positions within `subfamily_indices`."""
    return is_k_cff(family.subfamily(subfamily_indices), K)


# ---------------------------------------------------------------------------
# Union-distinct code check
# ---------------------------------------------------------------------------

def _one_hot(book: CodeBook) -> SetFamily:
    """Row j becomes one element per coordinate i: the rank of row[j][i]
    among the symbols column i uses, past the earlier columns' ranks.  The
    union over J holds exactly J's per-coordinate symbol sets, and the
    universe has sum_i |used_i| <= m * min(s, M) elements for any s."""
    bits = np.empty(book.rows.shape, dtype=np.int64)
    v = 0
    for i in range(book.m):
        used, rank = np.unique(book.rows[:, i], return_inverse=True)
        bits[:, i] = rank + v
        v += len(used)
    return SetFamily(Universe(v), [sum(1 << b for b in row)
                                   for row in bits.tolist()])


def is_k_ud_code(book: CodeBook, K: int) -> VerifyResult:
    """Exhaustively check that no two distinct row-index sets of size <= K
    give identical per-coordinate symbol sets: `is_k_udf` on the one-hot
    family, except K = 2 scans of large books with base-s^2 keys < 2^63.
    One route decision for the whole book sets the budget and `checked`:
    a K = 2 check of more than `_PACKED_THRESHOLD` rows whose keys fit, or
    whose one-hot universe has at most 64 elements, is a packed scan
    (`_PACKED_LIMIT`), any other a walk (`_EXHAUSTIVE_LIMIT`).

    At K = 2 a book of at least `_AGREE_ROWS` rows per ceil(m/2)-subset of
    coordinates is first cut to its heavy rows (`_heavy_rows`), the only
    rows a duplicate can involve.  The heavy rows, taken in index order,
    take the whole book's route and have the same first repeat, so the
    verdict and witness are the whole book's; `checked` is what the scan
    of the whole book reports."""
    if book.M == 0:
        raise FamilyError("empty codebook")
    if K < 1:
        raise FamilyError(f"K must be >= 1, got {K}")
    n = book.M
    total = _subset_count(n, K)
    s, m = book.s, book.m
    fits = (s * s) ** m < 2**63
    # the one-hot universe's size, counted only when the keys do not fit
    packed = min(K, n) == 2 and n > _PACKED_THRESHOLD and (
        fits or sum(len(np.unique(col)) for col in book.rows.T) <= 64)
    if total > (_PACKED_LIMIT if packed else _EXHAUSTIVE_LIMIT):
        raise FamilyError(f"{total} subsets exceed the exhaustive budget; "
                          "use sample_ud_code")
    keys = packed and fits
    if min(K, n) != 2 or n < _AGREE_ROWS * comb(m, -(-m // 2)):
        return _ud_code_scan(book, K, keys)
    heavy = _heavy_rows(book.rows)
    if not len(heavy):
        return VerifyResult(True, None, total)
    res = _ud_code_scan(CodeBook(s, m, book.rows[heavy]), 2, keys)
    if res.ok:
        return VerifyResult(True, None, total)
    j1, j2 = (tuple(heavy[list(J)].tolist())
              for J in (res.witness.j1, res.witness.j2))
    # a packed scan of the whole book counts every unit, the walk the
    # units up to the witness: {a} is unit a + 1, and {a, b} is unit
    # b - a of the last C(n - a, 2), the pairs of indices >= a
    if packed:
        checked = total
    elif len(j2) == 1:
        checked = j2[0] + 1
    else:
        checked = total - comb(n - j2[0], 2) + j2[1] - j2[0]
    return VerifyResult(False, Witness("duplicate-symbol-set", j1, j2), checked)


def _heavy_rows(rows: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows that agree with another row on at least
    h = ceil(m/2) of their m coordinates.

    Only heavy rows can make a K = 2 duplicate.  Two index sets of size
    <= 2 have equal symbol sets only if two rows are equal, or if disjoint
    pairs {i, j} and {k, l} have equal symbol sets at every coordinate;
    then row k equals row i or row j at each coordinate, so it agrees with
    one of them on at least h, and likewise for i, j and l.  (An index set
    that shares a row with the one it repeats, or is a singleton, repeats
    it only through two equal rows, whose singletons repeat first.)

    Rows are grouped by their symbols on each h-subset of coordinates, and
    rows in a group of two or more are marked.  A row's group ID (< n)
    takes one coordinate at a time: it gains that column's symbol rank
    (< n) in base n and is re-ranked with `np.unique`, so keys stay below
    n^2 for any alphabet."""
    n, m = rows.shape
    h = -(-m // 2)
    ranks = [np.unique(col, return_inverse=True)[1] for col in rows.T]
    heavy = np.zeros(n, dtype=bool)
    for cols in itertools.combinations(ranks, h):
        ids = cols[0]
        for col in cols[1:]:
            ids = np.unique(ids * n + col, return_inverse=True)[1]
        heavy |= np.bincount(ids)[ids] > 1
        if heavy.all():
            break
    return np.flatnonzero(heavy)


def _ud_code_scan(book: CodeBook, K: int, keys: bool) -> VerifyResult:
    """The exact check of `is_k_ud_code` on all of `book`: the packed
    base-s^2 scan when `keys`, else `is_k_udf` on the one-hot family."""
    s, m = book.s, book.m
    if keys:
        # each coordinate's symbol set {lo, hi} is encoded as lo*s + hi and
        # the m codes are packed base s^2 into one integer per index set.
        # Since lo*s + hi = (s-1)*lo + (lo + hi) and lo + hi is the sum of
        # the two symbols, the key of the pair (i, j) is P[i] + P[j] plus
        # the sum over the coordinates c of min(x[i, c], x[j, c]) * (s-1) *
        # s^(2c), where P packs each row base s^2.  Every term is below the
        # key, so nothing overflows.  A row's label is its symbol in the
        # coordinate with the most distinct symbols: that coordinate's
        # symbol set, a class, is part of the key.
        rows = book.rows.astype(np.uint64)
        s2 = np.uint64(s * s) ** np.arange(m, dtype=np.uint64)
        packed = rows @ s2
        scaled = [rows[:, c] * (s2[c] * np.uint64(s - 1)) for c in range(m)]

        def outer(I, J, out):
            np.add(packed[I, None], packed[J], out=out)
            low = np.empty_like(out)
            for col in scaled:
                out += np.minimum(col[I, None], col[J], out=low)

        label = max(book.rows.T, key=lambda col: len(np.unique(col)))
        return _packed_pair_scan(packed * np.uint64(s + 1), outer, label,
                                 lambda g, h: g * s + h, "duplicate-symbol-set")
    res = is_k_udf(_one_hot(book), K)
    if res.ok:
        return res
    return replace(res, witness=replace(res.witness, kind="duplicate-symbol-set"))


def distance_slack(m: int, d: int, K: int) -> int:
    """m - K(m - d): positive exactly when the condition K(m - d) < m holds."""
    return m - K * (m - d)


# ---------------------------------------------------------------------------
# Seeded samplers for instances beyond exhaustive reach
# ---------------------------------------------------------------------------

# Version of the random stream behind every SampleReport: a seed reproduces
# a report only under the same sampler version.  "batched-v2" reads its
# words from a SplitMix64 counter stream (`_Words`).
SAMPLER = "batched-v2"
# Trials per block.  Every block is drawn in full and the last one is cut
# to length, so trial t's draws do not depend on the number of trials; the
# block size is therefore part of the stream.  On the 10^6-trial preset
# samplers (2-vCPU host), 4,096 ran 10-25 % slower and 16,384 no faster.
_BLOCK = 8192
# SplitMix64's increment and finaliser (splitmix64.c): shift, multiply,
# shift, multiply, shift.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = tuple(map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB,
                             31)))
# `_Words` computes at least this many words at a time: 2^16 ran no faster
# and added 0.6 MB of peak RSS to 10^6 cover trials on example4's output.
_CHUNK = 2**14


@dataclass(frozen=True)
class SampleReport:
    property: str
    k: int
    trials: int
    violations: int
    seed: int
    witness: Witness | None = None
    sampler: str = SAMPLER

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        d = {"property": self.property, "k": self.k, "trials": self.trials,
             "violations": self.violations, "seed": self.seed, "ok": self.ok,
             "sampler": self.sampler}
        if self.witness is not None:
            d["witness"] = self.witness.to_json_dict()
        return d


def sample_udf(family: SetFamily, K: int, trials: int, seed: int = 0) -> SampleReport:
    """Random pairs of distinct <= K index sets; count equal unions."""
    _require_family(family, K)
    if family.n < 2:
        raise FamilyError("union sampling needs at least 2 members")
    return _sample("union-distinct", "duplicate-union",
                   pack_masks(family.members + [0], family.universe.v),
                   K, min(K, family.n), trials, seed)


def sample_cff(family: SetFamily, K: int, trials: int, seed: int = 0) -> SampleReport:
    """Random (subset, target) cover checks.  Subsets hold at most
    min(K, n - 1) members, so some target always lies outside them."""
    _require_family(family, K)
    if family.n < 2:
        raise FamilyError("cover sampling needs at least 2 members")
    return _sample("cover-free", "cover",
                   pack_masks(family.members + [0], family.universe.v),
                   K, min(K, family.n - 1), trials, seed)


def sample_ud_code(book: CodeBook, K: int, trials: int, seed: int = 0) -> SampleReport:
    """Random pairs of distinct <= K row-index sets; count equal
    per-coordinate symbol sets.  Rows are sampled as members of the
    book's one-hot family (`_one_hot`), whose unions over J hold exactly
    the per-coordinate symbol sets of J."""
    if book.M < 2:
        raise FamilyError("sampling needs at least 2 rows")
    if K < 1:
        raise FamilyError(f"K must be >= 1, got {K}")
    family = _one_hot(book)
    return _sample("code-union-distinct", "duplicate-symbol-set",
                   pack_masks(family.members + [0], family.universe.v), K,
                   min(K, book.M), trials, seed)


def _sample(prop: str, kind: str, packed: np.ndarray, K: int, kmax: int,
            trials: int, seed: int) -> SampleReport:
    """The one sampler engine, over the n member columns of `packed` and
    its empty padding column n.

    Trials run in blocks drawn by `_draw_block` and checked all at once:
    kind "cover" counts a violation when member h lies inside the union
    over j1, the union kinds when the unions over j1 and j2 are equal.
    The witness is the first violation in trial order.
    """
    if trials < 1:
        raise FamilyError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 1 << 64:
        raise FamilyError(f"seed must lie in [0, 2^64), got {seed}")
    n = packed.shape[1] - 1
    words = _Words(seed)
    violations, witness = 0, None
    for start in range(0, trials, _BLOCK):
        j1, other = _draw_block(words, n, kmax, kind)
        u1 = _unions(packed, j1)
        if kind == "cover":
            hit = _covered(packed, other, u1)
        else:
            hit = (u1 == _unions(packed, other)).all(axis=0)
        hits = np.flatnonzero(hit[:trials - start])
        violations += len(hits)
        if witness is None and len(hits):
            t = hits[0]
            S = tuple(j for j in j1[t].tolist() if j < n)
            if kind == "cover":
                witness = Witness(kind, j2=S, covered=int(other[t]))
            else:
                witness = Witness(kind, S, tuple(j for j in other[t].tolist()
                                                 if j < n))
    return SampleReport(prop, K, trials, violations, seed, witness)


class _Words:
    """The samplers' 32-bit words: SplitMix64 (Steele, Lea and Flood,
    OOPSLA 2014) from state `seed`, computed as a counter stream in numpy.
    64-bit output i = 1, 2, ... is mix(seed + i * _GAMMA mod 2^64), a pure
    function of (seed, i), so a run of outputs is a few array operations.
    Each output gives two words, low half first; `take` hands them out in
    order, `_CHUNK` or more at a time computed ahead, and `used` counts the
    words handed out."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed)
        self.used = 0
        self._buf = np.empty(0, np.uint32)  # words self.used onwards

    def take(self, count: int) -> np.ndarray:
        if count > len(self._buf):
            first = (self.used + len(self._buf)) // 2 + 1
            z = np.arange(first, first + max(count, _CHUNK) // 2 + 1,
                          dtype=np.uint64)
            z *= _GAMMA
            z += self.seed
            s1, m1, s2, m2, s3 = _MIX
            z ^= z >> s1
            z *= m1
            z ^= z >> s2
            z *= m2
            z ^= z >> s3
            self._buf = np.concatenate([self._buf, split_words(z)])
        out, self._buf = self._buf[:count], self._buf[count:]
        self.used += count
        return out


def _draw_block(words: _Words, n: int, kmax: int, kind: str):
    """One block of `_BLOCK` trials: index sets j1 (`_draw_sets`) and, per
    trial, a target h uniform outside j1 (kind "cover") or a second index
    set j2 != j1 (the union kinds)."""
    j1 = _draw_sets(words, n, kmax, _BLOCK)
    # j1 views this (kmax, count) array; checks over its contiguous
    # columns run several times faster than row-wise ones over j1
    cols = j1.T
    if kind == "cover":
        return j1, _rejection(
            lambda rows: _uniform(words, n, len(rows)),
            lambda rows, h: (np.take(cols, rows, axis=1) == h).any(axis=0),
            _BLOCK)
    return j1, _rejection(
        lambda rows: _draw_sets(words, n, kmax, len(rows)),
        lambda rows, j2: (np.take(cols, rows, axis=1) == j2.T).all(axis=0),
        _BLOCK)


def _draw_sets(words: _Words, n: int, kmax: int, count: int) -> np.ndarray:
    """`count` index sets as sorted rows of a (count, kmax) array padded
    with n: the size is uniform on 1..kmax and, given the size, the set is
    uniform.  Sets are drawn by Floyd's algorithm, one column per step j
    from n - kmax to n - 1: a row of size k joins at step n - k, draws t
    uniform on 0..j and takes t, or j if t is already in the row.  That
    needs exactly one word per member, even at kmax = n, and the words of
    a column go to its joining rows in row order.

    The columns live in a (kmax, count) array, so each step compares
    whole contiguous columns.  Column c holds n + c in the rows that have
    not joined, which no earlier column holds, until all are clamped to
    n; an odd-even transposition network of kmax rounds then sorts the
    columns, and the rows are its transposed view."""
    size = _uniform(words, kmax, count) + 1
    cols = np.empty((kmax, count), dtype=np.int64)
    for c in range(kmax):
        j = n - kmax + c
        col = cols[c]
        rows = np.flatnonzero(size >= kmax - c)
        col.fill(n + c)
        col[rows] = _uniform(words, j + 1, len(rows))
        col[(cols[:c] == col).any(axis=0)] = j
    np.minimum(cols, n, out=cols)
    for r in range(kmax):
        lo, hi = cols[r % 2:kmax - 1:2], cols[r % 2 + 1::2]
        low = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = low
    return cols.T


def _rejection(draw, bad, count: int) -> np.ndarray:
    """draw(rows) for rows 0..count-1; the rows for which bad(rows, values)
    holds, and only those, are redrawn until none is left, so each row is
    uniform on its values that are not bad."""
    rows = np.arange(count)
    out = draw(rows)
    rows = rows[bad(rows, out)]
    while len(rows):
        out[rows] = draw(rows)
        rows = rows[bad(rows, out[rows])]
    return out


def _uniform(words: _Words, m: int, count: int) -> np.ndarray:
    """`count` integers uniform on [0, m) from the next words: a word
    below the largest multiple of m under 2^32 is kept and reduced mod m,
    and a rejected word is replaced by the words after it."""
    top = (1 << 32) // m * m - 1  # the largest word kept
    x = words.take(count)
    while not (x <= top).all():
        x = x[x <= top]
        x = np.concatenate([x, words.take(count - len(x))])
    return (x % m).astype(np.int64)


def _unions(packed: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Column t is the OR of the packed columns sets[t].  `np.take`
    gathers several times faster than `packed[:, index]` does."""
    u = np.take(packed, sets[:, 0], axis=1)
    for c in range(1, sets.shape[1]):
        u |= np.take(packed, sets[:, c], axis=1)
    return u


def _covered(packed: np.ndarray, h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Entry t: whether packed column h[t] lies inside column t of u."""
    return ~(np.take(packed, h, axis=1) & ~u).any(axis=0)


def _require_family(family: SetFamily, K: int) -> None:
    if family.n == 0:
        raise FamilyError("empty family")
    if K < 1:
        raise FamilyError(f"K must be >= 1, got {K}")
