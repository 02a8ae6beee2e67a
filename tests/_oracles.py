"""Independent brute-force oracles used to cross-check the library's
verifiers.  These deliberately share no code with the implementations they
check: unions are compared pairwise over explicitly enumerated index sets,
covers and traced coalitions are tested straight from the definition, and extension-field
arithmetic is recomputed from coefficient vectors.  The greedy lexicode
and the sampler's index-set draw are kept here in their first, row-by-row
form, as references for the vectorised kernels, the codebook walk in its
first, tuple-keyed form, as a reference for the one-hot walk, and the
annealer's feasible-subset extraction in its first, recount-every-round
form.  Reducibility of a field modulus is decided by multiplying out every
pair of monic factors, and orthogonal arrays are checked by counting every
projected tuple in a Counter."""

import collections
import functools
import itertools

import numpy as np


def all_index_subsets(n, kmax):
    for k in range(1, min(kmax, n) + 1):
        yield from itertools.combinations(range(n), k)


def naive_udf(members, K):
    """All-pairs union comparison.  Returns (ok, (J1, J2) or None)."""
    subsets = list(all_index_subsets(len(members), K))
    unions = []
    for J in subsets:
        u = 0
        for j in J:
            u |= members[j]
        unions.append(u)
    for a in range(len(subsets) - 1):
        for b in range(a + 1, len(subsets)):
            if unions[a] == unions[b]:
                return False, (subsets[a], subsets[b])
    return True, None


def naive_cff(members, K):
    """Direct definition: for every target and every subset of at most K
    other members, the union must not contain the target."""
    n = len(members)
    for h in range(n):
        others = [j for j in range(n) if j != h]
        for k in range(1, min(K, len(others)) + 1):
            for S in itertools.combinations(others, k):
                u = 0
                for j in S:
                    u |= members[j]
                if members[h] & ~u == 0:
                    return False, (S, h)
    return True, None


def naive_cover_witness(members, K, targets):
    """Canonical cover witness from its definition: of all pairs (S, h)
    with 1 <= |S| <= K, h in targets, h not in S and member h inside the
    union over S, the least by (|S|, S, position of h in targets).
    Returns (S, h) or None."""
    targets = list(targets)
    hits = []
    for S in all_index_subsets(len(members), K):
        u = 0
        for j in S:
            u |= members[j]
        for pos, h in enumerate(targets):
            if h not in S and members[h] | u == u:
                hits.append((len(S), S, pos, h))
    if not hits:
        return None
    _, S, _, h = min(hits)
    return S, h


def naive_root_refuted(members, K, targets, product=None):
    """For each target h, whether one of the cover kernel's two root
    bounds rules out every cover of h by k <= K members other than h, from
    their definitions over element sets: |h| > K * (largest |p & h| over
    the members p other than h), or, on the product universe (m, q), the
    number of blocks where h is nonempty exceeds K * (largest number of
    blocks b with h_b nonempty and |p_b & h_b| >= ceil(|h_b| / K))."""
    sets = [{i for i in range(mask.bit_length()) if mask >> i & 1}
            for mask in members]
    out = []
    for h in targets:
        others = [sets[p] for p in range(len(sets)) if p != h]
        widest = max((len(p & sets[h]) for p in others), default=0)
        refuted = len(sets[h]) > K * widest
        if product is not None:
            m, q = product
            blocks = [{e for e in sets[h] if e // q == b} for b in range(m)]
            heavy = max((sum(1 for hb in blocks if hb and
                             len(p & hb) >= -(-len(hb) // K)) for p in others),
                        default=0)
            refuted = refuted or sum(1 for hb in blocks if hb) > K * heavy
        out.append(refuted)
    return out


def naive_trace(codewords, v, bits, K):
    """Coalition tracing from its definition: the candidates are the users
    whose codeword holds every 1 of the fingerprint, and the match is the
    least (|J|, J) over all sets J of at most K users whose AND equals the
    fingerprint.  Returns (match or None, candidates)."""
    candidates = tuple(j for j, c in enumerate(codewords) if c & bits == bits)
    matches = []
    for J in all_index_subsets(len(codewords), K):
        acc_bits = (1 << v) - 1
        for j in J:
            acc_bits &= codewords[j]
        if acc_bits == bits:
            matches.append((len(J), J))
    return (min(matches)[1] if matches else None), candidates


def naive_oa(rows, s, t):
    """First failure of "every t-tuple once in every t-column subarray":
    (columns, symbols, count) for the first column subset and, within it,
    the first tuple in code order (last symbol most significant) whose
    count is not 1; None when the rows form the array."""
    m = len(rows[0])
    for cols in itertools.combinations(range(m), t):
        counts = collections.Counter(tuple(r[c] for c in cols) for r in rows)
        for high_first in itertools.product(range(s), repeat=t):
            symbols = high_first[::-1]
            if counts[symbols] != 1:
                return cols, symbols, counts[symbols]
    return None


def naive_ud_code(rows, K):
    """All-pairs comparison of per-coordinate symbol sets."""
    m = len(rows[0])
    subsets = list(all_index_subsets(len(rows), K))
    keys = [tuple(frozenset(rows[j][i] for j in J) for i in range(m))
            for J in subsets]
    for a in range(len(subsets) - 1):
        for b in range(a + 1, len(subsets)):
            if keys[a] == keys[b]:
                return False, (subsets[a], subsets[b])
    return True, None


def reference_ud_code_walk(rows, K):
    """The dictionary walk over per-coordinate symbol-set keys that
    `is_k_ud_code` once ran on its own: index sets by size, then lex, each
    keyed by its sorted symbol set at every coordinate; the first key seen
    twice gives the witness.  Returns (ok, (J1, J2) or None, checked)."""
    m = len(rows[0])
    seen = {}
    checked = 0
    for J in all_index_subsets(len(rows), K):
        key = tuple(tuple(sorted({rows[j][i] for j in J})) for i in range(m))
        checked += 1
        prev = seen.get(key)
        if prev is not None:
            return False, (prev, J), checked
        seen[key] = J
    return True, None, checked


def naive_h0(rows, inner, q):
    """The concatenated family by its definition: member j is the OR over
    coordinates i of inner member rows[j][i] shifted into block i, that
    is, by i * q bits."""
    members = []
    for row in rows:
        mask = 0
        for i, symbol in enumerate(row):
            mask |= inner[symbol] << (i * q)
        members.append(mask)
    return members


def naive_greedy_lexicode(q, d, w):
    """Words of the greedy lexicode by its definition: every weight-w word
    of length q, in lexicographic order of its support, is kept when it
    overlaps each word kept so far in at most w - d/2 places (an odd d is
    rounded up, as the library does)."""
    d += d % 2
    max_overlap = w - d // 2
    kept = []
    for support in itertools.combinations(range(q), w):
        word = 0
        for k in support:
            word |= 1 << k
        if all((word & other).bit_count() <= max_overlap for other in kept):
            kept.append(word)
    return kept


def reference_feasible_subset(words, max_overlap):
    """Drop the first most-conflicted word, recounting every pair after
    each drop, until no two kept words overlap in more than max_overlap
    positions."""
    keep = list(dict.fromkeys(words))
    while True:
        counts = [sum((a & b).bit_count() > max_overlap
                      for j, b in enumerate(keep) if j != i)
                  for i, a in enumerate(keep)]
        if not keep or max(counts) == 0:
            return keep
        keep.pop(counts.index(max(counts)))


class SplitMix64:
    """splitmix64.c in Python ints, one output at a time: the state starts
    at the seed, and each output adds 0x9E3779B97F4A7C15 to it and mixes
    the sum.  `word` hands out the outputs' 32-bit halves, low half first,
    and `used` counts them."""

    def __init__(self, seed):
        self.state, self.used, self.high = seed, 0, None

    def next64(self):
        mask = (1 << 64) - 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & mask
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def word(self):
        self.used += 1
        if self.high is None:
            z = self.next64()
            self.high = z >> 32
            return z & 0xFFFFFFFF
        word, self.high = self.high, None
        return word


def reference_uniform(words, m, count):
    """`count` integers uniform on [0, m), one `SplitMix64` word at a time:
    a word below the largest multiple of m under 2^32 is reduced mod m,
    any other is skipped."""
    limit = (1 << 32) // m * m
    out = []
    while len(out) < count:
        x = words.word()
        if x < limit:
            out.append(x % m)
    return np.array(out, dtype=np.int64)


def reference_floyd_sets(words, n, kmax, count):
    """The sampler's index-set draw, row by row, from a `SplitMix64`:
    `count` sorted rows of a (count, kmax) array padded with n.  Sizes are
    uniform on 1..kmax; then Floyd's algorithm runs one column per step
    j = n - kmax .. n - 1, where every row of size >= n - j draws t
    uniform on 0..j and takes t, or j if t is already in the row."""
    size = reference_uniform(words, kmax, count) + 1
    idx = np.full((count, kmax), n, dtype=np.int64)
    for c in range(kmax):
        j = n - kmax + c
        rows = np.flatnonzero(size >= kmax - c)
        t = reference_uniform(words, j + 1, len(rows))
        taken = (idx[rows, :c] == t[:, None]).any(axis=1)
        idx[rows, c] = np.where(taken, j, t)
    idx.sort(axis=1)
    return idx


def poly_field_mul(a_idx, b_idx, p, modulus):
    """Multiply two base-p encoded extension-field elements by explicit
    polynomial multiplication and reduction (ascending coefficients)."""
    e = len(modulus) - 1

    def decode(x):
        out = []
        for _ in range(e):
            out.append(x % p)
            x //= p
        return out

    a, b = decode(a_idx), decode(b_idx)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, e - 1, -1):
        coeff = prod[top]
        if coeff:
            for i in range(e + 1):
                prod[top - e + i] = (prod[top - e + i] - coeff * modulus[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


def poly_field_add(a_idx, b_idx, p, e):
    """Add two base-p encoded elements of GF(p^e) coefficient by
    coefficient."""
    return sum((a_idx // p**i + b_idx // p**i) % p * p**i for i in range(e))


def naive_reducible(mod, p):
    """Whether the monic polynomial mod (ascending coefficients) over GF(p)
    equals g * h for monic g and h of positive degree."""
    return tuple(mod) in _monic_products(p, len(mod) - 1)


@functools.lru_cache(maxsize=None)
def _monic_products(p, e):
    """Every product of two monic polynomials of positive degree whose
    degrees sum to e, multiplied out term by term."""
    products = set()
    for dg in range(1, e):
        for g in itertools.product(range(p), repeat=dg):
            for h in itertools.product(range(p), repeat=e - dg):
                prod = [0] * (e + 1)
                for i, gi in enumerate(g + (1,)):
                    for j, hj in enumerate(h + (1,)):
                        prod[i + j] = (prod[i + j] + gi * hj) % p
                products.add(tuple(prod))
    return frozenset(products)


def gf_rank(rows, gf):
    """Rank of a matrix over the field by Gaussian elimination using only
    the field's scalar add and mul: an inverse is found by search, and -x
    is (p - 1) * x."""
    mat = [list(r) for r in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = next(x for x in range(1, gf.s) if gf.mul(mat[rank][col], x) == 1)
        mat[rank] = [gf.mul(inv, x) for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col] != 0:
                factor = gf.mul(gf.p - 1, mat[r][col])
                mat[r] = [gf.add(x, gf.mul(factor, y))
                          for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank
