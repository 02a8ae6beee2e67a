import concurrent.futures
import contextlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import acckit
import acckit.families as fam_mod
from acckit.accs import acc_to_family, build_h0, build_theorem2_acc
from acckit.arrays import CodeBook, build_U, build_W, min_distance
from acckit.codec import pack_masks
from acckit.cwcodes import family_from_code, greedy_lexicode, import_code
from acckit.families import (FamilyError, SetFamily, Universe, Witness,
                             distance_slack, is_k_cff, is_k_ud_code, is_k_udf,
                             is_partial_cff, load_family, replay_witness,
                             sample_cff, sample_ud_code, sample_udf,
                             save_family, union_of)
from acckit.gf import GF
from acckit.presets import FIXTURE_DIR

from _oracles import (SplitMix64, naive_cff, naive_cover_witness,
                      naive_root_refuted, naive_ud_code, naive_udf,
                      reference_floyd_sets, reference_ud_code_walk)


def random_family(rng, n, v, max_size=None):
    members = []
    for _ in range(n):
        size = rng.randint(1, min(max_size or v, v))
        mask = 0
        for idx in rng.sample(range(v), size):
            mask |= 1 << idx
        members.append(mask)
    return SetFamily(Universe(v), members)


# ---------------------------------------------------------------------------
# types and IO
# ---------------------------------------------------------------------------

def test_universe_rejects_mismatched_product():
    for product in ((3, 3), (-2, -4)):
        with pytest.raises(FamilyError):
            Universe(8, product)


def test_family_construction_guards():
    u = Universe(4)
    with pytest.raises(FamilyError):
        SetFamily(u, [0])  # empty member
    with pytest.raises(FamilyError):
        SetFamily(u, [1 << 4])  # outside universe
    with pytest.raises(FamilyError):
        SetFamily.from_sets(u, [[4]])


def test_family_json_roundtrip(tmp_path, example1_family):
    p = tmp_path / "fam.json"
    save_family(example1_family, p)
    again = load_family(p)
    assert again == example1_family
    raw = json.loads(p.read_text())
    assert raw["sets"][0] == [0, 3, 6]
    assert raw["universe"] == {"v": 9, "product": {"m": 3, "q": 3}}
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(FamilyError):
        load_family(bad)


# ---------------------------------------------------------------------------
# union-distinct family verification
# ---------------------------------------------------------------------------

def test_udf_example1(example1_family):
    res = is_k_udf(example1_family, 2)
    assert res.ok
    assert res.checked == 12 + 66


def test_udf_duplicate_members():
    fam = SetFamily.from_sets(Universe(4), [[0, 1], [2], [0, 1]])
    res = is_k_udf(fam, 1)
    assert not res.ok
    assert res.witness == Witness("duplicate-union", (0,), (2,))
    assert replay_witness(fam, res.witness)


def test_udf_nested_sets_count_as_distinct_index_sets():
    # member 2 inside member 0's union with member 1: {0,1} vs {0,1,2}? at
    # K=2 the pair {0,2} unions to member 0 itself, so {0} vs {0,2} collide
    fam = SetFamily.from_sets(Universe(4), [[0, 1, 2], [3], [1, 2]])
    res = is_k_udf(fam, 2)
    assert not res.ok
    assert res.witness.j1 == (0,) and res.witness.j2 == (0, 2)


def test_udf_matches_naive_oracle_on_random_corpus():
    rng = random.Random(42)
    disagreements = 0
    for _ in range(40):
        fam = random_family(rng, rng.randint(4, 14), rng.randint(5, 24))
        for K in (1, 2, 3):
            res = is_k_udf(fam, K)
            ok, pair = naive_udf(fam.members, K)
            assert res.ok == ok, (fam.members, K)
            if not ok:
                assert replay_witness(fam, res.witness)
    assert disagreements == 0


def test_udf_spec_oracle_case():
    rng = random.Random(7)
    members = []
    while len(members) < 20:
        mask = 0
        for idx in rng.sample(range(30), 8):
            mask |= 1 << idx
        members.append(mask)
    fam = SetFamily(Universe(30), members)
    ok, _ = naive_udf(fam.members, 2)
    assert is_k_udf(fam, 2).ok == ok


def test_udf_packed_path_agrees(monkeypatch):
    rng = random.Random(3)
    for _ in range(25):
        fam = random_family(rng, rng.randint(6, 20), rng.randint(4, 30))
        plain = is_k_udf(fam, 2)
        monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 1)
        packed = is_k_udf(fam, 2)
        monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 512)
        assert plain.ok == packed.ok
        if plain.ok:
            assert plain.checked == packed.checked
        else:
            assert plain.witness == packed.witness


def test_udf_packed_default_dispatch_planted_duplicate(monkeypatch):
    # n > 512 members over v <= 64 takes the packed path without patching;
    # its witness must be the dictionary walk's canonical first duplicate
    rng = random.Random(41)
    n = 600
    for plant in ("singleton-pair", "pair-pair", "singleton-pair", "pair-pair"):
        v = rng.randint(40, 64)
        sets = [rng.sample(range(v), 6) for _ in range(n)]
        a, b, c, d = sorted(rng.sample(range(n), 4))
        if plant == "singleton-pair":
            sets[d] = sets[a] + sets[b]
        else:  # c and d split the elements of a and b between them
            sets[c] = sets[a][:3] + sets[b][:3]
            sets[d] = sets[a][3:] + sets[b][3:]
        fam = SetFamily.from_sets(Universe(v), sets)
        packed = is_k_udf(fam, 2)
        assert not packed.ok and packed.checked == n + n * (n - 1) // 2
        assert replay_witness(fam, packed.witness)
        monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 10**6)
        plain = is_k_udf(fam, 2)
        monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 512)
        assert packed.witness == plain.witness


@st.composite
def packable_families(draw):
    """Families of 2..12 members over v <= 64 elements, the universes the
    packed K = 2 union scan admits, up to a full 64-bit word.  Members hold
    at most `width` random elements; giving each member a private element
    as well makes the family union-distinct.  On top of that, a member may
    repeat another or equal the union of two others, or two members may
    split the elements of two others between them, which plants each kind
    of duplicate union the scan must report."""
    v = draw(st.one_of(st.integers(1, 8), st.integers(1, 64),
                       st.just(64)))
    width = draw(st.integers(1, min(v, 5)))
    element = st.one_of(st.integers(0, v - 1), st.sampled_from([0, v - 1]))
    n = draw(st.integers(2, 12))
    sets = [list(S) for S in draw(st.lists(
        st.sets(element, min_size=1, max_size=width), min_size=n, max_size=n))]
    if n <= v and draw(st.sampled_from([True, True, False])):
        sets = [[j] + [e for e in S if e >= n] for j, S in enumerate(sets)]
        event("private elements")
    plant = draw(st.sampled_from(["none", "copy", "union", "union", "split",
                                  "split"]))
    order = draw(st.permutations(range(n)))
    if plant == "copy":
        sets[order[1]] = list(sets[order[0]])
    elif plant == "union" and n >= 3:
        a, b, c = order[:3]
        sets[c] = sets[a] + sets[b]
    elif plant == "split" and n >= 4:
        a, b, c, d = order[:4]
        sets[c] = sets[a][:1] + sets[b][1:]
        sets[d] = sets[a][1:] + sets[b][:1]
    event(plant)
    return SetFamily.from_sets(Universe(v), sets)


# How a test forces the packed scan's partition: the rows' labels ("one"
# gives every row label 0, "distinct" gives row j label j under a single
# class spanning every label pair, "caller" keeps the caller's labels and
# classes), the batch size, which tiny batches split at class boundaries
# and 9..64 keys per batch cut into 2..9 batches, and the labels cap L,
# which coarsens the labels of b batches to min(L, isqrt(L * b)).
partitions = st.tuples(
    st.sampled_from(["one", "distinct", "caller", "caller"]),
    st.one_of(st.integers(1, 8), st.integers(9, 64), st.just(2**17)),
    st.sampled_from([1, 2, 3, 16, 128]))


@contextlib.contextmanager
def forced_packed_scan(labelling="caller", batch=2**17, labels_cap=128):
    """The packed K = 2 path, forced by lowering the threshold, under the
    partition given (see `partitions`); yields the list of the witness
    kinds the packed scans ran with."""
    kinds = []
    scan = fam_mod._packed_pair_scan

    def spy(*args):
        single, outer, labels, klass, kind = args
        kinds.append(kind)
        if labelling == "one":
            labels = np.zeros_like(labels)
        elif labelling == "distinct":
            labels, klass = np.arange(len(labels)), lambda g, h: 0 * g
        return scan(single, outer, labels, klass, kind)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fam_mod, "_PACKED_THRESHOLD", 1)
        mp.setattr(fam_mod, "_PACKED_BATCH", batch)
        mp.setattr(fam_mod, "_PACKED_LABELS", labels_cap)
        mp.setattr(fam_mod, "_packed_pair_scan", spy)
        yield kinds


@given(packable_families(), partitions)
def test_udf_packed_scan_matches_walk_and_oracle(fam, partition):
    # each family is also checked in reverse member order, which moves
    # duplicates planted among the first members to the last ones.  Under
    # "caller", families over v <= 16 are labelled by whole members and
    # wider ones by a 16-bit top field, so OR classes span label pairs.
    event(partition[0])
    for members in (fam.members, fam.members[::-1]):
        _check_packed_udf(SetFamily(fam.universe, members), partition)


def test_packed_scan_keeps_each_or_class_in_one_batch():
    # {0, 3} | {1, 2} = {0, 1} | {2, 3}.  Over v <= 16 each member is its
    # own label, and the two label pairs of that union lie far apart in
    # (g, h) order, so only batches cut along OR classes hold both keys
    sets = []
    for k, S in enumerate([[0, 3], [1, 2], [0, 1], [2, 3]]):
        sets += [[4 + 2 * k], S, [5 + 2 * k]]
    fam = SetFamily.from_sets(Universe(12), sets)
    labels = sorted(fam.members)
    g, h = np.triu_indices(len(labels))
    at = [i for i, (a, b) in enumerate(zip(g, h))
          if labels[a] | labels[b] == 0b1111]
    assert len(at) == 2 and at[1] - at[0] > 1
    walk = is_k_udf(fam, 2)
    assert walk.witness == Witness("duplicate-union", (1, 4), (7, 10))
    for batch in (1, 2, 4, 8, 16):
        with forced_packed_scan("caller", batch) as kinds:
            batches = fam_mod._batches(np.array(fam.members, np.uint64),
                                       np.bitwise_or)
            packed = is_k_udf(fam, 2)
        assert len(batches) > 1 and kinds == ["duplicate-union"]
        assert (packed.ok, packed.witness) == (False, walk.witness), batch


def _check_packed_udf(fam, partition):
    walk = is_k_udf(fam, 2)
    with forced_packed_scan(*partition) as kinds:
        packed = is_k_udf(fam, 2)
    assert kinds == ["duplicate-union"]
    ok, pair = naive_udf(fam.members, 2)
    event("2-UD" if ok else "duplicate union")
    assert packed.ok == walk.ok == ok
    assert packed.witness == walk.witness
    for res in (walk, packed):
        assert res.ok or replay_witness(fam, res.witness)
    if ok:
        assert packed.checked == walk.checked
    else:
        # the oracle compares unions pairwise in another order, so its pair
        # may differ from the canonical witness, but it is a duplicate too
        assert union_of(fam, pair[0]) == union_of(fam, pair[1])
        assert packed.checked == fam.n + math.comb(fam.n, 2)
        assert walk.checked <= packed.checked


@st.composite
def product_families(draw):
    """Families of 2..16 members on a product universe {1..m} x {0..q-1},
    v <= 64.  Each block has a pool of at most 5 fields: singletons, fields
    with a private element each (2-union-distinct), random fields, or
    random fields with the empty one; a member takes one field of each
    pool.  Or, spread: 13..16 members over 3..5 blocks of 5 singletons
    each, member k at block b taking the singleton (x + b y) mod 5 for
    distinct (x, y), so two members agree at one block at most and none is
    heavy until a plant.  A member may copy another, or two may mix two
    others block-wise, which plants a duplicate union.  Empty members are
    dropped."""
    m = draw(st.integers(1, 8))
    q = draw(st.one_of(st.integers(1, 64 // m), st.just(64 // m)))
    spread = 3 <= m <= 5 and q >= 5 and draw(st.booleans())
    pools = []
    for _ in range(m):
        kind = "singletons" if spread else draw(st.sampled_from(
            ["singletons", "private", "random", "empty"]))
        size = 5 if spread else draw(st.integers(1, 5))
        field = st.integers(1, 2**q - 1)
        if kind == "singletons":
            pool = [1 << l for l in draw(st.permutations(range(q)))[:size]]
        elif kind == "private":
            pool = [1 << j | draw(field) >> min(size, q) << min(size, q)
                    for j in range(min(size, q))]
        else:
            pool = draw(st.lists(field, min_size=1, max_size=size))
            if kind == "empty":
                pool.append(0)
        pools.append(pool)
    n = draw(st.integers(13 if spread else 2, 16))
    if spread:
        rows = [[pool[(k // 5 + b * (k % 5)) % 5] for b, pool in
                 enumerate(pools)] for k in draw(st.permutations(range(25)))[:n]]
    else:
        rows = [[draw(st.sampled_from(pool)) for pool in pools]
                for _ in range(n)]
    plant = draw(st.sampled_from(["none", "none", "copy", "mix"]))
    order = draw(st.permutations(range(n)))
    if plant == "copy":
        rows[order[1]] = list(rows[order[0]])
    elif plant == "mix" and n >= 4:
        a, b, c, d = order[:4]
        pick = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        rows[c] = [rows[b][i] if p else rows[a][i] for i, p in enumerate(pick)]
        rows[d] = [rows[a][i] if p else rows[b][i] for i, p in enumerate(pick)]
    event(plant)
    members = [x for x in (sum(f << b * q for b, f in enumerate(row))
                           for row in rows) if x]
    assume(len(members) >= 2)
    return SetFamily(Universe(m * q, (m, q)), members)


def test_product_udf_route_matches_scan_and_oracle():
    # on a product universe whose blocks' fields are 2-union-distinct, the
    # packed scan runs on the heavy rows of the members' field code only:
    # ok, witness and checked must be the product-free family's packed
    # scan's, and the verdict the oracle's
    routes = []

    @given(product_families())
    def check(fam):
        fields_of = fam_mod._product_fields

        def spy(words, product):
            fields = fields_of(words, product)
            if product is not None:
                routes.append(fields is not None)
            return fields

        plain = SetFamily(Universe(fam.universe.v), fam.members)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fam_mod, "_PACKED_THRESHOLD", 1)
            mp.setattr(fam_mod, "_AGREE_ROWS", 0)
            mp.setattr(fam_mod, "_product_fields", spy)
            scan = is_k_udf(plain, 2)
            tried = len(routes)
            res = is_k_udf(fam, 2)
        assert len(routes) == tried + 1
        event("route" if routes[-1] else "scan")
        ok, _ = naive_udf(fam.members, 2)
        event("2-UD" if ok else "duplicate union")
        assert res == scan and res.ok == ok
        assert ok or replay_witness(fam, res.witness)

    # about 58-70 % of the examples take the route
    check()
    assert 0.3 * len(routes) <= sum(routes) <= 0.85 * len(routes)


@pytest.mark.parametrize("plant", ["copy", "mix"])
def test_udf_route_keeps_the_scan_witness_at_scale(plant):
    # example3's output, W over GF(83) concatenated with its 83 fields of
    # 20 bits, with a planted duplicate union: rows 5000 and 6000 copy row
    # 4000, or mix rows 100 and 4000 block-wise.  The route scans only the
    # heavy rows, and must report the scan's witness in the whole
    # family's indices.
    inner = family_from_code(import_code(FIXTURE_DIR / "example3_inner_code.json"))
    members = build_h0(build_W(GF(83), 2, 3), inner).members
    a, b, c, d = 100, 4000, 5000, 6000
    if plant == "copy":
        members[c] = members[d] = members[b]
    else:
        block = (1 << 20) - 1 << 20
        members[c] = members[a] & ~block | members[b] & block
        members[d] = members[b] & ~block | members[a] & block
    fam = SetFamily(Universe(60, (3, 20)), members)
    words = pack_masks(members, 60)[0]
    heavy = fam_mod._heavy_rows(fam_mod._product_fields(words, (3, 20)))
    planted = ((b,), (c,)) if plant == "copy" else ((a, b), (c, d))
    assert set(sum(planted, ())) <= set(heavy.tolist()) and len(heavy) < 400
    res = is_k_udf(fam, 2)
    assert res.witness == Witness("duplicate-union", *planted)
    assert res == is_k_udf(SetFamily(Universe(60), members), 2)


def test_product_fields_route_rule(monkeypatch):
    # 8 members on 4-bit blocks, member j taking pool[(j + b) % len(pool)]
    # at block b: the counts decide first, then each block's fields
    def fields(pool, m, q=4, n=8):
        words = np.array([sum(pool[(j + b) % len(pool)] << b * q
                              for b in range(m)) for j in range(n)],
                         dtype=np.uint64)
        return fam_mod._product_fields(words, (m, q))

    singles = [1, 2, 4, 8]
    assert fields(singles, 3) is None         # 8 < 32 * C(3, 2) members
    monkeypatch.setattr(fam_mod, "_AGREE_ROWS", 1)
    got = fields(singles, 3)
    assert got.shape == (8, 3)
    assert got[:, 1].tolist() == [2, 4, 8, 1, 2, 4, 8, 1]
    assert fields(singles, 4) is not None     # 8 >= C(4, 2)
    assert fields(singles, 5) is None         # 8 < C(5, 3)
    assert fields(singles, 3, n=7) is None    # 4 fields > isqrt(14)
    assert fields([0], 3) is not None         # a constant block
    assert fields([0, 1], 3) is None          # {0} and {0, 1} unite alike
    assert fields([1, 2, 3], 3) is None       # 1 | 2 = 3
    assert fields(singles, 1, q=64) is not None  # one 64-bit block
    assert fam_mod._product_fields(np.ones(8, np.uint64), None) is None


def test_udf_member_order_invariance():
    rng = random.Random(9)
    for _ in range(20):
        fam = random_family(rng, 10, 12)
        res = is_k_udf(fam, 2)
        perm = list(range(fam.n))
        rng.shuffle(perm)
        shuffled = SetFamily(fam.universe, [fam.members[i] for i in perm])
        assert is_k_udf(shuffled, 2).ok == res.ok


def test_udf_k_at_least_n_allowed():
    fam = SetFamily.from_sets(Universe(6), [[0], [1], [2]])
    assert is_k_udf(fam, 10).ok


def test_udf_errors():
    fam = SetFamily.from_sets(Universe(3), [[0]])
    with pytest.raises(FamilyError):
        is_k_udf(SetFamily(Universe(3), []), 2)
    with pytest.raises(FamilyError):
        is_k_udf(fam, 0)


def test_udf_budget_guard():
    rng = random.Random(1)
    fam = random_family(rng, 800, 70)  # v > 64 so no packed path; C(800,3) too big
    with pytest.raises(FamilyError):
        is_k_udf(fam, 3)


def test_walk_budget_is_refused_before_the_walk():
    # 310 members give 4,965,425 index sets of size <= 3, within the
    # budget of 5 * 10**6; 311 give 5,013,631.  Members 0 and 1 are equal,
    # so an admitted walk stops at its second unit, and a refused one
    # raises before walking any.
    assert fam_mod._EXHAUSTIVE_LIMIT == 5 * 10**6
    members = [1 << 70] + [(1 << 70) | (1 << j) for j in range(310)]
    members[1] = members[0]
    res = is_k_udf(SetFamily(Universe(311), members[:310]), 3)
    assert not res.ok and res.checked == 2
    with pytest.raises(FamilyError, match="sample_udf"):
        is_k_udf(SetFamily(Universe(311), members), 3)
    rows = np.array([[j // 20, j % 20] for j in range(311)])
    rows[1] = rows[0]
    res = is_k_ud_code(CodeBook(s=20, m=2, rows=rows[:310]), 3)
    assert not res.ok and res.checked == 2
    with pytest.raises(FamilyError, match="sample_ud_code"):
        is_k_ud_code(CodeBook(s=20, m=2, rows=rows), 3)


def test_packed_scans_refuse_past_the_key_budget(monkeypatch):
    # 14,142 members at K = 2 are 100,005,153 keys, over the packed budget
    # of 10**8; the refusal comes before any key array is allocated
    assert fam_mod._PACKED_LIMIT == 10**8
    with pytest.raises(FamilyError, match="^100005153 unions .*sample_udf$"):
        is_k_udf(SetFamily(Universe(64), list(range(1, 14_143))), 2)
    book = build_W(GF(211), 2, 3)  # 44,732 rows, about 10^9 keys
    with pytest.raises(FamilyError, match="sample_ud_code"):
        is_k_ud_code(book, 2)
    # the budget is inclusive: 600 members give 180,300 keys
    fam = SetFamily(Universe(64), list(range(1, 601)))
    rows = np.array([[j // 25, j % 25] for j in range(600)])
    book = CodeBook(s=25, m=2, rows=rows)
    monkeypatch.setattr(fam_mod, "_PACKED_LIMIT", 180_300)
    assert is_k_udf(fam, 2).checked == is_k_ud_code(book, 2).checked == 180_300
    monkeypatch.setattr(fam_mod, "_PACKED_LIMIT", 180_299)
    with pytest.raises(FamilyError, match="sample_udf"):
        is_k_udf(fam, 2)
    with pytest.raises(FamilyError, match="sample_ud_code"):
        is_k_ud_code(book, 2)


def test_ud_code_budget_follows_the_one_hot_route(monkeypatch):
    # base-s^2 keys over a declared alphabet of 2^40 do not fit, but the
    # rows use 21 symbols per column, so their one-hot universe has at most
    # 63 elements and `is_k_udf` scans it packed: the budget is the packed
    # one, as for the same rows declared over 21 symbols
    monkeypatch.setattr(fam_mod, "_EXHAUSTIVE_LIMIT", 1000)
    codes = np.random.default_rng(7).choice(21**3, 600, replace=False)
    rows = np.stack([codes // 441, codes // 21 % 21, codes % 21], axis=1)
    wide = is_k_ud_code(CodeBook(s=2**40, m=3, rows=rows), 2)
    assert wide == is_k_ud_code(CodeBook(s=21, m=3, rows=rows), 2)
    assert wide.checked == 600 + 600 * 599 // 2


# ---------------------------------------------------------------------------
# cover-free verification
# ---------------------------------------------------------------------------

def test_cff_example1_witness(example1_family):
    res = is_k_cff(example1_family, 2)
    assert not res.ok
    w = res.witness
    assert w.kind == "cover"
    assert w.j2 == (0, 4) and w.covered == 9
    assert replay_witness(example1_family, w)
    # as element sets: {10,20,30} u {11,21,31} covers {10,21,31}
    sets = example1_family.to_json_dict()["sets"]
    assert (sets[0], sets[4], sets[9]) == ([0, 3, 6], [1, 4, 7], [0, 4, 7])


def test_cff_witness_tie_goes_to_earlier_target():
    # {0,4} u {1,3} is the least union covering {0,1} and also {0,3}; no
    # single member covers either, so the witness names the earlier one.
    fam = SetFamily.from_sets(Universe(5), [[0, 4], [1, 3], [0, 1], [0, 3]])
    assert is_k_cff(fam, 2).witness == Witness("cover", j2=(0, 1), covered=2)
    assert naive_cover_witness(fam.members, 2, range(4)) == ((0, 1), 2)


def test_cff_first_nine_subfamily(example1_family):
    assert is_partial_cff(example1_family, range(9), 2).ok
    assert not is_k_cff(example1_family, 2).ok
    assert is_partial_cff(example1_family, [3], 2).ok  # singleton subfamily


def test_cff_singleton_family_any_k():
    fam = SetFamily.from_sets(Universe(6), [[i] for i in range(6)])
    for K in (1, 2, 3, 5):
        assert is_k_cff(fam, K).ok


def test_cff_matches_naive_oracle_on_random_corpus():
    rng = random.Random(77)
    for _ in range(40):
        fam = random_family(rng, rng.randint(4, 12), rng.randint(5, 18),
                            max_size=6)
        for K in (1, 2, 3):
            res = is_k_cff(fam, K)
            ok, _ = naive_cff(fam.members, K)
            assert res.ok == ok, (fam.members, K)
            if not ok:
                assert replay_witness(fam, res.witness)


def test_cff_implies_udf_on_corpus():
    rng = random.Random(123)
    seen_cff = 0
    for _ in range(60):
        fam = random_family(rng, rng.randint(3, 10), rng.randint(6, 16),
                            max_size=4)
        for K in (1, 2):
            if is_k_cff(fam, K).ok:
                seen_cff += 1
                assert is_k_udf(fam, K).ok
    assert seen_cff > 10  # the corpus actually exercises the implication


def test_udf_monotonicity_on_corpus():
    rng = random.Random(321)
    for _ in range(40):
        fam = random_family(rng, rng.randint(3, 10), rng.randint(6, 16))
        for K in (1, 2):
            if is_k_udf(fam, K + 1).ok:
                assert is_k_udf(fam, K).ok


def _pair(witness):
    return None if witness is None else (witness.j2, witness.covered)


@st.composite
def cover_instances(draw):
    """Small families (n <= 14, v <= 12) with K <= 4; members have at most
    `width` elements, so sparse families that pass are drawn too."""
    v = draw(st.integers(1, 12))
    width = draw(st.integers(1, v))
    sets = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=1,
                                 max_size=width), min_size=1, max_size=14))
    return SetFamily.from_sets(Universe(v), sets), draw(st.integers(1, 4))


@given(cover_instances(), st.data())
def test_cover_kernel_matches_oracle(instance, data):
    fam, K = instance
    members, n = fam.members, fam.n
    res = is_k_cff(fam, K)
    event("K-CFF" if res.ok else "covered")
    assert res.ok == naive_cff(members, K)[0]
    assert _pair(res.witness) == naive_cover_witness(members, K, range(n))
    assert res.ok or replay_witness(fam, res.witness)
    indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 unique=True))
    sub = [members[j] for j in indices]
    part = is_partial_cff(fam, indices, K)
    assert _pair(part.witness) == naive_cover_witness(sub, K, range(len(sub)))
    assert part.ok == (part.witness is None)
    a = data.draw(st.integers(0, n - 1))
    tail = fam_mod._canonical_cover_witness(members, K, range(a, n))
    assert _pair(tail) == naive_cover_witness(members, K, range(a, n))


@st.composite
def product_cover_instances(draw):
    """Families on a product universe {1..m} x {0..q-1} (m <= 4, q <= 5)
    with K <= 4.  The members all draw a subset of each block (spread), or
    all are dense in one block and hold at most one element in each
    other; up to two wide members (complements of spread ones) join them,
    then up to three repeats of members (a member equal to a target).  A
    wide target among dense members is where the block bound refutes more
    than the count bound."""
    # sampled_from shrinks towards its first entries: the sizes where the
    # block bound bites come first
    m = draw(st.sampled_from([3, 4, 2, 1]))
    q = draw(st.sampled_from([3, 5, 4, 2, 1]))
    spread = st.lists(st.sets(st.integers(0, q - 1)), min_size=m, max_size=m)
    dense = st.tuples(st.integers(0, m - 1), spread).map(
        lambda d: [set(range(q)) - B if b == d[0] else set(sorted(B)[:1])
                   for b, B in enumerate(d[1])])
    wide = spread.map(lambda blocks: [set(range(q)) - B for B in blocks])

    def member(blocks):
        return blocks.map(lambda bs: {b * q + l for b, B in enumerate(bs)
                                      for l in B}).filter(bool)

    sets = draw(st.lists(member(draw(st.sampled_from([spread, dense]))),
                         min_size=1, max_size=9))
    for _ in range(draw(st.integers(0, 2))):
        sets.insert(draw(st.integers(0, len(sets))), draw(member(wide)))
    for _ in range(draw(st.integers(0, 3))):
        copy = sets[draw(st.integers(0, len(sets) - 1))]
        sets.insert(draw(st.integers(0, len(sets))), copy)
    return (SetFamily.from_sets(Universe(m * q, (m, q)), sets),
            draw(st.sampled_from([2, 3, 1, 4])))


@given(product_cover_instances(), st.data())
def test_product_cover_kernel_matches_oracle(instance, data):
    fam, K = instance
    members, n, product = fam.members, fam.n, fam.universe.product
    res = is_k_cff(fam, K)
    assert res.ok == naive_cff(members, K)[0]
    assert _pair(res.witness) == naive_cover_witness(members, K, range(n))
    indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 unique=True))
    sub = [members[j] for j in indices]
    part = is_partial_cff(fam, indices, K)
    assert _pair(part.witness) == naive_cover_witness(sub, K, range(len(sub)))
    a = data.draw(st.integers(0, n - 1))
    tail = fam_mod._canonical_cover_witness(members, K, range(a, n), product)
    assert _pair(tail) == naive_cover_witness(members, K, range(a, n))
    # the root bounds refute exactly the targets their definitions do
    v = fam.universe.v
    for prod in (None, product):
        got = fam_mod._root_refuted(members, K, range(n), v, prod).tolist()
        assert got == naive_root_refuted(members, K, range(n), prod)
    event("some refuted" if any(got) else "none refuted")


def _count_cover_searches(monkeypatch) -> list:
    """Patch `_lex_first_cover` to record each call's residual."""
    calls, search = [], fam_mod._lex_first_cover

    def counted(reps, residual, *rest):
        calls.append(residual)
        return search(reps, residual, *rest)

    monkeypatch.setattr(fam_mod, "_lex_first_cover", counted)
    return calls


def test_root_bounds_refute_every_augmented_output_target(monkeypatch):
    # example4's and example6's outputs, without their product: the count
    # bound alone refutes all 357 and 747 targets, so none is searched
    outputs = []
    for field, s, g, K in [(GF(7), 7, [[0, 1, 2, 3], [0, 4, 5, 6]], 3),
                           (GF(3, 2), 9, [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]],
                            4)]:
        singles = SetFamily.from_sets(Universe(s), [[l] for l in range(s)])
        acc, _ = build_theorem2_acc(build_U(field, 3, s), singles,
                                    SetFamily.from_sets(Universe(s), g), K)
        outputs.append((acc_to_family(acc), K))
    calls = _count_cover_searches(monkeypatch)
    for out, K in outputs:
        assert is_k_cff(out, K).ok
    assert [out.n for out, _ in outputs] == [357, 747]
    assert calls == []


@pytest.mark.parametrize("K", [2, 3])
def test_block_bound_refutes_beyond_count_bound(K, monkeypatch):
    # target 0 fills blocks 0..K of {1..K+2} x {0..K} and leaves block K+1
    # empty; member d fills block d and holds element 0 of each other
    # block.  Each of those K + 1 blocks needs its own member holding
    # ceil((K+1)/K) = 2 of its elements, so no K members cover target 0,
    # yet (K+1)^2 <= K(2K+1) elements pass the count bound.
    m, q = K + 2, K + 1
    target = [b * q + l for b in range(K + 1) for l in range(q)]
    dense = [[b * q + l for b in range(m) for l in range(q)
              if b == d or l == 0] for d in range(K + 1)]
    fam = SetFamily.from_sets(Universe(m * q, (m, q)), [target] + dense)
    members, v = fam.members, fam.universe.v
    assert naive_root_refuted(members, K, [0], (m, q)) == [True]
    assert naive_root_refuted(members, K, [0]) == [False]
    assert fam_mod._root_refuted(members, K, [0], v, (m, q)).tolist() == [True]
    assert fam_mod._root_refuted(members, K, [0], v, None).tolist() == [False]
    calls = _count_cover_searches(monkeypatch)
    assert fam_mod._canonical_cover_witness(members, K, [0], (m, q)) is None
    assert calls == []
    assert fam_mod._canonical_cover_witness(members, K, [0]) is None
    assert calls


def test_block_bound_refutes_example5_targets(monkeypatch):
    # example5's output on {1..7} x {0..20}: the count bound refutes none
    # of every 97th target, the block bound all of them
    f = family_from_code(import_code(FIXTURE_DIR / "example5_inner_code.json"))
    b2 = greedy_lexicode(21, 18, 13)
    b2.words = b2.words[:1]
    acc, _ = build_theorem2_acc(build_U(GF(31), 3, 7), f,
                                family_from_code(b2), 3)
    members = acc_to_family(acc).members
    targets = range(0, len(members), 97)
    assert len(members) == 29798
    assert not fam_mod._root_refuted(members, 3, targets, 147, None).any()
    assert fam_mod._root_refuted(members, 3, targets, 147, (7, 21)).all()
    calls = _count_cover_searches(monkeypatch)
    assert fam_mod._canonical_cover_witness(members, 3, targets,
                                            (7, 21)) is None
    assert calls == []


@st.composite
def constant_weight_instances(draw):
    """2..10 distinct w-sets over v <= 12 elements with K in 2..4: equal
    weights make a good share of them K-cover-free."""
    K = draw(st.integers(2, 4))
    v = draw(st.integers(K + 1, 12))
    w = draw(st.integers(1, v))
    sets = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=w,
                                 max_size=w),
                         min_size=2, max_size=10, unique_by=frozenset))
    return SetFamily.from_sets(Universe(v), sets), K


@given(st.one_of(cover_instances(), constant_weight_instances()))
def test_cff_implies_naive_udf(instance):
    # SetFamily has no empty member, so a K-cover-free family is
    # K-union-distinct: example4's exhaustive K-UDF entry rests on this
    fam, K = instance
    cff = is_k_cff(fam, K).ok
    event(f"K-CFF at K = {K}" if cff else "covered")
    assert not cff or naive_udf(fam.members, K)[0]


def test_cff_planted_cover_at_scale():
    # example4's output (357 members, K = 3) plus one member that a pair of
    # others covers: three elements of member 350 and one element in each
    # of blocks 0 and 1.  The canonical witness is a pair that uses it.
    g = SetFamily.from_sets(Universe(7), [[0, 1, 2, 3], [0, 4, 5, 6]])
    singles = SetFamily.from_sets(Universe(7), [[l] for l in range(7)])
    acc, _ = build_theorem2_acc(build_U(GF(7), 3, 7), singles, g, 3)
    out = acc_to_family(acc)
    assert out.n == 357
    assert out.members[350] == sum(1 << k for k in (21, 25, 26, 27))
    planted = SetFamily.from_sets(out.universe, [[0, 8, 21, 25, 26]])
    fam = SetFamily(out.universe, out.members + planted.members)
    res = is_k_cff(fam, 3)
    assert not res.ok
    assert res.witness == Witness("cover", j2=(6, 357), covered=350)
    assert res.checked == 358 * sum(math.comb(357, k) for k in (1, 2, 3))
    assert replay_witness(fam, res.witness)


def test_subfamily_rejects_bad_indices(example1_family):
    for bad in ([0, 12], [-1, 0], [0, 0], [3, 5, 3]):
        with pytest.raises(FamilyError):
            example1_family.subfamily(bad)
        with pytest.raises(FamilyError):
            is_partial_cff(example1_family, bad, 2)
    sub = example1_family.subfamily([11, 0])
    assert sub.members == [example1_family.members[11],
                           example1_family.members[0]]


def test_cff_size_guard(monkeypatch):
    # 150,000 members of 64 elements: 2.25 * 10^10 word operations in the
    # root bounds alone, past the budget, so refused before any of them
    rng = random.Random(2)
    fam = SetFamily(Universe(64), [rng.getrandbits(64) | 1
                                   for _ in range(150_000)])
    t0 = time.monotonic()
    with pytest.raises(FamilyError, match="sample_cff"):
        is_k_cff(fam, 2)
    assert time.monotonic() - t0 < 2
    # all 4-sets of 0..11 that meet {0, 1}, after {0..11}: no three of them
    # partition {0..11}, and the bounds let it through to a search of about
    # 3 * 10^5 steps, which a budget of 10^4 steps refuses midway
    fam = SetFamily.from_sets(Universe(12), [range(12)] + [
        S for S in itertools.combinations(range(12), 4) if S[0] < 2])
    calls = _count_cover_searches(monkeypatch)
    monkeypatch.setattr(fam_mod, "_COVER_STEPS", 10**4)
    with pytest.raises(FamilyError, match="sample_cff"):
        fam_mod._canonical_cover_witness(fam.members, 3, [0])
    assert len(calls) > 1 and calls[0] == fam.members[0]
    # the 286 projections alone pass a budget of 100 steps: no search runs
    calls.clear()
    monkeypatch.setattr(fam_mod, "_COVER_STEPS", 100)
    with pytest.raises(FamilyError, match="sample_cff"):
        fam_mod._canonical_cover_witness(fam.members, 3, [0])
    assert calls == []
    monkeypatch.setattr(fam_mod, "_COVER_STEPS", 10**6)
    assert fam_mod._canonical_cover_witness(fam.members, 3, [0]) is None


# ---------------------------------------------------------------------------
# union-distinct codes
# ---------------------------------------------------------------------------

def test_ud_code_example2(example2_book):
    assert is_k_ud_code(example2_book, 2).ok
    d = min_distance(example2_book)
    assert distance_slack(example2_book.m, d, 2) <= 0  # d=1 fails it
    assert distance_slack(example2_book.m, d, 1) > 0


def test_ud_code_distance_condition_examples():
    u7 = build_U(GF(7), 3, 7)
    assert distance_slack(u7.m, min_distance(u7), 3) > 0  # 3*(7-5) = 6 < 7
    w3 = build_W(GF(3), 2, 3)
    assert distance_slack(w3.m, min_distance(w3), 1) > 0  # all rows distinct


def test_ud_code_duplicate_rows():
    book = CodeBook(s=3, m=3, rows=np.array([[0, 1, 2], [0, 1, 2]]))
    res = is_k_ud_code(book, 1)
    assert not res.ok
    assert res.witness.kind == "duplicate-symbol-set"
    assert res.witness.j1 == (0,) and res.witness.j2 == (1,)


def test_ud_code_matches_naive_oracle():
    rng = random.Random(13)
    for _ in range(30):
        M, s, m = rng.randint(4, 12), rng.randint(2, 4), rng.randint(2, 4)
        rows = np.array([[rng.randrange(s) for _ in range(m)] for _ in range(M)])
        book = CodeBook(s=s, m=m, rows=rows)
        for K in (1, 2, 3):
            res = is_k_ud_code(book, K)
            ok, _ = naive_ud_code(book.rows.tolist(), K)
            assert res.ok == ok, (rows.tolist(), K)


def test_ud_code_packed_path_agrees(monkeypatch):
    rng = random.Random(17)
    for _ in range(25):
        M, s, m = rng.randint(5, 14), rng.randint(2, 5), rng.randint(2, 4)
        rows = np.array([[rng.randrange(s) for _ in range(m)] for _ in range(M)])
        book = CodeBook(s=s, m=m, rows=rows)
        plain = is_k_ud_code(book, 2)
        monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 1)
        packed = is_k_ud_code(book, 2)
        monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 512)
        assert plain.ok == packed.ok
        if not plain.ok:
            assert plain.witness == packed.witness


def test_ud_code_packed_default_dispatch_failure():
    # W over GF(32) has 1056 rows, so the packed path runs unpatched; the
    # even alphabet breaks 2-union-distinctness
    book = build_W(GF(2, 5), 2, 3)
    res = is_k_ud_code(book, 2)
    assert not res.ok
    assert res.checked == 558_096
    assert res.witness == Witness("duplicate-symbol-set", (96, 98), (1024, 1026))
    assert replay_witness(book, res.witness)


def test_code_witness_replays_from_symbol_sets(monkeypatch):
    # a code witness is replayed from the rows' symbol sets, not through
    # the one-hot family the verifiers encode the book as
    def no_one_hot(book):
        raise AssertionError("replay built the one-hot family")

    monkeypatch.setattr(fam_mod, "_one_hot", no_one_hot)
    book = build_W(GF(2, 5), 2, 3)
    w = Witness("duplicate-symbol-set", (96, 98), (1024, 1026))
    assert replay_witness(book, w)
    assert not replay_witness(book, replace(w, j2=(1024, 1027)))
    assert not replay_witness(book, replace(w, j2=w.j1))


def _packing_bound(m):
    """Largest s whose base-s^2 keys of length m fit: (s*s)**m < 2**63."""
    s = int(2 ** (63 / (2 * m))) + 2
    while (s * s) ** m >= 2**63:
        s -= 1
    return s


@st.composite
def packable_codebooks(draw):
    """Books of up to 12 rows at every alphabet size the packed code scan
    admits, small alphabets and the largest ones included.  Symbols lean
    to 0, s-1 and s-2 (the largest keys).  Rows are distinct, but one row
    may copy another, or two rows may mix two others coordinate-wise, which
    plants a duplicate symbol set at any s."""
    m = draw(st.integers(1, 4))
    top = _packing_bound(m)
    s = draw(st.one_of(st.integers(2, 5), st.integers(2, top),
                       st.sampled_from([top - 1, top])))
    any_symbol = st.integers(0, s - 1)
    symbol = st.one_of(st.sampled_from(sorted({0, s - 1, max(s - 2, 0)})),
                       any_symbol, any_symbol)
    M = draw(st.integers(2, min(12, s**m)))
    rows = [list(r) for r in draw(st.lists(st.tuples(*[symbol] * m),
                                           min_size=M, max_size=M, unique=True))]
    plant = draw(st.sampled_from(["none", "copy", "mix"]))
    if plant == "copy":
        a, b = draw(st.permutations(range(M)))[:2]
        rows[b] = list(rows[a])
    elif plant == "mix" and M >= 4:
        a, b, c, d = draw(st.permutations(range(M)))[:4]
        pick = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        rows[c] = [rows[b][i] if p else rows[a][i] for i, p in enumerate(pick)]
        rows[d] = [rows[a][i] if p else rows[b][i] for i, p in enumerate(pick)]
    return CodeBook(s=s, m=m, rows=np.array(rows, dtype=np.int64))


def _ud_code_both_paths(book, partition=()):
    """K = 2 verdicts of the dictionary walk and of a packed scan (forced
    under `partition`, see `partitions`), and the witness kinds the packed
    scans ran with: "duplicate-symbol-set" for the base-s^2 code scan,
    "duplicate-union" for the union scan of the one-hot family."""
    walk = is_k_ud_code(book, 2)
    with forced_packed_scan(*partition) as kinds:
        packed = is_k_ud_code(book, 2)
    return walk, packed, kinds


@given(packable_codebooks(), partitions)
def test_ud_code_packed_scan_matches_walk_and_oracle(book, partition):
    event(partition[0])
    walk, packed, kinds = _ud_code_both_paths(book, partition)
    assert kinds == ["duplicate-symbol-set"]
    event("2-UD" if walk.ok else "duplicate symbol set")
    assert packed.ok == walk.ok == naive_ud_code(book.rows.tolist(), 2)[0]
    assert packed.witness == walk.witness
    for res in (walk, packed):
        assert res.ok or replay_witness(book, res.witness)
    if walk.ok:
        assert packed.checked == walk.checked
    else:
        # On a failure the packed scan has sorted every unit and reports
        # the full count; the walk reports the units up to the witness.
        assert packed.checked == book.M + math.comb(book.M, 2)
        assert walk.checked <= packed.checked


def test_ud_code_packing_boundary():
    # 1448^6 < 2^63 <= 1449^6: at m = 3 the packed scan admits s = 1448
    # and not 1449.  Rows 4 and 5 mix rows 2 and 3 coordinate-wise, so the
    # pairs (2, 3) and (4, 5) share their symbol sets, all near s - 1.
    assert [_packing_bound(m) for m in (1, 2, 3, 4)] == [
        3_037_000_499, 55_108, 1_448, 234]
    rows = [[0, 1, 2], [1447, 1447, 1447], [1447, 1446, 1445],
            [1445, 1447, 1446], [1447, 1447, 1446], [1445, 1446, 1445],
            [3, 2, 1]]
    book = CodeBook(s=1448, m=3, rows=np.array(rows))
    walk, packed, kinds = _ud_code_both_paths(book)
    assert kinds == ["duplicate-symbol-set"]
    assert packed.witness == walk.witness == Witness(
        "duplicate-symbol-set", (2, 3), (4, 5))
    assert replay_witness(book, packed.witness)
    # past the bound no base-s^2 scan runs: the book's one-hot family
    # (three columns of at most five used symbols each) takes the packed
    # union scan, which finds the same canonical witness
    wider = CodeBook(s=1449, m=3, rows=np.array(rows))
    walk, fallback, kinds = _ud_code_both_paths(wider)
    assert kinds == ["duplicate-union"]
    assert fallback.witness == walk.witness == packed.witness
    assert fallback.checked == packed.checked == 7 + math.comb(7, 2)
    assert replay_witness(wider, fallback.witness)


def test_packed_scan_of_one_batch_starts_no_threads(monkeypatch):
    # 20 rows give 210 keys, one batch: the scan runs inline
    fam = SetFamily(Universe(20), [1 << j for j in range(20)])
    book = CodeBook(s=5, m=2, rows=np.array([[j // 5, j % 5]
                                             for j in range(20)]))
    walks = [is_k_udf(fam, 2), is_k_ud_code(book, 2)]

    def no_pool(*args):
        raise AssertionError("thread pool started for a one-batch scan")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 1)
    assert [is_k_udf(fam, 2), is_k_ud_code(book, 2)] == [
        walks[0], replace(walks[1], checked=210)]


def test_packed_batches_follow_the_key_count():
    # keys that fit one batch share one label: 332 rows with 166 labels,
    # one class per label pair, make one batch of triangle strips over
    # all rows (the 332 heavy rows of W over GF(83) made 165 pieces)
    n = 332
    [(keys, pieces)] = fam_mod._batches(np.arange(n) // 2,
                                        lambda g, h: g * n + h)
    assert keys == n * (n + 1) // 2
    assert all(tri for _, _, tri in pieces) and len(pieces) == 7
    assert np.array_equal(np.concatenate([I for I, _, _ in pieces]),
                          np.arange(n))
    for I, J, _ in pieces:
        assert np.array_equal(J, np.arange(I[0], n))
        assert len(I) * len(J) <= fam_mod._PACKED_STRIP
    # keys that need b batches keep at most min(128, isqrt(128 b)) labels:
    # 1,000 distinct labels over 4 batches drop to 16, and 83 labels over
    # 186 batches (example3's scan) are all kept; each triangle strip's J
    # ends with its group's last row
    for n, labels, groups in ((1000, np.arange(1000), 16),
                              (6972, np.arange(6972) % 83, 83)):
        batches = fam_mod._batches(labels, lambda g, h: g * n + h)
        assert sum(keys for keys, _ in batches) == n * (n + 1) // 2
        assert len({J[-1] for _, pieces in batches
                    for _, J, tri in pieces if tri}) == groups


@st.composite
def ud_codebooks(draw):
    """Books of 2..8 rows and 1..4 coordinates over alphabets up to 2**40,
    with K in 1..4.  Symbols lean to 0 and s - 1; rows may repeat, and a
    row may copy another or two rows may mix two others coordinate-wise,
    which plants a duplicate symbol set at any alphabet size."""
    m = draw(st.integers(1, 4))
    s = draw(st.one_of(st.integers(1, 4), st.integers(2, 2**40),
                       st.just(2**40)))
    any_symbol = st.integers(0, s - 1)
    symbol = st.one_of(st.sampled_from(sorted({0, s - 1})), any_symbol,
                       any_symbol)
    M = draw(st.integers(2, 8))
    rows = [list(r) for r in draw(st.lists(st.tuples(*[symbol] * m),
                                           min_size=M, max_size=M))]
    plant = draw(st.sampled_from(["none", "copy", "mix", "mix"]))
    if plant == "copy":
        a, b = draw(st.permutations(range(M)))[:2]
        rows[b] = list(rows[a])
    elif plant == "mix" and M >= 4:
        a, b, c, d = draw(st.permutations(range(M)))[:4]
        pick = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        rows[c] = [rows[b][i] if p else rows[a][i] for i, p in enumerate(pick)]
        rows[d] = [rows[a][i] if p else rows[b][i] for i, p in enumerate(pick)]
    event(plant)
    K = draw(st.integers(1, 4))
    return CodeBook(s=s, m=m, rows=np.array(rows, dtype=np.int64)), K


@given(ud_codebooks())
def test_ud_code_one_walk_matches_reference_and_oracle(case):
    book, K = case
    rows = book.rows.tolist()
    ok, pair, checked = reference_ud_code_walk(rows, K)
    event("K-UD" if ok else "duplicate symbol set")
    res = is_k_ud_code(book, K)
    assert res.ok == ok == naive_ud_code(rows, K)[0]
    assert res.checked == checked
    assert res.witness == (None if ok else
                           Witness("duplicate-symbol-set", *pair))
    assert ok or replay_witness(book, res.witness)
    if min(K, book.M) == 2:
        # forced packed scans: base-s^2 keys while they fit in 63 bits,
        # else the union scan of the one-hot family; same verdict and
        # witness, and on a failure the full unit count
        walk, packed, kinds = _ud_code_both_paths(book)
        fits = (book.s * book.s) ** book.m < 2**63
        event("base-s^2 scan" if fits else "one-hot union scan")
        assert kinds == ["duplicate-symbol-set" if fits else "duplicate-union"]
        assert walk == res
        assert (packed.ok, packed.witness) == (res.ok, res.witness)
        assert packed.checked == (checked if ok else
                                  book.M + math.comb(book.M, 2))


@st.composite
def agreeing_codebooks(draw):
    """Books of 2..16 rows and 1..6 coordinates over alphabets up to
    2**40 whose rows agree often: column i draws its symbols from a pool of
    1..16.  Rows may repeat, and a row may copy another or two rows may mix
    two others coordinate-wise, which plants a K = 2 duplicate."""
    m = draw(st.integers(1, 6))
    s = draw(st.one_of(st.integers(1, 4), st.integers(2, 2**40),
                       st.just(2**40)))
    sizes = draw(st.lists(st.integers(1, min(s, 16)), min_size=m, max_size=m))
    pools = [draw(st.lists(st.integers(0, s - 1), min_size=k, max_size=k,
                           unique=True)) for k in sizes]
    M = draw(st.integers(2, 16))
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(M)]
    plant = draw(st.sampled_from(["none", "copy", "mix", "mix"]))
    if plant == "copy":
        a, b = draw(st.permutations(range(M)))[:2]
        rows[b] = list(rows[a])
    elif plant == "mix" and M >= 4:
        a, b, c, d = draw(st.permutations(range(M)))[:4]
        pick = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        rows[c] = [rows[b][i] if p else rows[a][i] for i, p in enumerate(pick)]
        rows[d] = [rows[a][i] if p else rows[b][i] for i, p in enumerate(pick)]
    event(plant)
    return CodeBook(s=s, m=m, rows=np.array(rows, dtype=np.int64))


def _ud_code_cut_and_whole(book, packed: bool):
    """K = 2 results on the whole book and on its heavy rows, which take
    the whole book's route: under `packed`, both scans are forced packed."""
    with (forced_packed_scan() if packed else contextlib.nullcontext()), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(fam_mod, "_AGREE_ROWS", 10**9)
        whole = is_k_ud_code(book, 2)
        mp.setattr(fam_mod, "_AGREE_ROWS", 0)
        cut = is_k_ud_code(book, 2)
    return whole, cut


@given(agreeing_codebooks())
def test_ud_code_heavy_row_cut_matches_whole_book_and_oracles(book):
    rows = book.rows.tolist()
    n, h = book.M, -(-book.m // 2)
    heavy = fam_mod._heavy_rows(book.rows).tolist()
    # by brute force: exactly the rows agreeing with another on >= h
    # coordinates are heavy
    assert heavy == [i for i in range(n) if any(
        j != i and sum(a == b for a, b in zip(rows[i], rows[j])) >= h
        for j in range(n))]
    event("no heavy rows" if not heavy else
          "all rows heavy" if len(heavy) == n else "some rows heavy")
    ok, pair, checked = reference_ud_code_walk(rows, 2)
    assert naive_ud_code(rows, 2)[0] == ok
    event("2-UD" if ok else "duplicate symbol set")
    witness = None if ok else Witness("duplicate-symbol-set", *pair)
    # a forced packed scan of the whole book counts every unit on a
    # failure, unless neither base-s^2 keys nor the one-hot family fit
    fits = ((book.s * book.s) ** book.m < 2**63
            or sum(len(set(col)) for col in zip(*rows)) <= 64)
    for packed in (False, True):
        results = _ud_code_cut_and_whole(book, packed)
        want = checked if ok or not (packed and fits) else n + math.comb(n, 2)
        for res in results:
            assert (res.ok, res.witness, res.checked) == (ok, witness, want)


def test_twelve_row_books_skip_the_heavy_row_index(example2_book, monkeypatch):
    def no_index(rows):
        raise AssertionError("heavy-row index built for a 12-row book")

    monkeypatch.setattr(fam_mod, "_heavy_rows", no_index)
    assert is_k_ud_code(example2_book, 2).ok


def test_one_hot_universe_counts_used_symbols():
    # ranks, not symbols: three rows over s = 2**24 need 3 + 3 elements
    book = CodeBook(s=2**24, m=2, rows=np.array([[0, 0], [1, 1], [2, 2]]))
    fam = fam_mod._one_hot(book)
    assert fam.universe.v == 6
    assert fam.to_json_dict()["sets"] == [[0, 3], [1, 4], [2, 5]]
    spread = CodeBook(s=10, m=3, rows=np.array([[9, 0, 5], [2, 0, 5],
                                                [9, 7, 5]]))
    fam = fam_mod._one_hot(spread)
    assert fam.universe.v == 2 + 2 + 1
    assert fam.to_json_dict()["sets"] == [[1, 2, 4], [0, 2, 4], [1, 3, 4]]


def test_ud_code_errors():
    with pytest.raises(FamilyError):
        is_k_ud_code(CodeBook(s=3, m=3, rows=np.zeros((0, 3), dtype=int)), 2)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_samplers_deterministic(example1_family):
    a = sample_udf(example1_family, 2, 500, seed=5)
    b = sample_udf(example1_family, 2, 500, seed=5)
    assert a == b
    assert a.ok and a.trials == 500


def test_sample_udf_detects_planted_duplicate():
    fam = SetFamily.from_sets(Universe(6), [[0, 1], [2], [0, 1]])
    rep = sample_udf(fam, 2, 2000, seed=0)
    assert not rep.ok
    assert replay_witness(fam, rep.witness)


def test_sample_cff_finds_cover(example1_family):
    rep = sample_cff(example1_family, 2, 3000, seed=0)
    assert not rep.ok
    assert replay_witness(example1_family, rep.witness)


def test_sample_ud_code(example2_book):
    rep = sample_ud_code(example2_book, 2, 2000, seed=0)
    assert rep.ok
    dup = CodeBook(s=3, m=3, rows=np.array([[0, 1, 2], [0, 1, 2], [1, 1, 1]]))
    rep = sample_ud_code(dup, 1, 500, seed=0)
    assert not rep.ok


def test_replay_rejects_false_witnesses(example1_family, example2_book):
    # example2_book is 2-union-distinct; a witness must name two different
    # index sets with equal unions (or symbol sets), or a real cover
    for fam, kind in ((example1_family, "duplicate-union"),
                      (example2_book, "duplicate-symbol-set")):
        assert not replay_witness(fam, Witness(kind, (0, 1), (0, 1)))
        assert not replay_witness(fam, Witness(kind, (0,), (1,)))
    assert not replay_witness(example1_family,
                              Witness("cover", j2=(0, 1), covered=2))
    assert not replay_witness(example1_family,
                              Witness("cover", j2=(0, 1), covered=1))
    with pytest.raises(FamilyError, match="unknown witness kind"):
        replay_witness(example1_family, Witness("bogus", (0,), (1,)))


def test_sample_ud_code_on_a_wide_alphabet_is_pinned():
    # m * s one-hot bits would need a 16 GiB block at s = 2**24; ranked,
    # the universe has 6 (then 4) elements.  The draws depend only on
    # (n, kmax, seed), so the reports are the ones these rows give over
    # the alphabets {0, 1, 2} and {0, 1}.
    wide = CodeBook(s=2**24, m=2, rows=np.array([[0, 0], [1, 1], [2, 2]]))
    rep = sample_ud_code(wide, 2, 1000)
    assert (rep.ok, rep.trials, rep.violations, rep.witness) == (
        True, 1000, 0, None)
    mixed = CodeBook(s=2**24, m=2,
                     rows=np.array([[0, 0], [1, 1], [0, 1], [1, 0]]))
    for seed, violations, pair in ((0, 15, ((0, 1), (2, 3))),
                                   (7, 12, ((2, 3), (0, 1)))):
        rep = sample_ud_code(mixed, 2, 1000, seed=seed)
        assert rep.violations == violations
        assert rep.witness == Witness("duplicate-symbol-set", *pair)
        assert replay_witness(mixed, rep.witness)


def test_samplers_reject_degenerate_families():
    lone = SetFamily.from_sets(Universe(3), [[0]])
    with pytest.raises(FamilyError):
        sample_udf(lone, 2, 10, seed=0)
    with pytest.raises(FamilyError):
        sample_cff(lone, 2, 10, seed=0)


def test_samplers_reject_nonpositive_trials_and_k(example1_family, example2_book):
    for trials in (0, -5):
        for sample, obj in ((sample_udf, example1_family),
                            (sample_cff, example1_family),
                            (sample_ud_code, example2_book)):
            with pytest.raises(FamilyError, match="trials"):
                sample(obj, 2, trials, seed=0)
    for sample, obj in ((sample_udf, example1_family),
                        (sample_cff, example1_family),
                        (sample_ud_code, example2_book)):
        with pytest.raises(FamilyError, match="K must be"):
            sample(obj, 0, 10, seed=0)


def test_samplers_reject_seeds_outside_64_bits(example1_family, example2_book):
    # the stream's state is a 64-bit seed: a negative one would alias
    # another seed's trials while the report records its own
    for sample, obj in ((sample_udf, example1_family),
                        (sample_cff, example1_family),
                        (sample_ud_code, example2_book)):
        for seed in (-1, -5, 2**64):
            with pytest.raises(FamilyError, match="seed must lie in"):
                sample(obj, 2, 10, seed=seed)
        assert sample(obj, 2, 10, seed=2**64 - 1).seed == 2**64 - 1


def test_sample_cff_caps_cover_size_below_n():
    # K >= n: a subset of all n members would leave no target outside it
    rep = sample_cff(SetFamily.from_sets(Universe(3), [[0], [1]]), 2, 100)
    assert rep.ok and rep.trials == 100 and rep.k == 2
    fam = SetFamily.from_sets(Universe(3), [[0], [0, 1], [1]])
    rep = sample_cff(fam, 5, 100, seed=1)
    assert not rep.ok and replay_witness(fam, rep.witness)
    assert len(rep.witness.j2) <= 2


def test_sampler_reports_carry_sampler_version(example1_family, example2_book):
    for rep in (sample_udf(example1_family, 2, 10),
                sample_cff(example1_family, 2, 10),
                sample_ud_code(example2_book, 2, 10)):
        assert rep.sampler == fam_mod.SAMPLER == "batched-v2"
        assert rep.to_json_dict()["sampler"] == "batched-v2"


def _within(count, total, p, se_count=5):
    """count out of total Bernoulli(p) trials lies within se_count standard
    errors of its mean."""
    return abs(count - total * p) <= se_count * math.sqrt(total * p * (1 - p))


@pytest.mark.parametrize("kmax", [3, 4])
def test_sampler_draws_are_uniform(kmax):
    # n = 5 members, index sets of 1..kmax of them, 5 blocks of each kind;
    # kmax = 4 = n - 1 is the largest cover subset
    n, blocks = 5, 5
    words = fam_mod._Words(11)
    covers = [fam_mod._draw_block(words, n, kmax, "cover")
              for _ in range(blocks)]
    pairs = [fam_mod._draw_block(words, n, kmax, "duplicate-union")
             for _ in range(blocks)]
    sets = np.concatenate([j1 for j1, _ in covers + pairs]
                          + [j2 for _, j2 in pairs])
    drawn = [tuple(j for j in row if j < n) for row in sets.tolist()]
    total = len(drawn)
    for S in drawn:
        assert list(S) == sorted(set(S)) and 1 <= len(S) <= kmax
    sizes = [len(S) for S in drawn]
    for k in range(1, kmax + 1):
        assert _within(sizes.count(k), total, 1 / kmax), k
    # index marginals: P(i in S) = E|S| / n = (kmax + 1) / (2n)
    for i in range(n):
        assert _within(sum(i in S for S in drawn), total,
                       (kmax + 1) / (2 * n)), i
    # given |S| = 2, each of the C(5, 2) sets is equally likely
    twos = [S for S in drawn if len(S) == 2]
    for S in itertools.combinations(range(n), 2):
        assert _within(twos.count(S), len(twos), 1 / 10), S
    # targets lie outside S and are uniform overall, by symmetry
    for j1, h in covers:
        assert not (j1 == h[:, None]).any()
    hs = np.concatenate([h for _, h in covers])
    for i in range(n):
        assert _within(int((hs == i).sum()), len(hs), 1 / n), i
    # the second set of a pair differs from the first in every trial
    for j1, j2 in pairs:
        assert (j1 != j2).any(axis=1).all()


def test_draw_sets_at_kmax_equal_to_n():
    # every index set of n = 4 members is drawn with probability
    # 1 / (kmax * C(n, |S|)), and each member costs exactly one 32-bit draw
    n, count = 4, 40_000
    words = fam_mod._Words(2)
    drawn = [tuple(j for j in row if j < n)
             for row in fam_mod._draw_sets(words, n, n, count).tolist()]
    assert words.used < 1.01 * count * (1 + (n + 1) / 2)
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            assert _within(drawn.count(S), count, 1 / (n * math.comb(n, k))), S


def _draw_cases():
    """(n, kmax, count) for the stream freeze: kmax = 1, kmax = n,
    n = kmax + 1, odd and single-row counts, ranges past 2^31 where about
    half (n = 2^31 + 5) or a quarter (n = 3 * 2^30) of the words are
    rejected, then seeded random ones."""
    cases = [(1, 1, 1), (1, 1, 7), (2, 1, 5), (2, 2, 3), (5, 1, 4095),
             (5, 5, 4096), (6, 5, 333), (12, 12, 1001), (13, 12, 77),
             (20, 20, 4097), (21, 20, 999), (30, 3, 4096), (1000, 4, 513),
             (2**31 + 5, 1, 501), (2**31 + 5, 3, 1000), (3 * 2**30, 4, 777),
             (2**32 - 1, 2, 99)]
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(1, 40)
        cases.append((n, rng.randint(1, n), rng.randint(1, 2000) | 1))
    return cases


def _check_draw_sets(seed, n, kmax, count):
    """The column-major draw from the numpy counter stream against the
    row-wise one from the sequential Python-int SplitMix64: equal sets,
    and the same number of words consumed."""
    words, ref_words = fam_mod._Words(seed), SplitMix64(seed)
    got = fam_mod._draw_sets(words, n, kmax, count)
    want = reference_floyd_sets(ref_words, n, kmax, count)
    assert got.shape == want.shape == (count, kmax)
    assert np.array_equal(got, want), (seed, n, kmax, count)
    assert words.used == ref_words.used


def test_draw_sets_matches_row_wise_floyd_reference():
    # a drift of the draw from the reference would move batched-v2 reports
    for seed, (n, kmax, count) in enumerate(_draw_cases()):
        _check_draw_sets(seed, n, kmax, count)


@given(st.integers(0, 2**64 - 1),
       st.one_of(st.integers(1, 40),
                 st.sampled_from([2**31 + 5, 3 * 2**30, 2**32 - 1])),
       st.integers(1, 12), st.integers(1, 300))
def test_draw_sets_match_reference_on_random_streams(seed, n, kmax, count):
    # any seed, and ranges whose words are often rejected
    _check_draw_sets(seed, n, min(kmax, n), count)


def test_splitmix64_matches_published_outputs():
    # splitmix64.c's outputs for seed 1234567, and seed 0's first; both
    # the Python-int oracle and the numpy counter stream, whose words are
    # each output's low half, then its high half
    vector = [6457827717110365317, 3203168211198807973, 9817491932198370423,
              4593380528125082431, 16408922859458223821]
    ref = SplitMix64(1234567)
    assert [ref.next64() for _ in vector] == vector
    for seed, want in ((1234567, vector), (0, [0xE220A8397B1DCDAF])):
        words = fam_mod._Words(seed)
        parts = [words.take(k) for k in (1, 2 * len(want) - 1)]
        got = np.concatenate(parts).astype(object)
        assert [lo | hi << 32 for lo, hi in zip(got[::2], got[1::2])] == want
        assert words.used == 2 * len(want)
    # words taken in uneven pieces, across a computed chunk's end
    ref, words = SplitMix64(99), fam_mod._Words(99)
    pieces = [words.take(k) for k in (3, fam_mod._CHUNK - 2, 5, 1)]
    assert np.concatenate(pieces).tolist() == [
        ref.word() for _ in range(fam_mod._CHUNK + 7)]


@st.composite
def packed_columns_and_sets(draw):
    """Members over v = 1..192 elements (columns of 1-3 words, the top bit
    of the universe often set), index sets over 0..n that may hold the
    padding column n, and one target member per set."""
    v = draw(st.one_of(st.integers(1, 192), st.sampled_from([64, 65, 128])))
    mask = st.one_of(st.integers(1, 2**v - 1),
                     st.sampled_from([1, 2**v - 1, 1 << (v - 1)]))
    masks = draw(st.lists(mask, min_size=1, max_size=8))
    n, kmax = len(masks), draw(st.integers(1, 4))
    count = draw(st.integers(1, 8))
    sets = draw(st.lists(st.lists(st.integers(0, n), min_size=kmax,
                                  max_size=kmax),
                         min_size=count, max_size=count))
    h = draw(st.lists(st.integers(0, n - 1), min_size=count,
                      max_size=count))
    return v, masks, sets, h


@given(packed_columns_and_sets())
def test_unions_and_cover_check_match_python_ints(case):
    # the sampler's column gathers against a per-column OR of Python
    # ints, with index n standing for the empty padding column
    v, masks, sets, h = case
    packed = pack_masks(masks + [0], v)
    assert packed.shape == (-(-v // 64), len(masks) + 1)
    u = fam_mod._unions(packed, np.array(sets, dtype=np.int64))
    covered = fam_mod._covered(packed, np.array(h, dtype=np.int64), u)
    padded = masks + [0]
    for t, S in enumerate(sets):
        want = 0
        for j in S:
            want |= padded[j]
        assert int.from_bytes(u[:, t].astype("<u8").tobytes(), "little") == want
        assert bool(covered[t]) == (masks[h[t]] & ~want == 0)


def test_sampler_reports_are_pinned(example1_family, example2_book):
    # reports of the batched-v2 stream: a change to the draws shows here
    dense = SetFamily.from_sets(Universe(6), [[0, 1], [2], [0, 1]])
    cases = [
        (sample_udf(dense, 2, 5000, seed=1), 1357,
         Witness("duplicate-union", (0,), (2,))),
        (sample_cff(example1_family, 3, 5000, seed=2), 546,
         Witness("cover", j2=(0, 9, 10), covered=1)),
        (sample_udf(example1_family, 12, 5000, seed=4), 1830,
         Witness("duplicate-union", (0, 1, 5, 7, 8, 9, 10),
                 (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11))),
        (sample_cff(example1_family, 12, 5000, seed=5), 3310,
         Witness("cover", j2=(2, 4, 5, 7, 8, 9, 10), covered=1)),
        (sample_ud_code(example2_book, 3, 5000, seed=3), 9,
         Witness("duplicate-symbol-set", (4, 7, 10), (4, 5, 8))),
    ]
    # rows of several words: members share element 5 of word 0 and differ
    # only in words 1 and 2, and the book's one-hot universe has 80
    # elements, coordinate i in bits 4i..4i+3
    base = [[5, 64 + 7 * j, 130 + 5 * j] for j in range(9)]
    wide = SetFamily.from_sets(Universe(200), base + [
        base[0] + base[1], base[2] + base[7], base[3] + base[4] + base[8]])
    patterns = [0, 0xFFFFF, 0xF0000, 0x0FFFF, 0x30000, 0xCFFFF, 0x00F0F]
    rows = [[(p >> i) & 1 for i in range(20)] for p in patterns]
    rows += [[2 + ((p >> i) & 1) for i in range(20)]
             for p in (0, 0xFFFFF, 0x80000)]
    book = CodeBook(s=4, m=20, rows=np.array(rows))
    assert fam_mod._one_hot(book).universe.v == 80
    cases += [
        (sample_udf(wide, 2, 5000, seed=0), 35,
         Witness("duplicate-union", (0, 9), (0, 1))),
        (sample_cff(wide, 2, 5000, seed=0), 440,
         Witness("cover", j2=(1, 11), covered=3)),
        (sample_udf(wide, 3, 5000, seed=1), 32,
         Witness("duplicate-union", (7, 10, 11), (3, 10, 11))),
        (sample_cff(wide, 3, 5000, seed=1), 528,
         Witness("cover", j2=(7, 9), covered=0)),
        (sample_ud_code(book, 2, 5000, seed=0), 5,
         Witness("duplicate-symbol-set", (4, 5), (0, 1))),
        (sample_ud_code(book, 3, 5000, seed=2), 41,
         Witness("duplicate-symbol-set", (4, 5), (3, 4, 5))),
    ]
    for rep, violations, witness in cases:
        assert rep.sampler == "batched-v2"
        assert (rep.violations, rep.witness) == (violations, witness)


def test_samplers_at_k_equal_to_n_finish(example1_family):
    # all 12 members of example1 fit in one union (K = 12) or one cover
    # subset (capped at 11); drawing whole rows again on a repeated index
    # would keep only about one size-12 row in 18,500
    for sample in (sample_udf, sample_cff):
        rep = sample(example1_family, 12, 50_000, seed=0)
        assert rep.trials == 50_000 and rep.k == 12
        assert not rep.ok and replay_witness(example1_family, rep.witness)
        assert len(rep.witness.j2) <= (12 if sample is sample_udf else 11)


def test_sample_udf_violation_rate_matches_exact_probability():
    # The six index sets of size <= 2 over three members are equally likely:
    # size 1 or 2 with probability 1/2 each, then one of three sets.  Their
    # unions fall in three classes:
    #   {0}, {2}, {0,2} -> {0,1};   {1} -> {2};   {0,1}, {1,2} -> {0,1,2}.
    # Given j1, j2 is uniform on the other five sets, so
    #   P(violation) = (3*2 + 1*0 + 2*1) / (6*5) = 4/15.
    fam = SetFamily.from_sets(Universe(6), [[0, 1], [2], [0, 1]])
    sets = [S for k in (1, 2) for S in itertools.combinations(range(3), k)]
    unions = [frozenset().union(*({0: {0, 1}, 1: {2}, 2: {0, 1}}[j] for j in S))
              for S in sets]
    equal = sum(a == b for i, a in enumerate(unions)
                for j, b in enumerate(unions) if i != j)
    p = equal / (6 * 5)
    assert equal == 8 and math.isclose(p, 4 / 15)
    trials = 20_000
    rep = sample_udf(fam, 2, trials, seed=3)
    assert _within(rep.violations, trials, p)


@st.composite
def small_families(draw):
    v = draw(st.integers(1, 8))
    sets = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=1),
                         min_size=2, max_size=8))
    return SetFamily.from_sets(Universe(v), sets), draw(st.integers(1, 3))


@st.composite
def small_codebooks(draw):
    s, m = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, s - 1), min_size=m,
                                  max_size=m), min_size=2, max_size=8))
    return CodeBook(s=s, m=m, rows=np.array(rows)), draw(st.integers(1, 3))


@given(small_families(), small_codebooks(), st.integers(0, 2**32))
def test_samplers_clean_on_certified_instances(instance, code, seed):
    fam, K = instance
    for sample, naive in ((sample_udf, naive_udf), (sample_cff, naive_cff)):
        rep = sample(fam, K, 300, seed)
        if naive(fam.members, K)[0]:
            assert rep.ok
        assert rep.ok or replay_witness(fam, rep.witness)
    book, K = code
    rep = sample_ud_code(book, K, 300, seed)
    if naive_ud_code(book.rows.tolist(), K)[0]:
        assert rep.ok
    event("code violated" if not rep.ok else "code clean")
    assert rep.ok or replay_witness(book, rep.witness)


def test_sampler_reports_are_prefix_stable():
    # member 29 is the union of members 0 and 1, so a violation is rare
    # (about one trial in 8,700); pick a seed whose first violation falls
    # in the second block, then cut the run around both block boundaries
    block = fam_mod._BLOCK
    fam = SetFamily.from_sets(Universe(29), [[i] for i in range(29)] + [[0, 1]])
    seed = next(s for s in range(100)
                if sample_udf(fam, 2, block, s).ok
                and not sample_udf(fam, 2, 2 * block, s).ok)
    full = sample_udf(fam, 2, 3 * block, seed)
    previous = 0
    for trials in (1, block - 1, block, block + 1, 2 * block - 1, 2 * block,
                   2 * block + 7, 3 * block):
        rep = sample_udf(fam, 2, trials, seed)
        assert previous <= rep.violations <= full.violations
        assert rep.witness in (None, full.witness)
        assert (rep.witness is None) == (rep.violations == 0)
        previous = rep.violations
    assert replay_witness(fam, full.witness)
    # the witness is the first violation: the shortest run that has one
    # already reports the witness of a long run
    dense = SetFamily.from_sets(Universe(6), [[0, 1], [2], [0, 1]])
    first = next(t for t in range(1, 100) if not sample_udf(dense, 2, t).ok)
    short = sample_udf(dense, 2, first)
    long = sample_udf(dense, 2, 3 * block)
    assert short.violations == 1 and long.violations > 1
    assert short.witness == long.witness


def test_samplers_do_not_import_numpy_random():
    # numpy.random alone adds several MB of resident memory
    script = (
        "import sys\n"
        "import acckit\n"
        "from acckit.arrays import CodeBook\n"
        "from acckit.families import (SetFamily, Universe, sample_cff,\n"
        "                             sample_ud_code, sample_udf)\n"
        "fam = SetFamily.from_sets(Universe(4), [[0], [1], [2, 3]])\n"
        "sample_udf(fam, 2, 10)\n"
        "sample_cff(fam, 2, 10)\n"
        "sample_ud_code(CodeBook(s=2, m=2, rows=[[0, 1], [1, 0]]), 2, 10)\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n")
    src = str(Path(acckit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=60)
@given(packable_families(), ud_codebooks(), st.integers(1, 3),
       st.integers(0, 2**32))
def test_replay_accepts_every_reported_witness(fam, case, K, seed):
    # every witness the three verifiers (walks and forced packed scans)
    # and the three samplers report replays on its family or codebook;
    # each sampler call draws a full block of 4,096 trials, hence fewer
    # examples than the profile's 200
    book, book_K = case
    reports = []
    for threshold in (512, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fam_mod, "_PACKED_THRESHOLD", threshold)
            reports += [(fam, is_k_udf(fam, K)), (fam, is_k_cff(fam, K)),
                        (book, is_k_ud_code(book, book_K))]
    reports += [(fam, sample_udf(fam, K, 300, seed)),
                (fam, sample_cff(fam, K, 300, seed)),
                (book, sample_ud_code(book, book_K, 300, seed))]
    for obj, rep in reports:
        if rep.witness is not None:
            event(rep.witness.kind)
            assert replay_witness(obj, rep.witness), (rep, obj)
        else:
            assert rep.ok
