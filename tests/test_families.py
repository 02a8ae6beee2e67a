import json
import math
import random

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

import acckit.families as fam_mod
from acckit.accs import acc_to_family, build_theorem2_acc
from acckit.arrays import CodeBook, build_U, build_W
from acckit.families import (FamilyError, SetFamily, Universe, Witness,
                             check_distance_condition, family_from_incidence,
                             incidence_matrix, is_k_cff, is_k_ud_code,
                             is_k_udf, is_partial_cff, load_family,
                             replay_witness, sample_cff, sample_ud_code,
                             sample_udf, save_family)
from acckit.gf import GF

from _oracles import naive_cff, naive_cover_witness, naive_ud_code, naive_udf


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

def test_universe_flatten_and_labels():
    u = Universe(9, (3, 3))
    assert u.flatten(1, 0) == 0
    assert u.flatten(3, 2) == 8
    assert u.label(4) == "(2,1)"
    with pytest.raises(FamilyError):
        u.flatten(0, 0)
    with pytest.raises(FamilyError):
        Universe(8, (3, 3))


def test_family_construction_guards():
    u = Universe(4)
    with pytest.raises(FamilyError):
        SetFamily(u, [0])  # empty member
    with pytest.raises(FamilyError):
        SetFamily(u, [1 << 4])  # outside universe
    with pytest.raises(FamilyError):
        SetFamily.from_sets(u, [[4]])


def test_incidence_matrix_example1(example1_family):
    mat = incidence_matrix(example1_family)
    assert mat.shape == (9, 12)
    assert list(np.nonzero(mat[:, 0])[0]) == [0, 3, 6]
    assert mat.sum() == 36  # twelve members of size three
    # round trip with the inverse constructor
    back = family_from_incidence(mat, product=(3, 3))
    assert back == example1_family


def test_incidence_singleton():
    fam = SetFamily.from_sets(Universe(5), [[2]])
    mat = incidence_matrix(fam)
    assert mat.sum() == 1 and mat[2, 0] == 1


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
    assert example1_family.member_elements(0) == (0, 3, 6)
    assert example1_family.member_elements(4) == (1, 4, 7)
    assert example1_family.member_elements(9) == (0, 4, 7)


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


def test_cff_planted_cover_at_scale():
    # example4's output (357 members, K = 3) plus one member that a pair of
    # others covers: three elements of member 350 and one element in each
    # of blocks 0 and 1.  The canonical witness is a pair that uses it.
    g = SetFamily.from_sets(Universe(7), [[0, 1, 2, 3], [0, 4, 5, 6]])
    singles = SetFamily.from_sets(Universe(7), [[l] for l in range(7)])
    acc, _ = build_theorem2_acc(build_U(GF(7), 3, 7), singles, g, 3)
    out = acc_to_family(acc)
    assert out.n == 357 and out.member_elements(350) == (21, 25, 26, 27)
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


def test_cff_size_guard():
    rng = random.Random(2)
    fam = random_family(rng, 2001, 30)
    with pytest.raises(FamilyError):
        is_k_cff(fam, 2)


# ---------------------------------------------------------------------------
# union-distinct codes
# ---------------------------------------------------------------------------

def test_ud_code_example2(example2_book):
    assert is_k_ud_code(example2_book, 2).ok
    assert not check_distance_condition(example2_book, 2)  # d=1 fails it
    assert check_distance_condition(example2_book, 1)


def test_ud_code_distance_condition_examples():
    u7 = build_U(GF(7), 3, 7)
    assert check_distance_condition(u7, 3)  # 3*(7-5) = 6 < 7
    w3 = build_W(GF(3), 2, 3)
    assert check_distance_condition(w3, 1)  # all rows distinct


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
            ok, _ = naive_ud_code(book.row_tuples(), K)
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


def test_samplers_reject_degenerate_families():
    lone = SetFamily.from_sets(Universe(3), [[0]])
    with pytest.raises(FamilyError):
        sample_udf(lone, 2, 10, seed=0)
    with pytest.raises(FamilyError):
        sample_cff(lone, 2, 10, seed=0)
