import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from acckit.accs import (AndAcc, ConstructionError, ConstructionRefused,
                         acc_to_family, build_h0, build_theorem1_acc,
                         build_theorem2_acc, check_theorem2_conditions,
                         compare_prior, family_to_acc, load_acc, save_acc,
                         save_certificate)
from acckit.arrays import CodeBook, build_U, build_W
from acckit.families import (FamilyError, SetFamily, Universe, is_k_cff,
                             is_k_udf, is_partial_cff)
from acckit.gf import GF

from _oracles import naive_h0
from conftest import EXAMPLE1_SETS


def entry_named(cert, name):
    return next(e for e in cert.entries if e.name == name)


def singletons(q):
    return SetFamily.from_sets(Universe(q), [[l] for l in range(q)])


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------

def test_build_h0_reproduces_canonical_family(example2_book, example1_family):
    h0 = build_h0(example2_book, singletons(3))
    assert h0 == example1_family  # exact order, not just set equality


def test_build_h0_single_row():
    book = CodeBook(s=3, m=4, rows=np.array([[0, 1, 2, 1]]))
    fam = SetFamily.from_sets(Universe(5), [[0, 1], [2], [3, 4]])
    h0 = build_h0(book, fam)
    assert h0.n == 1
    assert h0.members[0].bit_count() == 2 + 1 + 2 + 1


def test_build_h0_block_restriction_matches_inner_member():
    rng = random.Random(8)
    for _ in range(15):
        s, m, q, M = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 5), rng.randint(1, 6)
        rows = np.array([[rng.randrange(s) for _ in range(m)] for _ in range(M)])
        book = CodeBook(s=s, m=m, rows=rows)
        members = []
        for _ in range(s):
            mask = 0
            for idx in rng.sample(range(q), rng.randint(1, q)):
                mask |= 1 << idx
            members.append(mask)
        fam = SetFamily(Universe(q), members)
        h0 = build_h0(book, fam)
        block_mask = (1 << q) - 1
        for j in range(M):
            for i in range(m):
                restriction = (h0.members[j] >> (i * q)) & block_mask
                assert restriction == members[rows[j][i]]


@st.composite
def h0_inputs(draw):
    """A codebook over s symbols, m = 1..5 coordinates, whose rows may
    leave symbols unused, and an inner family of s members over q
    elements."""
    s, m, q = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 20))
    used = draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=s, unique=True))
    rows = draw(st.lists(st.lists(st.sampled_from(used), min_size=m, max_size=m),
                         min_size=1, max_size=10))
    inner = draw(st.lists(st.integers(1, 2**q - 1), min_size=s, max_size=s))
    return CodeBook(s=s, m=m, rows=np.array(rows)), SetFamily(Universe(q), inner)


@given(h0_inputs())
def test_build_h0_matches_naive_oracle(case):
    book, fam = case
    q = fam.universe.v
    h0 = build_h0(book, fam)
    assert h0.members == naive_h0(book.rows.tolist(), fam.members, q)
    assert h0.universe.v == book.m * q
    assert h0.universe.product == (book.m, q)


def test_build_h0_alphabet_mismatch(example2_book):
    with pytest.raises(ConstructionError):
        build_h0(example2_book, singletons(4))


def test_theorem1_canonical(example2_book):
    acc, cert = build_theorem1_acc(example2_book, singletons(3), 2)
    assert (acc.v, acc.n, acc.K) == (9, 12, 2)
    assert cert.certified
    assert entry_named(cert, "code is K-UD").mode == "exhaustive"
    # member j of the family is the complement of codeword j
    fam = acc_to_family(acc, product=(3, 3))
    assert fam.to_json_dict()["sets"] == EXAMPLE1_SETS


def test_theorem1_refuses_bad_code(singleton_family3):
    dup = CodeBook(s=3, m=3, rows=np.array([[0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ConstructionRefused) as exc:
        build_theorem1_acc(dup, singleton_family3, 1)
    cert = exc.value.certificate
    assert not cert.certified
    assert entry_named(cert, "code is K-UD").witness is not None


def test_theorem1_refuses_bad_family(example2_book):
    fam = SetFamily.from_sets(Universe(3), [[0], [0], [1]])  # duplicate members
    with pytest.raises(ConstructionRefused):
        build_theorem1_acc(example2_book, fam, 2)


def test_theorem1_structural_path():
    w = build_W(GF(3), 2, 3)
    acc, cert = build_theorem1_acc(w, singletons(3), 2, mode="structural")
    entry = entry_named(cert, "code is K-UD")
    assert entry.mode == "structural" and entry.result
    assert (acc.v, acc.n) == (9, 12)


def test_theorem1_structural_fallback_on_plain_book(example2_book):
    # imported book has no stacked-array provenance: falls back to the
    # exhaustive check and records why
    acc, cert = build_theorem1_acc(example2_book, singletons(3), 2,
                                   mode="structural")
    assert entry_named(cert, "code is K-UD").mode == "exhaustive"
    fallback = entry_named(cert, "structural certification unavailable")
    assert fallback.params["fallback"] == "exhaustive"
    assert (acc.v, acc.n) == (9, 12)


def test_theorem1_structural_fallback_on_k3():
    w = build_W(GF(5), 2, 5)
    acc, cert = build_theorem1_acc(w, singletons(5), 3, mode="structural")
    assert entry_named(cert, "code is K-UD").mode == "exhaustive"


def test_theorem1_partially_cover_free_structure():
    # built from the stacked array, the first s^t members (from the linear
    # block) stay cover-free while the whole family is not
    w = build_W(GF(3), 2, 3)
    acc, _ = build_theorem1_acc(w, singletons(3), 2, mode="structural")
    fam = acc_to_family(acc, product=(3, 3))
    assert is_partial_cff(fam, range(9), 2).ok
    assert not is_k_cff(fam, 2).ok
    assert is_k_udf(fam, 2).ok


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def canonical_example4():
    book = build_U(GF(7), 3, 7)
    f = singletons(7)
    g = SetFamily.from_sets(Universe(7), [[0, 1, 2, 3], [0, 4, 5, 6]])
    return book, f, g


def test_theorem2_conditions_all_true():
    book, f, g = canonical_example4()
    cert = check_theorem2_conditions(book, f, g, 3)
    assert cert.certified
    assert entry_named(cert, "distance condition K(m-d) < m").params["d"] == 5
    for name in ("K < m", "inner family is K-CFF", "cross-cover condition on G",
                 "F and G members distinct"):
        assert entry_named(cert, name).result, name


def test_theorem2_conditions_k_equals_m():
    book, f, g = canonical_example4()
    cert = check_theorem2_conditions(book, f, g, 7)
    assert not entry_named(cert, "K < m").result
    assert not cert.certified


def test_theorem2_condition_iv_failure_detected():
    book, f, _ = canonical_example4()
    # G member covered by three singletons
    g = SetFamily.from_sets(Universe(7), [[0, 1, 2]])
    cert = check_theorem2_conditions(book, f, g, 3)
    entry = entry_named(cert, "cross-cover condition on G")
    assert not entry.result
    assert entry.witness.covered == 7  # the G member, indexed after F
    with pytest.raises(ConstructionRefused):
        build_theorem2_acc(book, f, g, 3)


def test_theorem2_overlap_between_f_and_g_flagged():
    book, f, _ = canonical_example4()
    g = SetFamily.from_sets(Universe(7), [[0]])  # duplicates an F member
    cert = check_theorem2_conditions(book, f, g, 3)
    assert not entry_named(cert, "F and G members distinct").result


def test_theorem2_build_accounting():
    book, f, g = canonical_example4()
    acc, cert = build_theorem2_acc(book, f, g, 3)
    assert (acc.v, acc.n, acc.K) == (49, 357, 3)
    assert cert.params["n"] == 343 + 7 * 2
    fam = acc_to_family(acc, product=(7, 7))
    # trailing blocks: coordinate-tagged copies of G in order
    for i in range(7):
        for l, gm in enumerate(g.members):
            assert fam.members[343 + 2 * i + l] == gm << (7 * i)


def test_theorem2_example6_shape():
    book = build_U(GF(3, 2), 3, 9)
    f = singletons(9)
    g = SetFamily.from_sets(Universe(9), [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]])
    acc, cert = build_theorem2_acc(book, f, g, 4)
    assert (acc.v, acc.n, acc.K) == (81, 747, 4)
    assert entry_named(cert, "distance condition K(m-d) < m").params["d"] == 7


def test_theorem2_universe_mismatch():
    book, f, _ = canonical_example4()
    g = SetFamily.from_sets(Universe(6), [[0, 1, 2, 3]])
    with pytest.raises(ConstructionError):
        check_theorem2_conditions(book, f, g, 3)


# ---------------------------------------------------------------------------
# conversions and comparison
# ---------------------------------------------------------------------------

def test_family_acc_roundtrip(example1_family):
    acc = family_to_acc(example1_family, 2)
    assert acc.codeword_string(0) == "011011011"  # zeros at {0,3,6}
    back = acc_to_family(acc, product=(3, 3))
    assert back == example1_family


def test_family_acc_roundtrip_random():
    rng = random.Random(31)
    for _ in range(20):
        v = rng.randint(2, 40)
        members = []
        for _ in range(rng.randint(1, 10)):
            mask = 0
            for idx in rng.sample(range(v), rng.randint(1, v)):
                mask |= 1 << idx
            members.append(mask)
        fam = SetFamily(Universe(v), members)
        assert acc_to_family(family_to_acc(fam, 2)) == fam


def test_full_universe_member_gives_zero_codeword():
    fam = SetFamily.from_sets(Universe(4), [[0, 1, 2, 3], [0]])
    acc = family_to_acc(fam, 1)
    assert acc.codewords[0] == 0


def test_all_ones_codeword_rejected_on_conversion():
    acc = AndAcc(v=3, n=1, K=1, codewords=[0b111])
    with pytest.raises(FamilyError):
        acc_to_family(acc)


def test_compare_prior_examples():
    acc = AndAcc(v=60, n=6972, K=2, codewords=[0] * 6972)
    cmp = compare_prior(acc, 249, 6889)
    assert cmp.exceeds_bib_bound  # 6972 > 60*59/6 = 590
    assert cmp.delta_n == 83 and cmp.delta_v == -189
    assert "larger n" in cmp.summary() and "smaller v" in cmp.summary()

    acc = AndAcc(v=49, n=357, K=3, codewords=[0] * 357)
    cmp = compare_prior(acc, 49, 343)
    assert cmp.exceeds_bib_bound and cmp.delta_v == 0 and cmp.delta_n == 14

    small = AndAcc(v=10, n=5, K=2, codewords=[0] * 5)
    assert not compare_prior(small, 10, 5).exceeds_bib_bound


def test_prior_comparison_summary_names_each_direction():
    acc = AndAcc(v=49, n=357, K=3, codewords=[0] * 357)
    for prior, text in (((49, 357), "same n, same v"),
                        ((40, 400), "smaller n (-43), larger v (+9)"),
                        ((60, 300), "larger n (+57), smaller v (-11)")):
        assert compare_prior(acc, *prior).summary() == text


def test_acc_json_roundtrip(tmp_path, example1_family):
    acc = family_to_acc(example1_family, 2)
    p = tmp_path / "acc.json"
    save_acc(acc, p)
    again = load_acc(p)
    assert again.codewords == acc.codewords
    assert (again.v, again.n, again.K) == (9, 12, 2)
    raw = json.loads(p.read_text())
    assert raw["codewords"][0] == "011011011"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"v": 3, "n": 1, "K": 1, "codewords": ["01"]}))
    with pytest.raises(ConstructionError):
        load_acc(bad)


def test_certificate_json(tmp_path, example2_book, singleton_family3):
    _, cert = build_theorem1_acc(example2_book, singleton_family3, 2)
    p = tmp_path / "cert.json"
    save_certificate(cert, p)
    raw = json.loads(p.read_text())
    assert raw["certified"] is True
    assert raw["construction"] == "theorem1"
    names = [e["name"] for e in raw["entries"]]
    assert "code is K-UD" in names and "inner family is K-UDF" in names


def test_parameter_accounting_random_instances():
    rng = random.Random(55)
    for _ in range(10):
        s, m = rng.randint(2, 4), rng.randint(3, 5)
        q = rng.randint(2, 5)
        M = rng.randint(2, 8)
        rows = np.array([[rng.randrange(s) for _ in range(m)] for _ in range(M)])
        rows = np.unique(rows, axis=0)
        book = CodeBook(s=s, m=m, rows=rows)
        while 2**q - 1 < s:  # need s distinct nonempty masks
            q += 1
        members = rng.sample(range(1, 2**q), s)
        fam = SetFamily(Universe(q), members)
        h0 = build_h0(book, fam)
        assert h0.universe.v == m * q
        assert h0.n == book.M
        sizes = {h0.members[j].bit_count() for j in range(h0.n)}
        if len({mb.bit_count() for mb in members}) == 1:
            assert sizes == {m * members[0].bit_count()}


# ---------------------------------------------------------------------------
# cross-module implications
# ---------------------------------------------------------------------------

def test_condition_8_implies_hypotheses():
    # whenever the two weight-code inequalities plus the weight gap hold,
    # the derived F must be K-cover-free and the cross-cover condition on
    # the derived G must hold
    from acckit.cwcodes import (ConstantWeightCode, check_condition_8,
                                family_from_code, greedy_lexicode,
                                verify_cw_code)
    from acckit.families import _canonical_cover_witness
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        q = rng.randint(6, 14)
        w1 = rng.randint(1, 4)
        d1 = 2 * rng.randint(1, w1)
        w2 = rng.randint(w1, min(q, 10))
        d2 = 2 * rng.randint(1, w2)
        K = rng.randint(1, 4)
        b1 = greedy_lexicode(q, d1, w1)
        b2f = greedy_lexicode(q, d2, w2)
        if b1.N < 2 or b2f.N < 1:
            continue
        u = rng.randint(1, min(3, b2f.N))
        b2 = ConstantWeightCode(q, w2, d2, b2f.words[:u])
        assert verify_cw_code(b2).ok
        if not check_condition_8(b1, b2, K).all_ok:
            continue
        f = family_from_code(b1)
        g = family_from_code(b2)
        assert is_k_cff(f, K).ok, (q, d1, w1, K)
        assert _canonical_cover_witness(f.members + g.members, K,
                                        range(f.n, f.n + g.n)) is None, \
            (q, d1, w1, d2, w2, K)
        checked += 1
    assert checked >= 5  # the sweep actually found qualifying pairs


def test_theorem1_outputs_reverify_on_random_instances():
    # every successful exhaustive-mode build yields a family that passes
    # the independent union-distinctness check
    rng = random.Random(1234)
    built = 0
    for _ in range(40):
        s, m = rng.randint(2, 3), rng.randint(3, 4)
        q = rng.randint(2, 4)
        M = rng.randint(2, 8)
        rows = np.unique(
            np.array([[rng.randrange(s) for _ in range(m)] for _ in range(M)]),
            axis=0)
        book = CodeBook(s=s, m=m, rows=rows)
        while 2**q - 1 < s:
            q += 1
        members = rng.sample(range(1, 2**q), s)
        fam = SetFamily(Universe(q), members)
        K = rng.randint(1, 3)
        try:
            acc, cert = build_theorem1_acc(book, fam, K)
        except ConstructionRefused:
            continue
        assert entry_named(cert, "code is K-UD").mode == "exhaustive"
        out = acc_to_family(acc)
        assert is_k_udf(out, K).ok
        assert acc.v == m * q and acc.n == book.M
        built += 1
    assert built >= 10
