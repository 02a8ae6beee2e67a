import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from _oracles import naive_trace
from acckit.accs import (AndAcc, acc_to_family, build_theorem1_acc,
                         build_theorem2_acc, load_acc, save_acc)
from acckit.arrays import build_U, build_W
from acckit.cli import main
from acckit.collusion import (CollusionError, Fingerprint, and_attack,
                              scan_remark6, trace)
from acckit.families import SetFamily, Universe, Witness, replay_witness
from acckit.gf import GF
from acckit.presets import run_preset


@pytest.fixture
def example1_acc(example2_book, singleton_family3):
    acc, _ = build_theorem1_acc(example2_book, singleton_family3, 2)
    return acc


def test_attack_singleton_identity(example1_acc):
    for j in (0, 5, 11):
        fp = and_attack(example1_acc, [j])
        assert fp.bits == example1_acc.codewords[j]
        assert fp.coalition == (j,)


def test_attack_complement_is_union(example1_acc):
    fam = acc_to_family(example1_acc, product=(3, 3))
    full = (1 << 9) - 1
    fp = and_attack(example1_acc, [0, 4])
    assert full & ~fp.bits == fam.members[0] | fam.members[4]


def test_attack_full_coalition(example1_acc):
    fp = and_attack(example1_acc, range(12))
    expect = (1 << 9) - 1
    for cw in example1_acc.codewords:
        expect &= cw
    assert fp.bits == expect


def test_attack_monotone(example1_acc):
    rng = random.Random(4)
    for _ in range(50):
        S = rng.sample(range(12), rng.randint(1, 11))
        j = rng.choice([x for x in range(12) if x not in S])
        a = and_attack(example1_acc, S).bits
        b = and_attack(example1_acc, S + [j]).bits
        assert b & ~a == 0  # adding a user can only clear bits


def test_attack_errors(example1_acc):
    with pytest.raises(CollusionError):
        and_attack(example1_acc, [])
    with pytest.raises(CollusionError):
        and_attack(example1_acc, [12])
    with pytest.raises(CollusionError):
        and_attack(example1_acc, [-1])


def test_trace_roundtrip(example1_acc):
    rng = random.Random(6)
    for _ in range(300):
        S = tuple(sorted(rng.sample(range(12), rng.randint(1, 2))))
        res = trace(example1_acc, and_attack(example1_acc, S))
        assert res.found and res.users == S
        assert set(S) <= set(res.candidates)  # filter soundness


def test_trace_single_codeword(example1_acc):
    fp = Fingerprint(v=9, bits=example1_acc.codewords[3])
    res = trace(example1_acc, fp)
    assert res.users == (3,)


def test_trace_oversized_never_confident(example1_acc):
    rng = random.Random(8)
    outcomes = {"nomatch": 0, "flagged": 0}
    for _ in range(100):
        S = tuple(sorted(rng.sample(range(12), 3)))
        res = trace(example1_acc, and_attack(example1_acc, S), K=2)
        if not res.found:
            outcomes["nomatch"] += 1
        else:
            assert res.superset_consistent
            assert not res.confident
            outcomes["flagged"] += 1
    assert outcomes["nomatch"] + outcomes["flagged"] == 100
    assert outcomes["nomatch"] > 0


def test_trace_corrupted_fingerprint(example1_acc):
    # a fingerprint nobody could have produced
    res = trace(example1_acc, Fingerprint(v=9, bits=(1 << 9) - 1))
    assert not res.found
    assert "no coalition" in res.reason


def test_trace_length_mismatch(example1_acc):
    with pytest.raises(CollusionError):
        trace(example1_acc, Fingerprint(v=8, bits=0))


@st.composite
def trace_instances(draw):
    """A small code with repeated and all-ones codewords likely, a search
    bound K, and an honest (at most K users), oversized (more than K),
    all-ones or random fingerprint.  Lengths past 64 bits span several
    packed words."""
    v = draw(st.integers(1, 5) | st.sampled_from([63, 64, 65, 128, 129]))
    full = (1 << v) - 1
    # each 64-bit word all ones or drawn on its own, so that a codeword can
    # hold the fingerprint's 1s in one word and miss them in the next
    codeword = st.tuples(*(st.just(w) | st.integers(0, w) for w in (
        (1 << min(64, v - i)) - 1 for i in range(0, v, 64)))).map(
        lambda ws: sum(w << 64 * i for i, w in enumerate(ws)))
    codewords = draw(st.lists(codeword, min_size=1, max_size=8))
    n = len(codewords)
    if n > 1 and draw(st.booleans()):
        codewords[draw(st.integers(1, n - 1))] = codewords[0]
    K = draw(st.integers(1, 4))
    acc = AndAcc(v=v, n=n, K=K, codewords=codewords)
    users = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["honest", "oversized", "all-ones", "random"]))
    if kind == "honest":
        bits = and_attack(acc, draw(st.sets(users, min_size=1,
                                            max_size=K))).bits
    elif kind == "oversized" and n > K:
        bits = and_attack(acc, draw(st.sets(users, min_size=K + 1))).bits
    elif kind == "all-ones":
        bits = full
    else:
        bits = draw(st.integers(0, full))
    return acc, Fingerprint(v=v, bits=bits), K


@given(trace_instances())
def test_trace_matches_naive_oracle(instance):
    acc, fp, K = instance
    res = trace(acc, fp, K=K)
    match, candidates = naive_trace(acc.codewords, acc.v, fp.bits, K)
    assert res.candidates == candidates
    assert res.found == (match is not None)
    assert res.users == match
    # a larger coalition inside the candidates gives the same AND exactly
    # when some candidate lies outside the match
    assert res.superset_consistent == (
        match is not None and any(j not in match for j in candidates))


def test_trace_view_is_built_at_the_first_trace(example2_book,
                                                singleton_family3, tmp_path):
    acc, _ = build_theorem1_acc(example2_book, singleton_family3, 2)
    save_acc(acc, tmp_path / "acc.json")
    loaded = load_acc(tmp_path / "acc.json")
    acc_to_family(acc)
    for code in (acc, loaded, run_preset("example4").acc):
        assert "_columns" not in vars(code)
    trace(acc, and_attack(acc, [0, 4]))
    assert "_columns" in vars(acc)
    assert "_columns" not in vars(loaded)
    with pytest.raises(FrozenInstanceError):
        acc.codewords = ()


def test_example6_traces_survive_a_save_load_round_trip(tmp_path):
    # v = 81: every codeword spans two packed words
    acc, _ = build_theorem2_acc(
        build_U(GF(3, 2), 3, 9),
        SetFamily.from_sets(Universe(9), [[l] for l in range(9)]),
        SetFamily.from_sets(Universe(9), [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]]),
        4)
    save_acc(acc, tmp_path / "before.json")
    rng = random.Random(81)
    coalitions = [tuple(sorted(rng.sample(range(acc.n), rng.randint(1, 6))))
                  for _ in range(60)]
    fps = [and_attack(acc, S) for S in coalitions]
    results = [trace(acc, fp) for fp in fps]
    for S, res in zip(coalitions, results):
        if len(S) <= acc.K:
            assert res.users == S
    save_acc(acc, tmp_path / "after.json")
    assert ((tmp_path / "after.json").read_bytes()
            == (tmp_path / "before.json").read_bytes())
    loaded = load_acc(tmp_path / "after.json")
    assert loaded == acc
    assert [trace(loaded, fp) for fp in fps] == results


@pytest.mark.parametrize("v, bits", [(4, -1), (4, 1 << 4), (4, 1 << 70),
                                     (-1, 0)])
def test_fingerprint_outside_its_length_refused(v, bits):
    with pytest.raises(CollusionError):
        Fingerprint(v=v, bits=bits)


def test_fingerprint_bitstring_roundtrip():
    fp = Fingerprint.from_bitstring("0110010")
    assert fp.v == 7
    assert fp.bitstring() == "0110010"
    with pytest.raises(CollusionError):
        Fingerprint.from_bitstring("012")


def test_scan_theorem_case():
    rep = scan_remark6(GF(3), 2, 3, 2, mode="exhaustive")
    assert rep.ok and rep.rows == 12
    assert rep.note == "empirical; conjecture unproven"


def test_scan_k3_exhaustive_small():
    rep = scan_remark6(GF(5), 2, 5, 3, mode="exhaustive")
    assert rep.rows == 30
    assert rep.mode == "exhaustive"
    # verdict recorded either way; no theorem claimed
    assert isinstance(rep.ok, bool)


def test_scan_sampled():
    rep = scan_remark6(GF(7), 3, 7, 3, mode="sampled", trials=5000, seed=2)
    assert rep.trials == 5000 and rep.seed == 2
    again = scan_remark6(GF(7), 3, 7, 3, mode="sampled", trials=5000, seed=2)
    assert rep == again


def test_scan_exhaustive_up_to_the_walk_budget(capsys):
    # 132 rows at K = 3 is 383,438 index sets, inside the verifier's budget
    rep = scan_remark6(GF(11), 2, 7, 3)
    assert (rep.rows, rep.mode, rep.checked, rep.ok) == (
        132, "exhaustive", 383_438, True)
    # 392 rows at K = 3 is about 10^7 index sets, over it
    with pytest.raises(CollusionError, match="use mode='sampled'$"):
        scan_remark6(GF(7), 3, 7, 3)
    assert main(["scan-remark6", "--field", "7", "--t", "3", "--m", "7",
                 "--K", "3"]) == 2
    assert "use mode='sampled'" in capsys.readouterr().err


def test_scan_refuses_k2_past_the_packed_budget(capsys):
    # 44,732 rows at K = 2 is about 10^9 packed keys (8 GB), over the
    # packed scan's budget; the scan is refused before allocating them
    with pytest.raises(CollusionError, match="44732 rows at K=2 .*'sampled'$"):
        scan_remark6(GF(211), 2, 3, 2)
    assert main(["scan-remark6", "--field", "211", "--t", "2", "--m", "3",
                 "--K", "2"]) == 2
    assert "use mode='sampled'" in capsys.readouterr().err


def test_remark6_sampling_misses_a_union_collision_of_w7():
    # W over GF(7), t = 3, m = 7 (392 rows) meets every precondition of
    # scan_remark6 at K = 3, and 10^6 samples report it union-distinct,
    # yet these two index sets have equal symbol sets at all 7 coordinates
    book = build_W(GF(7), 3, 7)
    j1, j2 = (0, 108, 383), (52, 54, 385)
    assert replay_witness(book, Witness("duplicate-symbol-set", j1, j2))
    for i in range(book.m):
        assert set(book.rows[list(j1), i]) == set(book.rows[list(j2), i])


def test_scan_bounds_and_preconditions():
    with pytest.raises(CollusionError):
        scan_remark6(GF(7), 3, 7, 3, mode="exhaustive")  # 392 rows > cap
    with pytest.raises(CollusionError):
        scan_remark6(GF(3, 2), 2, 5, 1, mode="exhaustive")  # K < t
    with pytest.raises(CollusionError):
        scan_remark6(GF(5), 2, 3, 3, mode="exhaustive")  # K(t-1) >= m
    with pytest.raises(CollusionError):
        scan_remark6(GF(2, 2), 2, 4, 2)  # even alphabet
    with pytest.raises(CollusionError):
        scan_remark6(GF(5), 2, 5, 3, mode="bogus")
