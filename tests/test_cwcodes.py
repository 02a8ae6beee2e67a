import itertools
import json
import tracemalloc
from math import comb

import pytest
from hypothesis import event, given, strategies as st

import acckit.cwcodes as cw_mod
from acckit.cli import main
from acckit.cwcodes import (CodeError, ConstantWeightCode, check_condition_8,
                            export_code, family_from_code, greedy_lexicode,
                            import_code, stochastic_search, verify_cw_code)
from acckit.fixturegen import FIXTURE_DIR, cyclic_weight5_code

from _oracles import naive_greedy_lexicode, reference_feasible_subset


@given(st.lists(st.integers(0, 2**10 - 1), max_size=14), st.integers(0, 4))
def test_feasible_subset_matches_reference(words, max_overlap):
    # the annealer's best-so-far extraction: same words, same order, same
    # first-maximum drops as recounting all pairs after every drop
    assert cw_mod._feasible_subset(words, max_overlap) == \
        reference_feasible_subset(words, max_overlap)


def test_greedy_small_complete():
    code = greedy_lexicode(4, 2, 2)
    assert code.N == 6  # every pair of distinct equal-weight words works
    assert verify_cw_code(code).ok


def test_greedy_deterministic():
    a = greedy_lexicode(12, 4, 3)
    b = greedy_lexicode(12, 4, 3)
    assert a.words == b.words


def test_greedy_known_sizes():
    # regression pins for the deterministic scan; the table optima are 31
    # and >= 84, which the greedy scan does not reach on its own
    assert greedy_lexicode(21, 6, 4).N == 26
    assert greedy_lexicode(20, 6, 5).N == 71
    assert greedy_lexicode(21, 18, 13).N == 1


@st.composite
def lexicode_cases(draw):
    """(q, d, w, block) in three shapes: short words at every distance, odd
    ones included; words longer than one 64-bit lane at weight <= 2 (at
    distance >= 3 for weight 2, which keeps the oracle's scan short); and
    short words scanned in blocks of a few candidates, so that kept words
    and their conflicts cross block boundaries."""
    shape = draw(st.sampled_from(["short", "wide", "blocks"]))
    if shape == "wide":
        q, w = draw(st.integers(65, 90)), draw(st.integers(1, 2))
        d = draw(st.integers(0 if w == 1 else 3, 2 * w))
    else:
        q = draw(st.integers(1, 9))
        w = draw(st.integers(1, q))
        d = draw(st.integers(0, 2 * w))
    block = (draw(st.integers(1, 8)) if shape == "blocks"
             else cw_mod._LEXICODE_BLOCK)
    event(shape)
    return q, d, w, block


@given(lexicode_cases())
def test_greedy_lexicode_matches_naive_oracle(case):
    q, d, w, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cw_mod, "_LEXICODE_BLOCK", block)
        if d % 2:
            with pytest.warns(UserWarning, match="odd distance"):
                code = greedy_lexicode(q, d, w)
        else:
            code = greedy_lexicode(q, d, w)
    assert code.words == naive_greedy_lexicode(q, d, w)
    assert (code.q, code.w, code.d) == (q, w, d + d % 2)
    assert verify_cw_code(code).ok


def test_greedy_lexicode_memory_is_bounded_by_the_block():
    # (21, 18, 13) scans C(21, 13) = 203,490 candidates; held at once they
    # would take 8 bytes each
    tracemalloc.start()
    try:
        code = greedy_lexicode(21, 18, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.words == [(1 << 13) - 1]
    assert peak < 8 * comb(21, 13)


def test_greedy_parameter_errors():
    with pytest.raises(CodeError):
        greedy_lexicode(4, 2, 5)  # w > q
    with pytest.raises(CodeError):
        greedy_lexicode(10, 10, 4)  # d > 2w
    with pytest.warns(UserWarning):
        code = greedy_lexicode(6, 3, 3)  # odd distance rounds up
    assert code.d == 4


def test_scan_caps_refuse_before_scanning():
    # about 1.8 * 10^18 candidates
    with pytest.raises(CodeError, match=f"cap of {cw_mod.MAX_LEXICODE_CANDIDATES} "):
        greedy_lexicode(64, 2, 32)
    # 3 * 10^7 candidates, of which up to C(30, 5) / C(10, 5) = 565 kept
    with pytest.raises(CodeError, match=f"cap of {cw_mod.MAX_LEXICODE_CHECKS} "):
        greedy_lexicode(30, 12, 10)
    # the search's seeding scan takes the same check, and its pool its own
    with pytest.raises(CodeError, match="candidates"):
        stochastic_search(60, 4, 30, 10)
    with pytest.raises(CodeError, match=f"1..{cw_mod.MAX_SEARCH_POOL}"):
        stochastic_search(4, 2, 2, cw_mod.MAX_SEARCH_POOL + 1)


@pytest.mark.parametrize("q, d, w", [(4, 0, 2), (10, 2, 3), (12, 4, 3),
                                     (21, 6, 4), (20, 6, 5), (21, 18, 13)])
def test_lexicode_keeps_at_most_the_capped_bound(q, d, w):
    # the bound the checks cap counts on: no t-subset, t = w - d/2 + 1,
    # lies in two kept words
    t = min(w - d // 2 + 1, w)
    assert greedy_lexicode(q, d, w).N <= comb(q, t) // comb(w, t)


def test_verify_catches_defects():
    ok = ConstantWeightCode(5, 2, 2, [0b00011, 0b00101])
    assert verify_cw_code(ok).ok
    dup = ConstantWeightCode(5, 2, 2, [0b00011, 0b00011])
    v = verify_cw_code(dup)
    assert not v.ok and v.indices == (0, 1)
    wrong_weight = ConstantWeightCode(5, 2, 2, [0b00111])
    assert not verify_cw_code(wrong_weight).ok
    too_long = ConstantWeightCode(3, 2, 2, [0b1001])
    assert not verify_cw_code(too_long).ok
    close = ConstantWeightCode(6, 3, 4, [0b000111, 0b001011])
    v = verify_cw_code(close)
    assert not v.ok and "distance" in v.reason


def test_verify_odd_distance_rounds_the_overlap_cap_down():
    # two weight-2 words sharing one position are at distance 2: fine for
    # d = 2, too close for d = 3 (and then for d = 4)
    words = [0b0011, 0b0101]
    assert verify_cw_code(ConstantWeightCode(4, 2, 2, words)).ok
    for d in (3, 4):
        v = verify_cw_code(ConstantWeightCode(4, 2, d, words))
        assert not v.ok and v.indices == (0, 1)
        assert v.reason == f"words 0 and 1 are at distance 2 < {d}"
    # disjoint weight-2 words are at distance 4, enough for d = 3
    assert verify_cw_code(ConstantWeightCode(4, 2, 3, [0b0011, 0b1100])).ok
    # at d = 5 weight-3 words must be disjoint: one shared position puts
    # them at distance 4
    assert verify_cw_code(ConstantWeightCode(6, 3, 5, [0b000111, 0b111000])).ok
    assert not verify_cw_code(ConstantWeightCode(6, 3, 5,
                                                 [0b000111, 0b011100])).ok


def test_verify_requires_distinct_words_at_any_distance():
    for d in (0, 1):
        v = verify_cw_code(ConstantWeightCode(2, 2, d, [0b11, 0b11]))
        assert not v.ok and v.indices == (0, 1)
        assert v.reason == "words 0 and 1 are equal"
    assert verify_cw_code(ConstantWeightCode(3, 2, 0, [0b011, 0b110])).ok


def test_cli_verify_rejects_close_words_at_odd_distance(tmp_path, capsys):
    words = tmp_path / "f.txt"
    words.write_text("1100\n1010\n")
    assert main(["cw", "verify", "--code", str(words), "--d", "2"]) == 0
    capsys.readouterr()
    assert main(["cw", "verify", "--code", str(words), "--d", "3"]) == 1
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert out == {"ok": False, "indices": [0, 1],
                   "reason": "words 0 and 1 are at distance 2 < 3"}


def test_family_from_code():
    code = greedy_lexicode(4, 2, 2)
    fam = family_from_code(code)
    assert fam.n == 6 and fam.universe.v == 4
    assert all(m.bit_count() == 2 for m in fam.members)
    bad = ConstantWeightCode(5, 2, 2, [0b00011, 0b00011])
    with pytest.raises(CodeError):
        family_from_code(bad)


def test_family_intersection_bound_from_distance():
    # d = 6, w = 4: pairwise overlap at most w - d/2 = 1
    code = import_code(FIXTURE_DIR / "example5_inner_code.json")
    assert code.N == 31
    cap = code.w - code.d // 2
    for a, b in itertools.combinations(code.words, 2):
        assert (a & b).bit_count() <= cap


def test_fixture_q20_code():
    code = import_code(FIXTURE_DIR / "example3_inner_code.json")
    assert (code.q, code.N, code.d, code.w) == (20, 83, 6, 5)
    for a, b in itertools.combinations(code.words, 2):
        assert (a & b).bit_count() <= 2


def test_cyclic_generator_full_size():
    words = cyclic_weight5_code()
    assert len(words) == 84
    code = ConstantWeightCode(20, 5, 6, words)
    assert verify_cw_code(code).ok


def test_condition_8_cases():
    b1 = ConstantWeightCode(21, 4, 6, greedy_lexicode(21, 6, 4).words)
    b2 = ConstantWeightCode(21, 13, 18, greedy_lexicode(21, 18, 13).words)
    c8 = check_condition_8(b1, b2, 3)
    assert (c8.first, c8.second, c8.third) == (True, True, True)
    assert c8.all_ok

    same = greedy_lexicode(4, 2, 2)
    c8 = check_condition_8(same, same, 2)
    assert not c8.third  # w2 = 2 is not > K*w1 = 4
    assert not c8.all_ok

    singles = ConstantWeightCode(4, 1, 2, [0b0001, 0b0010])
    big = ConstantWeightCode(4, 3, 4, [0b0111])
    c8 = check_condition_8(singles, big, 5)
    assert c8.first  # K * (w1 - d1/2) = 0 < 1 for any K


def test_condition_8_length_mismatch():
    a = ConstantWeightCode(4, 1, 2, [0b0001])
    b = ConstantWeightCode(5, 3, 4, [0b00111])
    with pytest.raises(CodeError):
        check_condition_8(a, b, 2)


def test_stochastic_search_single_word():
    code = stochastic_search(21, 18, 13, 1, seed=0, budget=10)
    assert code.N == 1
    assert verify_cw_code(code).ok
    assert code.words[0].bit_count() == 13


def test_stochastic_search_reaches_greedy_optimum():
    code = stochastic_search(4, 2, 2, 6, seed=1, budget=5000)
    assert code.N == 6


def test_stochastic_search_reproducible():
    a = stochastic_search(10, 4, 3, 12, seed=9, budget=3000)
    b = stochastic_search(10, 4, 3, 12, seed=9, budget=3000)
    assert a.words == b.words
    assert verify_cw_code(a).ok


def test_stochastic_search_best_effort():
    # impossible target: only floor(9/3) = 3 pairwise-disjoint weight-3 words
    code = stochastic_search(9, 6, 3, 5, seed=0, budget=2000)
    assert 1 <= code.N < 5
    assert verify_cw_code(code).ok


def test_import_export_roundtrip(tmp_path):
    code = greedy_lexicode(10, 4, 4)
    p = tmp_path / "code.json"
    export_code(code, p)
    again = import_code(p)
    assert again.words == code.words and again.d == code.d

    t = tmp_path / "code.txt"
    export_code(code, t)
    again = import_code(t)
    assert again.words == code.words
    assert again.d >= code.d  # observed minimum distance

    data = json.loads(p.read_text())
    data["words"][0] = "1110000000"  # wrong weight
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(CodeError):
        import_code(bad)
    assert import_code(bad, verify=False).N == code.N


def test_import_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"q\": 4}")
    with pytest.raises(CodeError):
        import_code(p)
    t = tmp_path / "bad.txt"
    t.write_text("0101\n011\n")
    with pytest.raises(CodeError):
        import_code(t)
    t2 = tmp_path / "bad2.txt"
    t2.write_text("01x1\n")
    with pytest.raises(CodeError):
        import_code(t2)
