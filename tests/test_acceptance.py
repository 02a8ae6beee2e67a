"""Acceptance suite: one test per criterion, each printing a PASS line
with its headline numbers and elapsed time (run with -s to see them).

Construction sizes, distances, witnesses, and verification depths are
asserted exactly; runtime ceilings are asserted where stated.  The
union count for the big concatenation output is asserted at its exact
value n + C(n, 2) = 24,307,878 for n = 6972.
"""

import random
import time
from math import comb

from acckit.accs import (acc_to_family, build_theorem1_acc, build_theorem2_acc,
                         build_h0, compare_prior, AndAcc)
from acckit.arrays import build_U, build_W, check_lemma1_bounds, min_distance
from acckit.collusion import and_attack, trace
from acckit.cwcodes import check_condition_8, family_from_code, greedy_lexicode, import_code
from acckit.families import (SetFamily, Universe, distance_slack, is_k_cff,
                             is_k_ud_code, is_k_udf, is_partial_cff, sample_cff)
from acckit.fixturegen import FIXTURE_DIR
from acckit.gf import GF
from acckit.presets import run_preset

from _oracles import naive_cff, naive_udf
from conftest import EXAMPLE2_ROWS


def _report(num, elapsed, text):
    print(f"\nACCEPTANCE {num:2d}: PASS ({elapsed:6.2f}s) {text}")


def _singletons(q):
    return SetFamily.from_sets(Universe(q), [[l] for l in range(q)])


def test_criterion_01_stacked_array_reproduction(example2_book):
    t0 = time.monotonic()
    w = build_W(GF(3), 2, 3)
    assert w.row_set() == set(EXAMPLE2_ROWS)
    assert w.M == 12
    d = min_distance(w)
    assert d == 1
    assert distance_slack(w.m, d, 2) <= 0
    assert is_k_ud_code(w, 2).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "W over GF(3) equals the canonical twelve rows; "
                        "d=1; distance condition fails at K=2; code is 2-UD")


def test_criterion_02_concatenated_family_reproduction(example2_book,
                                                       example1_family):
    t0 = time.monotonic()
    h0 = build_h0(example2_book, _singletons(3))
    assert h0 == example1_family  # exact members in order
    assert is_k_udf(h0, 2).ok
    cff = is_k_cff(h0, 2)
    assert not cff.ok
    w = cff.witness
    assert w.j2 == (0, 4) and w.covered == 9
    sets = h0.to_json_dict()["sets"]
    # {10,20,30} and {11,21,31} cover {10,21,31}
    assert [sets[j] for j in w.j2] == [[0, 3, 6], [1, 4, 7]]
    assert sets[w.covered] == [0, 4, 7]
    assert is_partial_cff(h0, range(9), 2).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, elapsed, "concatenation reproduces the twelve sets; 2-UDF; "
                        "not 2-CFF with the canonical witness; "
                        "leading nine sets are 2-CFF")


def test_criterion_03_coincidence_bound_suite():
    t0 = time.monotonic()
    fields = {3: GF(3), 5: GF(5), 7: GF(7), 9: GF(3, 2)}
    cases = 0
    for s, gf in fields.items():
        for m in range(3, s + 1):
            rep = check_lemma1_bounds(gf, 2, m)
            assert rep.ok, (s, m, rep.violation)
            res = is_k_ud_code(build_W(gf, 2, m), 2)
            assert res.ok, (s, m, res.witness)
            cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, elapsed, f"{cases} (s, m) cases: coincidence bounds hold and "
                        "every stacked array is exhaustively 2-UD")


def test_criterion_04_full_scale_concatenation():
    t0 = time.monotonic()
    cw = import_code(FIXTURE_DIR / "example3_inner_code.json")
    assert cw.N == 83
    family = family_from_code(cw)
    assert is_k_udf(family, 2).ok  # verified 2-UDF(q', 83)
    book = build_W(GF(83), 2, 3)
    assert book.M == 6972
    acc, cert = build_theorem1_acc(book, family, 2, mode="structural")
    assert acc.n == 6972 and acc.K == 2
    assert acc.v == 3 * cw.q
    exact = cw.q == 20
    if exact:
        assert acc.v == 60
    out_family = acc_to_family(acc, product=(3, cw.q))
    res = is_k_udf(out_family, 2)
    assert res.ok
    assert res.checked == 6972 + comb(6972, 2) == 24_307_878
    # the product takes the heavy-row route; without it, the packed scan
    # over every union must give the same result
    assert is_k_udf(acc_to_family(acc), 2) == res
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    label = "exact (60, 6972, 2)" if exact else \
        f"fallback ({acc.v}, 6972, 2) from a length-{cw.q} family"
    _report(4, elapsed, f"{label}; exhaustive union-distinctness over "
                        f"{res.checked} unions")


def test_criterion_05_full_scale_augmentation_exhaustive():
    t0 = time.monotonic()
    result = run_preset("example4")
    acc = result.acc
    assert (acc.v, acc.n, acc.K) == (49, 357, 3)
    assert acc.n == 343 + 2 * 7
    by_name = {e["name"]: e for e in result.summary["conditions"]}
    for name in ("K < m", "distance condition K(m-d) < m",
                 "inner family is K-CFF", "cross-cover condition on G"):
        entry = by_name[name]
        assert entry["result"] and entry["mode"] == "exhaustive", name
    cff = by_name["output family is K-CFF"]
    assert cff["result"] and cff["mode"] == "exhaustive"
    # n * sum_{k=1..K} C(n - 1, k) cover checks, and no witness
    assert cff["params"] == {"checked": 2_684_627_862}
    assert 2_684_627_862 == 357 * sum(comb(356, k) for k in (1, 2, 3))
    assert "witness" not in cff
    udf = by_name["output family is K-UDF"]
    assert udf["result"] and udf["mode"] == "exhaustive"
    outputs = [e for e in result.summary["conditions"]
               if e["name"].startswith("output family")]
    assert {e["mode"] for e in outputs} == {"exhaustive"}
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0

    t1 = time.monotonic()
    out_family = acc_to_family(acc, product=(7, 7))
    rep = sample_cff(out_family, 3, 10**6, seed=0)
    sampled_elapsed = time.monotonic() - t1
    assert rep.ok
    assert sampled_elapsed < 10.0
    _report(5, elapsed, "(49, 357, 3) with every hypothesis exhaustive and "
                        "the full output cover-freeness pass; plus "
                        f"10^6 sampled cover checks in {sampled_elapsed:.1f}s")


def test_criterion_06_large_augmentation(preset_run):
    t0 = time.monotonic()
    result, _, _ = preset_run("example5")  # shared with the byte pins
    acc = result.acc
    assert (acc.v, acc.n, acc.K) == (147, 29798, 3)
    assert acc.n == 29791 + 7 * 1
    by_name = {e["name"]: e for e in result.summary["conditions"]}
    assert by_name["distance condition K(m-d) < m"]["params"]["d"] == 5
    assert by_name["inner family is K-CFF"]["mode"] == "exhaustive"
    iv = by_name["cross-cover condition on G"]
    assert iv["mode"] == "exhaustive" and iv["params"]["members"] == 32
    c8 = by_name["weight-code inequalities"]
    assert c8["result"] and c8["params"]["first"] and c8["params"]["second"] \
        and c8["params"]["third"]
    # independent re-check of the three inequalities
    b1 = import_code(FIXTURE_DIR / "example5_inner_code.json")
    b2 = greedy_lexicode(21, 18, 13)
    assert check_condition_8(b1, b2, 3).all_ok
    # exhaustive verification declared infeasible, with the subset count
    subsets = sum(comb(29798, k) for k in range(1, 4))
    assert subsets > 4 * 10**12
    assert any(str(subsets) in note for note in result.summary["notes"])
    sampled = by_name["output family union-distinct (sampled)"]
    assert sampled["result"] and sampled["params"]["trials"] == 10**6
    assert sampled["params"]["violations"] == 0
    assert sampled["params"] == {"trials": 10**6, "violations": 0, "seed": 0,
                                 "sampler": "batched-v2"}
    elapsed = time.monotonic() - t0
    _report(6, elapsed, "(147, 29798, 3) = 29791 + 7; d=5 by min weight; "
                        "hypotheses exhaustive on 32 members; "
                        f"{subsets} subsets declared infeasible; "
                        "10^6 samples clean")


def test_criterion_07_resilience_four(preset_run):
    t0 = time.monotonic()
    result, _, _ = preset_run("example6")  # shared with the byte pins
    acc = result.acc
    assert (acc.v, acc.n, acc.K) == (81, 747, 4)
    assert acc.n == 729 + 9 * 2
    by_name = {e["name"]: e for e in result.summary["conditions"]}
    d_entry = by_name["distance condition K(m-d) < m"]
    assert d_entry["params"]["d"] == 7 and d_entry["result"]  # 4*2 < 9
    assert by_name["inner family is K-CFF"]["mode"] == "exhaustive"
    iv = by_name["cross-cover condition on G"]
    assert iv["mode"] == "exhaustive" and iv["params"]["members"] == 11
    assert by_name["output family is K-CFF"]["mode"] == "structural"
    sampled = by_name["output family union-distinct (sampled)"]
    assert sampled["mode"] == "sampled"
    assert sampled["result"] and sampled["params"]["trials"] == 10**6
    assert sampled["params"]["violations"] == 0
    assert sampled["params"] == {"trials": 10**6, "violations": 0, "seed": 0,
                                 "sampler": "batched-v2"}
    elapsed = time.monotonic() - t0
    _report(7, elapsed, "(81, 747, 4) = 729 + 18; structural certificate "
                        "(d=7, 4*2 < 9, singleton family, cross-cover "
                        "exhaustive on 11 members); 10^6 samples clean")


def test_criterion_08_prior_comparisons():
    t0 = time.monotonic()
    cases = [
        ((60, 6972, 2), (249, 6889), "larger n, smaller v"),
        ((49, 357, 3), (49, 343), "larger n, same v"),
        ((147, 29798, 3), (217, 29791), "larger n, smaller v"),
        ((81, 747, 4), (81, 729), "larger n, same v"),
    ]
    for (v, n, K), (pv, pn), expect in cases:
        cmp = compare_prior(AndAcc(v=v, n=n, K=K, codewords=[0] * n), pv, pn)
        assert cmp.exceeds_bib_bound, (v, n, K)
        assert n * (K + 1) * K > v * (v - 1)
        assert cmp.delta_n > 0
        if "smaller v" in expect:
            assert cmp.delta_v < 0
        else:
            assert cmp.delta_v == 0
    elapsed = time.monotonic() - t0
    _report(8, elapsed, "all four prior comparisons reproduced; every code "
                        "exceeds the block-design bound n <= v(v-1)/((K+1)K)")


def test_criterion_09_tracing_roundtrip(example2_book, singleton_family3):
    t0 = time.monotonic()
    acc1, _ = build_theorem1_acc(example2_book, singleton_family3, 2)
    acc4, _ = build_theorem2_acc(
        build_U(GF(7), 3, 7), _singletons(7),
        SetFamily.from_sets(Universe(7), [[0, 1, 2, 3], [0, 4, 5, 6]]), 3)
    acc6, _ = build_theorem2_acc(
        build_U(GF(3, 2), 3, 9), _singletons(9),
        SetFamily.from_sets(Universe(9), [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]]), 4)
    rng = random.Random(2024)
    per_acc = [334, 333, 333]
    for acc, count in zip((acc1, acc4, acc6), per_acc):
        for _ in range(count):
            S = tuple(sorted(rng.sample(range(acc.n),
                                        rng.randint(1, acc.K))))
            res = trace(acc, and_attack(acc, S))
            assert res.found and res.users == S
    wrong = 0
    for _ in range(100):
        S = tuple(sorted(rng.sample(range(acc1.n), acc1.K + 1)))
        res = trace(acc1, and_attack(acc1, S), K=acc1.K)
        if res.found:
            assert res.superset_consistent  # flagged ambiguous, not a claim
            assert not res.confident
        if res.found and res.confident:
            wrong += 1
    assert wrong == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, elapsed, "1000 coalitions recovered exactly across the three "
                        "codes; 100 oversized coalitions never traced to a "
                        "confident wrong answer")


def test_criterion_10_oracle_agreement(monkeypatch):
    t0 = time.monotonic()
    import acckit.families as fam_mod
    rng = random.Random(909)
    packed_used = 0
    for i in range(200):
        n = rng.randint(3, 20)
        v = rng.randint(4, 30)
        members = []
        for _ in range(n):
            size = rng.randint(1, min(8, v))
            mask = 0
            for idx in rng.sample(range(v), size):
                mask |= 1 << idx
            members.append(mask)
        fam = SetFamily(Universe(v), members)
        K = rng.choice([1, 2, 2, 3])
        udf_ok, _ = naive_udf(members, K)
        assert is_k_udf(fam, K).ok == udf_ok
        if K == 2:
            monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 1)
            assert is_k_udf(fam, K).ok == udf_ok  # packed path agrees too
            monkeypatch.setattr(fam_mod, "_PACKED_THRESHOLD", 512)
            packed_used += 1
        cff_ok, _ = naive_cff(members, K)
        assert is_k_cff(fam, K).ok == cff_ok
    elapsed = time.monotonic() - t0
    _report(10, elapsed, f"200 random families: verifier verdicts match the "
                         f"independent oracles ({packed_used} packed-path "
                         "cross-checks included)")
