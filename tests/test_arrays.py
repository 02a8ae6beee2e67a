import json
import random

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from acckit import arrays
from acckit.arrays import (CodeBook, ParameterError, build_U, build_V, build_W,
                           check_lemma1_bounds, load_codebook, min_distance,
                           provenance_holds, rho, save_codebook, verify_oa)
from acckit.gf import GF

from _oracles import gf_rank, naive_oa
from conftest import EXAMPLE2_ROWS


def test_rho_values():
    g3 = GF(3)
    assert rho(0, 3, g3) == (1, 1, 1)
    assert rho(1, 3, g3) == (0, 1, 2)
    assert rho(2, 3, g3) == (0, 1, 1)
    with pytest.raises(ParameterError):
        rho(1, 4, g3)  # m > s
    with pytest.raises(ParameterError):
        rho(1, 2, GF(5))  # m < 3


def test_moment_matrix_submatrices_nonsingular():
    rng = random.Random(11)
    for gf, t, m in [(GF(5), 2, 5), (GF(7), 3, 7), (GF(3, 2), 3, 9),
                     (GF(31), 3, 7)]:
        R = [rho(i, m, gf) for i in range(t)]
        for _ in range(10):
            cols = rng.sample(range(m), t)
            sub = [[row[c] for c in cols] for row in R]
            assert gf_rank(sub, gf) == t


def test_build_U_example2_prefix():
    u = build_U(GF(3), 2, 3)
    assert u.row_set() == set(EXAMPLE2_ROWS[:9])
    assert verify_oa(u, 2).ok
    # minimum nonzero weight equals m - t + 1, by brute force over all rows
    weights = sorted(int((r != 0).sum()) for r in u.rows)
    assert weights[0] == 0 and weights[1] == 2  # zero row, then weight 2
    assert min_distance(u) == 2


def test_build_V_W_example2():
    v = build_V(GF(3), 2, 3)
    assert v.row_set() == {(0, 1, 1), (1, 2, 2), (2, 0, 0)}
    w = build_W(GF(3), 2, 3)
    assert w.M == 12
    assert w.row_set() == set(EXAMPLE2_ROWS)
    assert w.provenance == "W" and w.t == 2


def test_build_W_large_sizes():
    w = build_W(GF(83), 2, 3)
    assert w.M == 6972
    assert w.rows.shape == (6972, 3)


def test_build_parameter_errors():
    with pytest.raises(ParameterError):
        build_U(GF(3), 1, 3)
    with pytest.raises(ParameterError):
        build_U(GF(3), 2, 2)
    with pytest.raises(ParameterError):
        build_U(GF(3), 4, 3)  # t > m


def test_verify_oa():
    assert verify_oa(build_U(GF(7), 3, 7), 3).ok
    w = build_W(GF(3), 2, 3)
    verdict = verify_oa(w, 2)
    assert not verdict.ok
    assert verdict.columns is not None and verdict.count != 1
    with pytest.raises(ParameterError):
        verify_oa(w, 1)  # strength 1 is degenerate
    with pytest.raises(ParameterError):
        verify_oa(w, 4)  # exceeds word length


def test_verify_oa_codes_past_int64():
    # s^3 = 2^66 codes: an int64 code of the last row would overflow
    s = 2**22
    rows = [(0, 0, 0), (1, 0, 0), (1, 0, 0), (s - 1, s - 1, s - 1)]
    verdict = verify_oa(CodeBook(s=s, m=3, rows=rows), 3)
    assert (verdict.columns, verdict.symbols, verdict.count) == ((0, 1, 2),
                                                                 (1, 0, 0), 2)


@st.composite
def oa_books(draw):
    """(s, t, rows): U over GF(3) or GF(5) with at most one row dropped,
    repeated or changed, or a few random rows, so both verdicts and wrong
    row counts occur.  Random rows may use s = 3000, where s^t counters
    would take 72 MB at t = 2 and 201 GiB at t = 3."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([3, 5]))
        m = draw(st.integers(3, min(p, 4)))
        t = draw(st.integers(2, 3))
        rows = build_U(GF(p), t, m).rows.tolist()
        edit = draw(st.sampled_from(["none", "drop", "repeat", "change"]))
        i = draw(st.integers(0, len(rows) - 1))
        if edit == "drop":
            del rows[i]
        elif edit == "repeat":
            rows.append(rows[i])
        elif edit == "change":
            rows[i][draw(st.integers(0, m - 1))] = draw(st.integers(0, p - 1))
        return p, t, rows
    s = draw(st.sampled_from([1, 2, 3, 4, 3000]))
    m = draw(st.integers(2, 4))
    t = draw(st.integers(2, m))
    rows = draw(st.lists(st.lists(st.integers(0, s - 1), min_size=m,
                                  max_size=m), min_size=1, max_size=20))
    return s, t, rows


@given(oa_books())
def test_verify_oa_matches_counter_oracle(case):
    s, t, rows = case
    verdict = verify_oa(CodeBook(s=s, m=len(rows[0]), rows=rows), t)
    want = naive_oa(rows, s, t)
    event("orthogonal array" if want is None else "fails")
    assert verdict.ok == (want is None)
    if want is not None:
        assert (verdict.columns, verdict.symbols, verdict.count) == want


def test_verify_oa_grid():
    for s, gf in [(3, GF(3)), (5, GF(5)), (7, GF(7)), (9, GF(3, 2))]:
        for t in (2, 3):
            for m in range(max(3, t), s + 1):
                if t >= m:
                    continue
                u = build_U(gf, t, m)
                assert verify_oa(u, t).ok, (s, t, m)
                assert min_distance(u) == m - t + 1, (s, t, m)


def test_min_distance_and_coincidences(example2_book):
    assert min_distance(example2_book) == 1
    assert min_distance(build_U(GF(31), 3, 7)) == 5
    # a repeated row, here the first and the last, gives d = 0
    rows = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1], [0, 1, 2]])
    assert min_distance(CodeBook(s=3, m=3, rows=rows)) == 0
    # two rows agreeing in c of m coordinates are at distance m - c
    assert min_distance(CodeBook(s=3, m=3, rows=[(0, 0, 0), (2, 0, 0)])) == 1
    assert min_distance(CodeBook(s=3, m=3, rows=[(0, 1, 2), (2, 0, 1)])) == 3
    with pytest.raises(ParameterError):
        min_distance(CodeBook(s=2, m=2, rows=np.array([[0, 1]])))


def test_min_distance_paths_agree_on_linear_books():
    for s, gf in [(3, GF(3)), (5, GF(5)), (7, GF(7)), (9, GF(3, 2))]:
        for t, m in [(2, 3), (2, s), (3, s)]:
            if t >= m or m < 3:
                continue
            u = build_U(gf, t, m)
            # the same rows without provenance "U" are scanned pairwise
            plain = CodeBook(s=u.s, m=u.m, rows=u.rows)
            assert min_distance(u) == min_distance(plain), (s, t, m)


def test_provenance_holds_only_for_rebuilt_arrays():
    for gf in (GF(5), GF(3, 2)):
        for build in (build_U, build_V, build_W):
            book = build(gf, 3, 4)
            assert provenance_holds(book)
            rows = book.rows[::-1]
            for changed in (dict(rows=rows), dict(t=None), dict(t=2),
                            dict(provenance="imported")):
                kw = dict(s=book.s, m=book.m, rows=book.rows,
                          provenance=book.provenance, t=book.t) | changed
                assert not provenance_holds(CodeBook(**kw)), (build, changed)
    # a modulus other than the built-in one gives other rows at t = 3, and
    # the book records it; GF(13^2) has no built-in modulus at all
    for gf in (GF(3, 2, (2, 1, 1)), GF(13, 2, (2, 0, 1))):
        u = build_U(gf, 3, 4) if gf.s == 9 else build_U(gf, 2, 3)
        assert u.modulus == gf.modulus and provenance_holds(u)
        for other in (None, (1, 0, 1), (2, 0, 0)):  # built-in, other, reducible
            kw = dict(s=u.s, m=u.m, rows=u.rows, provenance="U", t=u.t)
            assert not provenance_holds(CodeBook(**kw, modulus=other))
        assert min_distance(u) == u.m - u.t + 1
    assert build_U(GF(3, 2, (1, 0, 1)), 2, 3).modulus is None
    # six symbols: no field
    assert not provenance_holds(CodeBook(s=6, m=3, rows=np.zeros((36, 3), int),
                                         provenance="U", t=2))


def test_provenance_holds_checks_row_count_before_rebuilding(monkeypatch):
    # a forged tag must not make the check build an array the book's own
    # rows do not pay for: W over GF(65521) at t = 3 has about 2.8e14 rows
    import acckit.arrays as arrays

    def refuse(*args):
        raise AssertionError("rebuilt")

    for name in ("build_U", "build_V", "build_W"):
        monkeypatch.setattr(arrays, name, refuse)
    for tag in "UVW":
        book = CodeBook(s=65521, m=3, rows=[[0, 1, 2]], provenance=tag, t=3)
        assert not provenance_holds(book)


def test_lemma1_bounds_small():
    rep = check_lemma1_bounds(GF(3), 2, 3)
    assert (rep.max_uu, rep.max_vv, rep.max_uv) == (1, 0, 2)
    assert rep.ok
    rep5 = check_lemma1_bounds(GF(5), 2, 5)
    assert rep5.ok
    assert rep5.max_uu <= 1 and rep5.max_vv <= 0 and rep5.max_uv <= 2


def test_lemma1_bounds_strength3():
    rep = check_lemma1_bounds(GF(7), 3, 7)
    assert rep.ok
    assert rep.bounds == (2, 1, 3)


def test_lemma1_reports_the_first_violation_in_class_order(monkeypatch):
    # U over GF(3) at t = 2, m = 3 lists c0 (1,1,1) + c1 (0,1,2) with c0
    # fastest, so rows 0, 3, 6 all start with 0 and row 4 is (1, 2, 0)
    u = build_U(GF(3), 2, 3).rows
    for picked, violation in (
            # V-V (bound 0) and U-V (bound 2) both fail; V-V comes first
            ([0, 3, 6], ("V-V", 0, 1, 1)),
            # one V row equal to U row 4: only U-V fails
            ([4], ("U-V", 4, 0, 3))):
        monkeypatch.setattr(arrays, "build_V", lambda gf, t, m, rows=u[picked]:
                            CodeBook(s=3, m=3, rows=rows))
        rep = check_lemma1_bounds(GF(3), 2, 3)
        assert rep.violation == violation and not rep.ok
        cls, i, j, count = violation
        payload = rep.to_json_dict()
        assert payload["ok"] is False
        assert payload["violation"] == {"pair_class": cls, "i": i, "j": j,
                                        "coincidences": count}


def test_max_coincidences_reports_first_pair_over_bound():
    from acckit.arrays import _max_coincidences
    a = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert _max_coincidences(a, None, 1) == (3, (0, 1, 2))
    assert _max_coincidences(a, None, 3) == (3, None)
    b = np.array([[1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert _max_coincidences(a[:1], b, 1) == (3, (0, 1, 2))
    assert _max_coincidences(a, b, 3) == (4, (1, 1, 4))


def test_builds_deterministic():
    a = build_W(GF(5), 2, 5).rows
    b = build_W(GF(5), 2, 5).rows
    assert np.array_equal(a, b)


def test_codebook_validation():
    with pytest.raises(ParameterError):
        CodeBook(s=2, m=3, rows=np.array([[0, 1, 2]]))  # symbol out of range
    with pytest.raises(ParameterError):
        CodeBook(s=3, m=2, rows=np.array([[0, 1, 2]]))  # wrong length
    with pytest.raises(ParameterError):
        CodeBook(s=3, m=3, rows=np.array([[0, 1, 2]]), provenance="X")


def test_codebook_rejects_no_coordinates_or_no_symbols(tmp_path):
    # two empty rows would otherwise pass as a duplicate symbol set
    with pytest.raises(ParameterError, match="m >= 1"):
        CodeBook(s=3, m=0, rows=np.zeros((2, 0), dtype=int))
    with pytest.raises(ParameterError, match="s >= 1"):
        CodeBook(s=0, m=2, rows=np.zeros((0, 2), dtype=int))
    bad = tmp_path / "flat.json"
    bad.write_text(json.dumps({"s": 3, "m": 0, "rows": [[], []]}))
    with pytest.raises(ParameterError):
        load_codebook(bad)


def test_json_and_text_roundtrip(tmp_path, example2_book):
    p = tmp_path / "book.json"
    save_codebook(example2_book, p)
    again = load_codebook(p)
    assert again.rows.tolist() == example2_book.rows.tolist()
    assert again.s == 3 and again.provenance == "imported"

    w = build_W(GF(3), 2, 3)
    p2 = tmp_path / "w.json"
    save_codebook(w, p2)
    again = load_codebook(p2)
    assert again.t == 2 and again.provenance == "W"

    # save_codebook and load_codebook write and read text unless the path
    # ends in .json
    p3 = tmp_path / "book.txt"
    save_codebook(example2_book, p3)
    again = load_codebook(p3)
    assert again.rows.tolist() == example2_book.rows.tolist()
    assert again.s == 3

    p4 = tmp_path / "w.txt"
    save_codebook(w, p4)
    assert p4.read_text() == "".join(
        " ".join(str(x) for x in row) + "\n" for row in w.rows.tolist())
    again = load_codebook(p4)
    assert again.rows.tolist() == w.rows.tolist() and again.s == 3
    assert again.provenance == "imported"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"s": 3, "rows": [[0]]}))
    with pytest.raises(ParameterError):
        load_codebook(bad)


# x^10 + x^3 + 1 over GF(2)
GF1024 = GF(2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))


@pytest.fixture(scope="module")
def u1024():
    return build_U(GF1024, 2, 3)


def test_extension_field_builds_match_scalar_arithmetic(u1024):
    cases = [(GF(3, 2), 2, 4), (GF(3, 2), 3, 9), (GF(31), 3, 7),
             (GF(521), 2, 3), (GF1024, 2, 3)]
    for gf, t, m in cases:
        u = u1024 if gf is GF1024 else build_U(gf, t, m)
        _check_rows_by_scalar_arithmetic(gf, t, m, u, build_V(gf, t, m))


def _check_rows_by_scalar_arithmetic(gf, t, m, u, v):
    R = [rho(i, m, gf) for i in range(t)]
    shift = rho(t, m, gf)
    s = gf.s

    def combine(xi, basis, start):
        row = list(start)
        for c, b in zip(xi, basis):
            row = [gf.add(x, gf.mul(c, y)) for x, y in zip(row, b)]
        return row

    # row idx holds the coefficients xi_j = digit j of idx in base s: U's
    # row is sum xi_j rho(j), V's is rho(t) + sum xi_j rho(j) over j < t-1
    rng = random.Random(s)
    for book, basis, start in ((u, R, [0] * m), (v, R[:t - 1], shift)):
        k = len(basis)
        assert book.M == s**k, gf
        sample = rng.sample(range(s**k), min(20, s**k))
        for idx in {0, 1, s - 1, s**k - 1, *sample}:
            xi = [idx // s**j % s for j in range(k)]
            assert book.rows[idx].tolist() == combine(xi, basis, start), (gf, idx)


def test_build_U_over_gf1024_is_an_orthogonal_array(u1024):
    assert u1024.M == 1024**2
    assert verify_oa(u1024, 2).ok


def test_verify_oa_strength_and_failure_witness():
    u = build_U(GF(7), 3, 7)
    assert verify_oa(u, 3).ok
    w = build_W(GF(3), 2, 3)
    a = verify_oa(w, 2)
    assert not a.ok
    assert (a.columns, a.symbols, a.count) == ((0, 1), (2, 0), 2)
