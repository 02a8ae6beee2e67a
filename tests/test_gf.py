import itertools
import time

import numpy as np
import pytest

from acckit.gf import GF, FieldError, _DEFAULT_MODULI, parse_field

from _oracles import naive_reducible, poly_field_add, poly_field_mul

AXIOM_SIZES = [3, 5, 7, 9, 27, 31, 49, 81, 83]


def make_field(s):
    fields = {3: GF(3), 5: GF(5), 7: GF(7), 9: GF(3, 2), 27: GF(3, 3),
              31: GF(31), 49: GF(7, 2), 81: GF(3, 4), 83: GF(83)}
    return fields[s]


def tables(gf):
    """The full add and mul tables, each from one array call."""
    grid = np.arange(gf.s)
    return gf.add(grid[:, None], grid), gf.mul(grid[:, None], grid)


def test_enumerate_elements():
    assert GF(3).elements() == [0, 1, 2]
    assert GF(7).elements() == list(range(7))
    g9 = GF(3, 2, (1, 0, 1))
    # encoding a + 3b for coefficient vector (a, b)
    assert g9.elements() == [a + 3 * b for b in range(3) for a in range(3)]


def test_identity_conventions():
    for s in AXIOM_SIZES:
        gf = make_field(s)
        for a in gf.elements():
            assert gf.add(a, 0) == a
            assert gf.mul(a, 1) == a
            assert gf.mul(a, 0) == 0


def test_basic_arithmetic_trivial_cases():
    g3, g7 = GF(3), GF(7)
    assert g3.add(1, 2) == 0
    assert g7.mul(3, 5) == 1
    assert g7.pow(3, 5) == 5  # 3^(7-2), the inverse of 3
    assert g3.pow(2, 2) == 1


def test_extension_field_against_polynomial_oracle():
    g9 = GF(3, 2, (1, 0, 1))
    assert g9.mul(3, 3) == 2  # x * x = -1
    assert g9.pow(3, 2) == 2
    # the full tables of every field with a built-in modulus
    for (p, e) in _DEFAULT_MODULI:
        gf = GF(p, e)
        elems = range(gf.s)
        add, mul = tables(gf)
        assert add.tolist() == [
            [poly_field_add(a, b, p, e) for b in elems] for a in elems]
        assert mul.tolist() == [
            [poly_field_mul(a, b, p, gf.modulus) for b in elems] for a in elems]


# x^10 + x^3 + 1 over GF(2); GF(2^10) and GF(521) are too large to check
# every pair, so random pairs are checked
TABLE_FREE = [(521, 1, None), (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))]


@pytest.mark.parametrize("p, e, modulus", TABLE_FREE)
def test_table_free_fields_match_oracle(p, e, modulus):
    gf = GF(p, e, modulus)
    mod = modulus or (0, 1)  # GF(p) = GF(p)[x]/(x)
    rng = np.random.default_rng(13)
    a_s = rng.integers(1, gf.s, 100).tolist()
    b_s = rng.integers(0, gf.s, 100).tolist()
    k_s = rng.integers(0, 40, 100).tolist()
    for a, b, k in zip(a_s, b_s, k_s):
        assert gf.add(a, b) == poly_field_add(a, b, p, e)
        assert gf.mul(a, b) == poly_field_mul(a, b, p, mod)
        # -a = (p - 1) * a and 1/a = a^(s-2)
        assert poly_field_add(a, gf.mul(p - 1, a), p, e) == 0
        assert poly_field_mul(a, gf.pow(a, gf.s - 2), p, mod) == 1
        power = 1
        for _ in range(k):
            power = poly_field_mul(power, a, p, mod)
        assert gf.pow(a, k) == power


# number of monic irreducible polynomials of degree 2, 3, 4 over GF(p)
IRREDUCIBLE_COUNTS = {2: [1, 2, 3], 3: [3, 8, 18], 5: [10, 40, 150]}


@pytest.mark.parametrize("p", sorted(IRREDUCIBLE_COUNTS))
def test_irreducibility_matches_naive_oracle(p):
    counts = []
    for e in (2, 3, 4):
        irreducible = 0
        for low in itertools.product(range(p), repeat=e):
            mod = low + (1,)
            try:
                GF(p, e, mod)
            except FieldError:
                assert naive_reducible(mod, p), mod
            else:
                assert not naive_reducible(mod, p), mod
                irreducible += 1
        counts.append(irreducible)
    assert counts == IRREDUCIBLE_COUNTS[p]


def _table_triples(gf, limit_random=None):
    s = gf.s
    if limit_random is None:
        idx = np.arange(s**3, dtype=np.int64)
        a = idx // (s * s)
        b = (idx // s) % s
        c = idx % s
    else:
        rng = np.random.default_rng(20240)
        a, b, c = rng.integers(0, s, size=(3, limit_random))
    return a, b, c


@pytest.mark.parametrize("s", AXIOM_SIZES)
def test_field_axioms(s):
    gf = make_field(s)
    add, mul = tables(gf)
    a, b, c = _table_triples(gf, limit_random=None if s <= 81 else 10**5)
    # closure
    assert add.min() >= 0 and add.max() < s
    assert mul.min() >= 0 and mul.max() < s
    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # associativity
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    # distributivity
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])


@pytest.mark.parametrize("s", AXIOM_SIZES)
def test_fermat_lagrange(s):
    gf = make_field(s)
    for a in range(1, gf.s):
        assert gf.pow(a, gf.s - 1) == 1


def test_inverses_and_zero_division():
    for s in AXIOM_SIZES:
        gf = make_field(s)
        add, mul = tables(gf)
        # each element has one additive inverse, (p - 1) * a; each nonzero
        # element one multiplicative inverse, a^(s-2); zero has none
        assert ((add == 0).sum(axis=1) == 1).all()
        assert ((mul[1:] == 1).sum(axis=1) == 1).all() and not (mul[0] == 1).any()
        grid = np.arange(s)
        assert not gf.add(grid, gf.mul(gf.p - 1, grid)).any()
        assert (gf.mul(grid[1:], gf.pow(grid[1:], s - 2)) == 1).all()


def test_inverse_powers_take_ints_and_arrays():
    gf = GF(7)
    assert gf.pow(3, 5) == 5 and isinstance(gf.pow(3, 5), int)
    got = gf.pow(np.array([1, 2, 3, 6]), 5)
    assert got.tolist() == [1, 4, 5, 6]
    assert gf.mul(got, np.array([1, 2, 3, 6])).tolist() == [1, 1, 1, 1]
    assert gf.pow(np.array([[2, 4]], dtype=np.uint8), 5).tolist() == [[4, 2]]


def test_pow_zero_convention():
    for gf in (GF(5), GF(3, 2)):
        for a in gf.elements():
            assert gf.pow(a, 0) == 1


def test_builtin_moduli_all_valid():
    for (p, e) in _DEFAULT_MODULI:
        gf = GF(p, e)
        assert gf.s == p**e
        assert gf.mul(1, 1) == 1


def test_out_of_range_elements_rejected():
    gf = GF(5)
    with pytest.raises(FieldError):
        gf.add(5, 0)
    with pytest.raises(FieldError):
        gf.mul(-1, 2)


@pytest.mark.parametrize("gf", [GF(7), GF(521)], ids=["GF(7)", "GF(521)"])
@pytest.mark.parametrize("bad", [2.5, 2.0, [1.7, 2.0], np.array([1.0, 2.0]),
                                 "3", ["1", "2"]])
def test_non_integer_elements_rejected(gf, bad):
    for op in (gf.add, gf.mul):
        with pytest.raises(FieldError):
            op(bad, 1)
        with pytest.raises(FieldError):
            op(1, bad)
    with pytest.raises(FieldError):
        gf.pow(bad, 3)
    # integer arrays of any integer dtype are elements
    assert gf.add(np.array([1, 2], dtype=np.uint8), 1).tolist() == [2, 3]


def test_construction_errors():
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        GF(3, 0)
    with pytest.raises(FieldError):
        GF(3, 2, (2, 0, 1))  # has root 1, reducible
    with pytest.raises(FieldError):
        GF(3, 2, (1, 0, 1, 0))  # wrong length
    with pytest.raises(FieldError):
        GF(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(FieldError):
        GF(2, 17)  # 2^17 over the size cap
    with pytest.raises(FieldError):
        GF(13, 2)  # no built-in modulus
    GF(13, 2, (2, 0, 1))  # but an explicit irreducible one works


# 2^61 - 1 is prime: trial division up to its square root, or 2 to the
# power 3*10^9, would run for minutes before a size check
@pytest.mark.parametrize("make", [lambda: GF(2**61 - 1),
                                  lambda: GF(2, 3_000_000_000),
                                  lambda: parse_field("2305843009213693951"),
                                  lambda: parse_field("2^3000000000")],
                         ids=["prime-p", "huge-e", "parse-prime-p", "parse-huge-e"])
def test_oversized_parameters_rejected_before_computing(make):
    start = time.perf_counter()
    with pytest.raises(FieldError, match="exceeds the 2\\^16 cap"):
        make()
    assert time.perf_counter() - start < 0.5


def test_parse_field():
    assert parse_field("7") == GF(7)
    assert parse_field("3^2") == GF(3, 2)
    assert parse_field("3^2:1,0,1") == GF(3, 2, (1, 0, 1))
    with pytest.raises(FieldError):
        parse_field("4")
    with pytest.raises(FieldError):
        parse_field("7:1,2")
    with pytest.raises(FieldError):
        parse_field("3^x")
    assert parse_field("3^2").modulus == (1, 0, 1)


def test_fields_are_pure_and_reusable():
    g = GF(3, 2)
    before = [g.mul(a, b) for a in range(9) for b in range(9)]
    _ = [g.pow(a, 5) for a in range(9)]
    after = [g.mul(a, b) for a in range(9) for b in range(9)]
    assert before == after
