import ast
import copy
import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acckit.accs import (MODES, AndAcc, Certificate, ConstructionError,
                         load_acc, save_acc, save_certificate)
from acckit.arrays import (PROVENANCES, CodeBook, ParameterError,
                           load_codebook, save_codebook)
from acckit.cli import main
from acckit.codec import (bits_to_str, json_int, json_ints, pack_masks,
                          read_json, read_lines, str_to_bits, unpack_masks,
                          write_json, write_lines)
from acckit.cwcodes import ConstantWeightCode, CodeError, export_code, import_code
from acckit.families import (FamilyError, SetFamily, Universe, Witness,
                             load_family, save_family)


def test_bitstring_roundtrip():
    assert bits_to_str(0b1101, 6) == "101100"
    assert str_to_bits("101100") == 0b1101
    assert str_to_bits("101100", 6) == 0b1101
    assert bits_to_str(0, 0) == "" and str_to_bits("") == 0
    for bits in (0, 1, 2**70 - 1, 0x5A5A5A5A5A5A5A5A5A):
        assert str_to_bits(bits_to_str(bits, 72), 72) == bits


@st.composite
def masks_of_width(draw):
    """v at and around the word boundaries, and masks of at most v bits,
    the empty and the full mask among them."""
    v = draw(st.sampled_from([1, 63, 64, 65, 128, 129]))
    full = 2**v - 1
    masks = draw(st.lists(st.one_of(st.integers(0, full),
                                    st.sampled_from([0, full, 1 << (v - 1)])),
                          max_size=8))
    return v, masks + [0, full]


@given(masks_of_width())
def test_packed_words_round_trip(case):
    # bit k of mask j is bit k % 64 of word k // 64 of column j
    v, masks = case
    cols = pack_masks(masks, v)
    assert cols.shape == (-(-v // 64), len(masks))
    assert cols.dtype == np.uint64 and cols.flags.c_contiguous
    for j, mask in enumerate(masks):
        for k in range(v):
            assert int(cols[k // 64, j]) >> (k % 64) & 1 == mask >> k & 1
    assert unpack_masks(cols) == masks
    assert pack_masks([], v).shape == (-(-v // 64), 0)
    assert unpack_masks(pack_masks([], v)) == []


def test_only_codec_converts_between_masks_and_words():
    # one owner of the packed-word layout: no other module turns a mask
    # into bytes or back, or reads little-endian 64-bit words itself
    package = Path(pack_masks.__code__.co_filename).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "codec.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("to_bytes", "from_bytes")), where
            assert not (isinstance(node, ast.Constant)
                        and node.value == "<u8"), where


def test_bitstring_rejects_bad_input():
    with pytest.raises(ValueError):
        str_to_bits("01x1")
    with pytest.raises(ValueError):
        str_to_bits(" 011")
    with pytest.raises(ValueError):
        str_to_bits("0011", 6)
    with pytest.raises(ValueError):
        str_to_bits("0011011", 6)


def test_write_json_sorted_and_newline_terminated(tmp_path):
    p = tmp_path / "x.json"
    write_json({"b": [1, 2], "a": {"d": 0, "c": None}}, p)
    text = p.read_text()
    assert text == '{"a": {"c": null, "d": 0}, "b": [1, 2]}\n'
    assert json.loads(text)["b"] == [1, 2]


def test_json_int_accepts_only_json_integers():
    assert json_int(7, "v") == 7 and json_int(-2, "v") == -2
    for bad in (7.0, 7.5, True, False, "7", None, [7]):
        with pytest.raises(ValueError, match="v must be an integer"):
            json_int(bad, "v")
    assert json_ints([0, 3], "set") == [0, 3]
    for bad in ("036", {"0": 1}, 3, [1, 2.0]):
        with pytest.raises(ValueError):
            json_ints(bad, "set")


class _Bad(ValueError):
    pass


def test_readers_raise_the_callers_class_with_the_path(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"a": [1, 2]}')
    assert read_json(p, lambda d: d["a"], _Bad) == [1, 2]
    for build in (lambda d: d["b"], lambda d: d["a"] + 1,
                  lambda d: json_int(d["a"], "a"), lambda d: int("x")):
        with pytest.raises(_Bad, match=str(p)):
            read_json(p, build, _Bad)
    p.write_text('{"a": ')
    with pytest.raises(_Bad, match="malformed"):
        read_json(p, dict, _Bad)

    t = tmp_path / "x.txt"
    write_lines(["1 2", "", "  3 4  "], t)
    assert t.read_text() == "1 2\n\n  3 4  \n"
    assert read_lines(t, list, _Bad) == ["1 2", "3 4"]
    with pytest.raises(_Bad, match=str(t)):
        read_lines(t, lambda lines: [int(x) for x in lines], _Bad)
    t.write_text("\n  \n")
    with pytest.raises(_Bad, match="no lines"):
        read_lines(t, list, _Bad)
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "missing.json", dict, _Bad)


# ---------------------------------------------------------------------------
# Every file kind loads back equal after saving
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


def _masks(width, weight=None):
    positions = st.sets(st.integers(0, width - 1), min_size=weight or 0,
                        max_size=width if weight is None else weight)
    return positions.map(lambda ks: sum(1 << k for k in ks))


@st.composite
def families(draw):
    product = draw(st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4)))
    v = product[0] * product[1] if product else draw(st.integers(1, 70))
    sets = st.sets(st.integers(0, v - 1), min_size=1)
    return SetFamily.from_sets(Universe(v, product),
                               draw(st.lists(sets, min_size=1, max_size=6)))


@st.composite
def codebooks(draw):
    s, m = draw(st.integers(1, 300)), draw(st.integers(1, 4))
    row = st.lists(st.integers(0, s - 1), min_size=m, max_size=m)
    return CodeBook(s=s, m=m, rows=draw(st.lists(row, min_size=1, max_size=6)),
                    provenance=draw(st.sampled_from(PROVENANCES)),
                    t=draw(st.none() | st.integers(2, 5)),
                    modulus=draw(st.none() | st.tuples(st.integers(0, 6),
                                                       st.integers(0, 6),
                                                       st.just(1))))


@st.composite
def cw_codes(draw):
    q = draw(st.integers(1, 70))
    w = draw(st.integers(0, q))
    return ConstantWeightCode(q=q, w=w, d=draw(st.integers(0, 2 * w)),
                              words=draw(st.lists(_masks(q, w), min_size=1,
                                                  max_size=6)))


@st.composite
def and_accs(draw):
    v, n = draw(st.integers(1, 70)), draw(st.integers(1, 6))
    return AndAcc(v=v, n=n, K=draw(st.integers(1, 4)),
                  codewords=draw(st.lists(_masks(v), min_size=n, max_size=n)))


@st.composite
def certificates(draw):
    cert = Certificate(draw(st.sampled_from(["theorem1", "theorem2", "direct"])),
                       params=draw(st.dictionaries(st.text(max_size=4),
                                                   st.integers())))
    for _ in range(draw(st.integers(0, 3))):
        witness = draw(st.none() | st.builds(
            Witness, st.sampled_from(["cover", "duplicate-union"]),
            st.tuples(st.integers(0, 9)), st.tuples(st.integers(0, 9))))
        cert.add(draw(st.text(max_size=8)), draw(st.sampled_from(MODES)),
                 draw(st.booleans()), draw(st.booleans()),
                 draw(st.dictionaries(st.text(max_size=4), st.integers())),
                 witness)
    return cert


ROUNDTRIP = settings(max_examples=25)


@ROUNDTRIP
@given(families())
def test_family_files_round_trip(scratch, family):
    save_family(family, scratch / "f.json")
    assert load_family(scratch / "f.json") == family


@ROUNDTRIP
@given(codebooks())
def test_codebook_files_round_trip(scratch, book):
    save_codebook(book, scratch / "b.json")
    assert load_codebook(scratch / "b.json").to_json_dict() == book.to_json_dict()
    # text rows carry neither provenance nor strength, and s is inferred
    save_codebook(book, scratch / "b.txt")
    again = load_codebook(scratch / "b.txt")
    assert again.rows.tolist() == book.rows.tolist()
    assert (again.s, again.provenance, again.t) == (
        int(book.rows.max()) + 1, "imported", None)


@ROUNDTRIP
@given(cw_codes())
def test_cw_code_files_round_trip(scratch, code):
    export_code(code, scratch / "c.json")
    assert import_code(scratch / "c.json", verify=False) == code
    export_code(code, scratch / "c.txt")
    assert import_code(scratch / "c.txt", d=code.d, verify=False) == code


@ROUNDTRIP
@given(and_accs())
def test_acc_files_round_trip(scratch, acc):
    save_acc(acc, scratch / "a.json")
    assert load_acc(scratch / "a.json") == acc


@ROUNDTRIP
@given(certificates())
def test_certificate_files_round_trip(scratch, cert):
    # certificates are written, never loaded: they read back as their JSON
    save_certificate(cert, scratch / "cert.json")
    assert read_json(scratch / "cert.json", dict, ValueError) == \
        cert.to_json_dict()


# ---------------------------------------------------------------------------
# Malformed files raise the module's error class and exit 2
# ---------------------------------------------------------------------------

# kind -> (valid document, loader, error class, CLI command
# that takes the file as its last argument)
KINDS = {
    "family": ({"universe": {"v": 9, "product": {"m": 3, "q": 3}},
                "sets": [[0, 3, 6], [1, 4, 7]]},
               load_family, FamilyError,
               ["family", "verify", "--prop", "udf", "--K", "2", "--family"]),
    "codebook": ({"s": 3, "m": 3, "rows": [[0, 1, 2], [1, 2, 0]],
                  "provenance": "imported", "t": 2, "modulus": [2, 0, 1]},
                 load_codebook, ParameterError, ["oa", "distance", "--book"]),
    "code": ({"q": 4, "w": 2, "d": 4, "words": ["1100", "0011"]},
             lambda p: import_code(p, verify=False), CodeError,
             ["cw", "verify", "--code"]),
    "acc": ({"v": 3, "n": 2, "K": 1, "codewords": ["110", "011"]},
            load_acc, ConstructionError, ["acc", "verify", "--prop", "udf", "--acc"]),
}
# keys a file may leave out
OPTIONAL = {("universe", "product"), ("provenance",), ("t",), ("modulus",)}


def _leaves(doc, path=()):
    yield path, doc
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _replaced(doc, path, value=None, drop=False):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(lambda d, k: d[k], head, doc)
    if drop:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _mutants(doc):
    """(label, file text) for each single-point corruption of doc."""
    for path, value in _leaves(doc):
        if type(value) is int:
            for bad in (float(value), value + 0.5, True, str(value)):
                yield f"{path} = {bad!r}", json.dumps(_replaced(doc, path, bad))
        elif type(value) is str and path[-1] != "provenance":
            yield f"{path} = 101", json.dumps(_replaced(doc, path, 101))
        elif type(value) is list and value:
            yield f"{path} = string", json.dumps(_replaced(doc, path, "012"))
        if path and isinstance(path[-1], str) and path not in OPTIONAL:
            yield f"drop {path}", json.dumps(_replaced(doc, path, drop=True))
    text = json.dumps(doc)
    for cut in (1, len(text) // 2, len(text) - 1):
        yield f"truncated to {cut}", text[:cut]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_malformed_json_files_are_rejected(tmp_path, capsys, kind):
    doc, load, error, command = KINDS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    load(path)
    assert main(command + [str(path)]) in (0, 1)
    mutants = list(_mutants(doc))
    assert len(mutants) > 10
    for label, text in mutants:
        path.write_text(text)
        with pytest.raises(error, match="malformed"):
            load(path)
        assert main(command + [str(path)]) == 2, label
        assert f"error: malformed {path}" in capsys.readouterr().err, label


# the malformed inputs that used to load silently or leak a raw error
SILENT = [
    ("family", {"universe": {"v": 9, "product": None}, "sets": ["036"]}),
    ("family", {"universe": {"v": 9, "product": None}, "sets": [[3.7]]}),
    ("family", {"universe": {"v": 9, "product": None}, "sets": [[True]]}),
    ("family", {"universe": {"v": 9.9, "product": None}, "sets": [[3]]}),
    ("codebook", {"s": 3, "m": 3, "rows": [[0.7, 1, 2], [1, 2, 0]]}),
    ("codebook", {"s": 2, "m": 3, "rows": [[True, False, True], [0, 1, 0]]}),
    ("acc", {"v": 3, "n": 2, "K": 1.5, "codewords": ["110", "011"]}),
    ("code", {"q": 4, "w": 2, "d": 2.9, "words": ["1100", "0011"]}),
    ("codebook", "{"),
    ("acc", "{"),
]


@pytest.mark.parametrize("kind, doc", SILENT)
def test_formerly_accepted_files_are_rejected(tmp_path, capsys, kind, doc):
    _, load, error, command = KINDS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(error):
        load(path)
    assert main(command + [str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text", [
    ("codebook", "0 1 2\n1 x 0\n"), ("codebook", "0 1.5 2\n"),
    ("codebook", "0 1_0 2\n"), ("codebook", "0 +1 2\n"),
    ("codebook", "0 \u0663 2\n"),
    ("codebook", "0 1 2\n1 2\n"), ("codebook", "\n\n"),
    ("code", "1100\n01x1\n"), ("code", "1100\n011\n"), ("code", ""),
])
def test_malformed_line_files_are_rejected(tmp_path, capsys, kind, text):
    _, load, error, command = KINDS[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_text(text)
    with pytest.raises(error, match=f"malformed {path}"):
        load(path)
    assert main(command + [str(path)]) == 2
    assert "error: malformed" in capsys.readouterr().err


def test_fingerprint_files(tmp_path, capsys):
    acc = tmp_path / "acc.json"
    save_acc(AndAcc(v=3, n=2, K=1, codewords=[0b011, 0b110]), acc)
    fp = tmp_path / "fp.txt"
    assert main(["attack", "--acc", str(acc), "--coalition", "1",
                 "--out", str(fp)]) == 0
    assert fp.read_text() == "110\n"
    assert main(["trace", "--acc", str(acc), "--fp-file", str(fp)]) == 0
    capsys.readouterr()
    for text in ("1x0\n", "110\n110\n", "\n"):
        fp.write_text(text)
        assert main(["trace", "--acc", str(acc), "--fp-file", str(fp)]) == 2
        assert f"error: malformed {fp}" in capsys.readouterr().err
