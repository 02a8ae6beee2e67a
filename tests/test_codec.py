import json

import pytest

from acckit.codec import bits_to_str, str_to_bits, write_json


def test_bitstring_roundtrip():
    assert bits_to_str(0b1101, 6) == "101100"
    assert str_to_bits("101100") == 0b1101
    assert str_to_bits("101100", 6) == 0b1101
    assert bits_to_str(0, 0) == "" and str_to_bits("") == 0
    for bits in (0, 1, 2**70 - 1, 0x5A5A5A5A5A5A5A5A5A):
        assert str_to_bits(bits_to_str(bits, 72), 72) == bits


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
