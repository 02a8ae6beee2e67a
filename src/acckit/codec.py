"""On-disk encodings shared by every module: the JSON writer and the 0/1
bitstring codec.  Imports nothing from acckit, so any module can use it.

Bitstrings put bit k of an integer mask at character k.  The decoder
raises ValueError; each loader rewraps it in its own error class.
"""

from __future__ import annotations

import json


def write_json(obj, path) -> None:
    """Write obj as sorted-key JSON followed by a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def bits_to_str(bits: int, length: int) -> str:
    """The low `length` bits of `bits`, bit k as character k."""
    if length == 0:
        return ""
    return format(bits & ((1 << length) - 1), f"0{length}b")[::-1]


def str_to_bits(text: str, length: int | None = None) -> int:
    """Inverse of bits_to_str.  Rejects characters other than 0/1 and,
    when `length` is given, a string of any other length."""
    bad = set(text) - {"0", "1"}
    if bad:
        raise ValueError(f"invalid character {min(bad)!r} in bitstring {text!r}")
    if length is not None and len(text) != length:
        raise ValueError(f"bitstring {text!r} has length {len(text)}, "
                         f"expected {length}")
    return int(text[::-1], 2) if text else 0
