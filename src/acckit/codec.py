"""The one reader and writer of acckit's files; imports nothing from acckit.

JSON files are sorted-key and newline-terminated.  Line files hold one
record per nonblank line: a codebook row, a code word or a fingerprint.
Bitstrings put bit k of an integer mask at character k, and packed words
(`pack_masks`) at bit k % 64 of uint64 word k // 64 of its column; a
uint64 word splits into 32-bit halves low half first (`split_words`).  Both
readers pass the parsed file to `build` and raise every malformed-input
failure (bad JSON, a missing key, a wrong type, a non-integer number, or
what `build` rejects) as the caller's error class, naming the path.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np


def write_json(obj, path) -> None:
    """Write obj as sorted-key JSON followed by a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def write_lines(lines, path) -> None:
    """Write each string in `lines` followed by a newline."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def read_json(path, build, error):
    """build(the parsed JSON file at `path`)."""
    with open(path) as fh, _malformed(path, error):
        return build(json.load(fh))


def read_lines(path, build, error):
    """build(the nonblank lines of the file at `path`, stripped); a file
    without such a line is malformed."""
    with open(path) as fh, _malformed(path, error):
        lines = [text for line in fh if (text := line.strip())]
        if not lines:
            raise ValueError("no lines")
        return build(lines)


@contextmanager
def _malformed(path, error):
    try:
        yield
    except KeyError as exc:
        raise error(f"malformed {path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"malformed {path}: {exc}") from exc


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer, not a float, bool or string."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def text_int(token: str) -> int:
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer token: {token!r}")
    return int(token)


def json_list(value, name: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    return value


def json_ints(value, name: str) -> list[int]:
    return [json_int(x, f"{name} entry") for x in json_list(value, name)]


def bits_to_str(bits: int, length: int) -> str:
    """The low `length` bits of `bits`, bit k as character k."""
    if length == 0:
        return ""
    return format(bits & ((1 << length) - 1), f"0{length}b")[::-1]


def str_to_bits(text: str, length: int | None = None) -> int:
    """Inverse of bits_to_str.  Rejects anything but a 0/1 string and,
    when `length` is given, a string of any other length."""
    if type(text) is not str:
        raise ValueError(f"bitstring must be a string, got {text!r}")
    bad = set(text) - {"0", "1"}
    if bad:
        raise ValueError(f"invalid character {min(bad)!r} in bitstring {text!r}")
    if length is not None and len(text) != length:
        raise ValueError(f"bitstring {text!r} has length {len(text)}, "
                         f"expected {length}")
    return int(text[::-1], 2) if text else 0


def pack_masks(masks, v: int) -> np.ndarray:
    """C-contiguous (ceil(v / 64), len(masks)) uint64 columns: word w of
    column j holds bits 64w..64w+63 of masks[j].  Each word is written
    straight from one list, so packing holds the result and one list."""
    cols = np.empty((-(-v // 64), len(masks)), np.uint64)
    for w in range(len(cols)):
        cols[w] = [mask >> 64 * w & 0xFFFF_FFFF_FFFF_FFFF for mask in masks]
    return cols


def split_words(words) -> np.ndarray:
    """The 32-bit halves of the uint64 array `words`, low half first: a
    view of it where the host is little-endian."""
    return words.astype("<u8", copy=False).view("<u4")


def unpack_masks(cols) -> list[int]:
    """Inverse of pack_masks: the masks that (words, n) columns hold."""
    return [sum(word << 64 * w for w, word in enumerate(col))
            for col in cols.T.tolist()]
