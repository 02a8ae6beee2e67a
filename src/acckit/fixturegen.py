"""Regenerate the fixture files shipped with the package.

Two fixtures are verbatim canonical data (the twelve-set family and the
matching twelve-row codebook).  The two constant-weight codes are search
outputs, regenerated deterministically:

* ``example3_inner_code.json`` comes from a cyclic search over Z_20
  (``CYCLIC_N``) for weight-5 blocks (``CYCLIC_W``) meeting in at most 2
  points (``CYCLIC_OVERLAP``): the four translates of {0,4,8,12,16} (step
  ``CYCLIC_STEP``) form a parallel class, and a fixed-order scan finds four
  base blocks whose twenty translates stay pairwise within that cap, giving
  84 words; the first 83 in ascending order are kept.  No randomness.
* ``example5_inner_code.json`` is the annealing searcher's output at its
  frozen seed ``CW21_SEED`` and budget ``CW21_BUDGET``.

Run as ``python -m acckit.fixturegen [--out-dir DIR]``.
"""

from __future__ import annotations

import argparse
import itertools
from pathlib import Path

from .codec import write_json
from .cwcodes import ConstantWeightCode, export_code, stochastic_search, verify_cw_code
from .presets import FIXTURE_DIR

EXAMPLE1_SETS = [
    [0, 3, 6], [0, 4, 8], [0, 5, 7], [1, 3, 8], [1, 4, 7], [1, 5, 6],
    [2, 3, 7], [2, 4, 6], [2, 5, 8], [0, 4, 7], [1, 5, 8], [2, 3, 6],
]

EXAMPLE2_ROWS = [
    [0, 0, 0], [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 1, 1], [1, 2, 0],
    [2, 0, 1], [2, 1, 0], [2, 2, 2], [0, 1, 1], [1, 2, 2], [2, 0, 0],
]

# Frozen search parameters for the 31-word weight-4 code.
CW21_SEED = 4
CW21_BUDGET = 300_000
# Frozen parameters of the cyclic search for the 83-word weight-5 code.
CYCLIC_N = 20
CYCLIC_W = 5
CYCLIC_OVERLAP = 2
CYCLIC_STEP = 4


def cyclic_weight5_code() -> list[int]:
    """Deterministic cyclic packing search over Z_n.

    Starts from the parallel class of translates of {0, step, 2*step, ...},
    collects all base blocks through 0 whose own translate overlaps stay
    within the cap and that fit the parallel class, and picks the first
    mutually compatible quadruple of orbits in scan order.
    """
    n, w, max_overlap, step = CYCLIC_N, CYCLIC_W, CYCLIC_OVERLAP, CYCLIC_STEP
    full = (1 << n) - 1

    def rot(mask: int, x: int) -> int:
        return ((mask << x) | (mask >> (n - x))) & full

    def block(points) -> int:
        m = 0
        for p in points:
            m |= 1 << p
        return m

    pclass = [block(range(j, n, step)) for j in range(step)]
    cands = []
    seen = set()
    for rest in itertools.combinations(range(1, n), w - 1):
        b = block((0,) + rest)
        if any((b & pc).bit_count() > max_overlap for pc in pclass):
            continue
        if any((b & rot(b, x)).bit_count() > max_overlap for x in range(1, n)):
            continue
        key = min(rot(b, x) for x in range(n))
        if key in seen:
            continue
        seen.add(key)
        cands.append(b)

    def compatible(a: int, b: int) -> bool:
        return all((a & rot(b, x)).bit_count() <= max_overlap for x in range(n))

    nc = len(cands)
    adj = [set() for _ in range(nc)]
    for i in range(nc):
        for j in range(i + 1, nc):
            if compatible(cands[i], cands[j]):
                adj[i].add(j)
                adj[j].add(i)

    def first_clique(size: int, pool: set[int]) -> tuple[int, ...] | None:
        """The lex-first `size` mutually compatible candidates in pool."""
        if size == 0:
            return ()
        for c in sorted(pool):
            rest = first_clique(size - 1, {x for x in pool & adj[c] if x > c})
            if rest is not None:
                return (c, *rest)
        return None

    quad = first_clique(4, set(range(nc)))
    if quad is None:
        raise RuntimeError("cyclic quadruple search failed")

    words = list(pclass)
    for idx in quad:
        words.extend(rot(cands[idx], x) for x in range(n))
    return sorted(words)


def build_cw_q20_n83() -> ConstantWeightCode:
    words = cyclic_weight5_code()
    code = ConstantWeightCode(q=20, w=5, d=6, words=words[:83])
    verdict = verify_cw_code(code)
    if not verdict.ok:
        raise RuntimeError(f"cyclic code failed verification: {verdict.reason}")
    return code


def build_cw_q21_n31() -> ConstantWeightCode:
    code = stochastic_search(21, 6, 4, 31, seed=CW21_SEED, budget=CW21_BUDGET)
    if code.N < 31:
        raise RuntimeError(f"frozen search only reached N={code.N}, expected 31")
    return code


def make_fixture_files(out_dir: Path | str = FIXTURE_DIR) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}

    fam_path = out_dir / "example1_family.json"
    write_json({"universe": {"v": 9, "product": {"m": 3, "q": 3}},
                "sets": EXAMPLE1_SETS}, fam_path)
    paths["example1_family"] = fam_path

    code_path = out_dir / "example2_code.json"
    write_json({"s": 3, "m": 3, "rows": EXAMPLE2_ROWS,
                "provenance": "imported"}, code_path)
    paths["example2_code"] = code_path

    cw20 = build_cw_q20_n83()
    p = out_dir / "example3_inner_code.json"
    export_code(cw20, p)
    paths["example3_inner_code"] = p

    cw21 = build_cw_q21_n31()
    p = out_dir / "example5_inner_code.json"
    export_code(cw21, p)
    paths["example5_inner_code"] = p
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the packaged fixture files")
    parser.add_argument("--out-dir", default=str(FIXTURE_DIR))
    args = parser.parse_args(argv)
    paths = make_fixture_files(args.out_dir)
    for name, path in sorted(paths.items()):
        print(f"wrote {name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
