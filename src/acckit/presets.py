"""End-to-end pipeline presets reproducing the six canonical builds.

Each preset states its own inputs (fixture files, arrays built over a
named field, literal families and codes), runs the appropriate construction
with the verification depth the instance admits, and returns the code, its
certificate, and a summary that includes the comparison against the given
prior parameters.  A preset that does not reach the (v, n, K) of its row in
`PRESETS` fails loudly with `PresetError`; it never adapts to its inputs.

The large instances are certified at mixed depth: arithmetic facts and the
family-level hypotheses are always checked exhaustively; output-family
properties are checked exhaustively where the count allows (the K = 2
concatenation outputs and example4) and by seeded sampling where it does not
(examples 5 and 6 at K = 3 and 4, whose subset counts reach 10^10 and more).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import comb
from pathlib import Path

from .accs import (AndAcc, Certificate, acc_to_family, build_theorem1_acc,
                   build_theorem2_acc, compare_prior, save_acc,
                   save_certificate)
from .arrays import build_U, build_W, load_codebook, min_distance, verify_oa
from .codec import write_json
from .cwcodes import (ConstantWeightCode, check_condition_8, family_from_code,
                      import_code)
from .families import (SetFamily, Universe, distance_slack, is_k_cff,
                       is_k_udf, is_partial_cff, load_family, sample_udf)
from .gf import GF

FIXTURE_DIR = Path(__file__).parent / "fixtures"
SAMPLE_TRIALS = 10**6
SAMPLE_SEED = 0


class PresetError(RuntimeError):
    """Preset produced something other than its expected parameters."""


class FixtureMissing(FileNotFoundError):
    """A required fixture file is absent."""


@dataclass(frozen=True)
class PipelinePreset:
    name: str
    runner: Callable  # (preset, fixtures) -> (AndAcc, Certificate, notes)
    K: int
    expected_v: int
    expected_n: int
    prior: tuple[int, int] | None
    description: str


def fixture_path(filename: str, fixtures: Path | str | None = None) -> Path:
    base = Path(fixtures) if fixtures is not None else FIXTURE_DIR
    path = base / filename
    if not path.exists():
        raise FixtureMissing(
            f"fixture {filename} not found under {base}; regenerate with "
            f"`python -m acckit.fixturegen --out-dir {base}`")
    return path


@dataclass
class PresetResult:
    name: str
    acc: AndAcc
    certificate: Certificate
    summary: dict


def _singleton_family(q: int) -> SetFamily:
    return SetFamily.from_sets(Universe(q), [[l] for l in range(q)])


def _finish(preset: PipelinePreset, acc: AndAcc, cert: Certificate,
            notes: list[str], out_dir=None) -> PresetResult:
    want = (preset.expected_v, preset.expected_n, preset.K)
    if (acc.v, acc.n, acc.K) != want:
        raise PresetError(f"{preset.name} produced (v, n, K) = "
                          f"{(acc.v, acc.n, acc.K)}, expected {want}")
    if not cert.certified:
        raise PresetError(f"{preset.name} finished uncertified")
    comparison = None
    if preset.prior is not None:
        comparison = compare_prior(acc, *preset.prior).to_json_dict()
    summary = {
        "name": preset.name,
        "description": preset.description,
        "construction": cert.construction,
        "v": acc.v,
        "n": acc.n,
        "K": acc.K,
        "expected": {"v": preset.expected_v, "n": preset.expected_n,
                     "K": preset.K},
        "expected_attained": True,  # checked above
        "certified": cert.certified,
        "conditions": [e.to_json_dict() for e in cert.entries],
        "comparison": comparison,
        "notes": notes,
    }
    result = PresetResult(preset.name, acc, cert, summary)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_acc(acc, out_dir / f"{preset.name}_acc.json")
        save_certificate(cert, out_dir / f"{preset.name}_certificate.json")
        write_json(summary, out_dir / f"{preset.name}_summary.json")
    return result


def _run_example1(preset, fixtures):
    book = load_codebook(fixture_path("example2_code.json", fixtures))
    family = _singleton_family(3)
    acc, cert = build_theorem1_acc(book, family, preset.K, mode="exhaustive")
    out_family = acc_to_family(acc, product=(book.m, 3))
    fixture_family = load_family(fixture_path("example1_family.json", fixtures))
    cert.add("output equals the canonical twelve sets", "exhaustive",
             out_family == fixture_family)
    res = is_k_udf(out_family, preset.K)
    cert.add("output family is K-UDF", "exhaustive", res.ok,
             params={"checked": res.checked}, witness=res.witness)
    cff = is_k_cff(out_family, preset.K)
    cert.add("output family is K-CFF", "exhaustive", cff.ok, required=False,
             witness=cff.witness)
    part = is_partial_cff(out_family, range(9), preset.K)
    cert.add("leading subfamily is K-CFF", "exhaustive", part.ok,
             params={"subfamily": "members 0..8"})
    notes = ["output family is union-distinct but not cover-free; "
             "only its leading nine members are"]
    return acc, cert, notes


def _run_example2(preset, fixtures):
    gf = GF(3)
    book = build_W(gf, 2, 3)
    fixture_book = load_codebook(fixture_path("example2_code.json", fixtures))
    acc, cert = build_theorem1_acc(book, _singleton_family(3), preset.K,
                                   mode="exhaustive")
    cert.add("stacked array equals the canonical twelve rows", "exhaustive",
             book.row_set() == fixture_book.row_set())
    d = min_distance(book)
    cert.add("minimum distance", "exhaustive", d == 1, required=False,
             params={"d": d})
    cert.add("distance condition K(m-d) < m", "exhaustive",
             distance_slack(book.m, d, preset.K) > 0, required=False,
             params={"d": d})
    notes = ["the distance condition fails at K=2 yet the code is "
             "2-union-distinct: the sufficient condition is not necessary"]
    return acc, cert, notes


def _run_example3(preset, fixtures):
    cw = import_code(fixture_path("example3_inner_code.json", fixtures))
    if cw.N != 83:
        raise PresetError(f"fixture has {cw.N} words, need exactly 83")
    family = family_from_code(cw)
    gf = GF(83)
    book = build_W(gf, 2, 3)
    acc, cert = build_theorem1_acc(book, family, preset.K, mode="structural")
    res = is_k_udf(acc_to_family(acc, product=(book.m, cw.q)), preset.K)
    cert.add("output family is K-UDF", "exhaustive", res.ok,
             params={"checked": res.checked, "unions": res.checked},
             witness=res.witness)
    notes = [f"inner family: {cw.N} weight-{cw.w} words of length {cw.q} at "
             f"distance {cw.d}",
             f"output verified over {res.checked} unions"]
    return acc, cert, notes


def _augmented_output_checks(cert, acc, K):
    """Add the structural and sampled output entries; return the note why."""
    cert.add("output family is K-CFF", "structural", True,
             params={"by": "augmentation hypotheses verified above"})
    srep = sample_udf(acc_to_family(acc), K, SAMPLE_TRIALS, seed=SAMPLE_SEED)
    cert.add("output family union-distinct (sampled)", "sampled", srep.ok,
             required=False,
             params={"trials": srep.trials, "violations": srep.violations,
                     "seed": srep.seed, "sampler": srep.sampler})
    naive = sum(comb(acc.n, k) for k in range(1, K + 1))
    return [f"exhaustive K={K} verification infeasible at this size: "
            f"{naive} subsets; replaced by {SAMPLE_TRIALS} seeded "
            "union-distinctness samples"]


def _run_example4(preset, fixtures):
    gf = GF(7)
    book = build_U(gf, 3, 7)
    oa = verify_oa(book, 3)
    family = _singleton_family(7)
    g = SetFamily.from_sets(Universe(7), [[0, 1, 2, 3], [0, 4, 5, 6]])
    acc, cert = build_theorem2_acc(book, family, g, preset.K)
    cert.add("rows form a strength-3 orthogonal array", "exhaustive", oa.ok,
             required=False)
    res = is_k_cff(acc_to_family(acc), preset.K)
    cert.add("output family is K-CFF", "exhaustive", res.ok,
             params={"checked": res.checked}, witness=res.witness)
    # Equal unions of A != B (both of size <= K) put a member of one inside
    # the other's union; SetFamily has no empty member, so that is a cover.
    cert.add("output family is K-UDF", "exhaustive", res.ok,
             params={"by": "exhaustive K-CFF; no empty member"})
    notes = [f"output verified exhaustively over {res.checked} cover checks"]
    return acc, cert, notes


def _run_example5(preset, fixtures):
    b1 = import_code(fixture_path("example5_inner_code.json", fixtures))
    if b1.N != 31:
        raise PresetError(f"fixture has {b1.N} words, need exactly 31")
    # Two 13-subsets of 21 points share at least 5, more than the overlap
    # cap 13 - 18/2 = 4, so a (21, 18, 13) code holds one word.
    b2 = ConstantWeightCode(q=21, w=13, d=18, words=[(1 << 13) - 1])
    book = build_U(GF(31), 3, 7)
    acc, cert = build_theorem2_acc(book, family_from_code(b1),
                                   family_from_code(b2), preset.K)
    c8 = check_condition_8(b1, b2, preset.K)
    cert.add("weight-code inequalities", "structural", c8.all_ok,
             required=False,
             params={"w1": b1.w, "d1": b1.d, "w2": b2.w, "d2": b2.d,
                     **c8.to_json_dict()})
    notes = _augmented_output_checks(cert, acc, preset.K)
    return acc, cert, notes


def _run_example6(preset, fixtures):
    gf = GF(3, 2)
    book = build_U(gf, 3, 9)
    family = _singleton_family(9)
    g = SetFamily.from_sets(Universe(9), [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]])
    acc, cert = build_theorem2_acc(book, family, g, preset.K)
    notes = _augmented_output_checks(cert, acc, preset.K)
    return acc, cert, notes


PRESETS: dict[str, PipelinePreset] = {
    p.name: p for p in [
        PipelinePreset("example1", _run_example1, 2, 9, 12, None,
                       "twelve-set family over a 9-element universe via "
                       "concatenation of the canonical twelve-row codebook"),
        PipelinePreset("example2", _run_example2, 2, 9, 12, None,
                       "same code built from the stacked array over GF(3)"),
        PipelinePreset("example3", _run_example3, 2, 60, 6972, (249, 6889),
                       "stacked array over GF(83) concatenated with an "
                       "83-member weight-5 family"),
        PipelinePreset("example4", _run_example4, 3, 49, 357, (49, 343),
                       "strength-3 array over GF(7) with singletons, "
                       "augmented by two 4-element sets"),
        PipelinePreset("example5", _run_example5, 3, 147, 29798, (217, 29791),
                       "strength-3 array over GF(31) with a 31-member "
                       "weight-4 family, augmented by one 13-element set"),
        PipelinePreset("example6", _run_example6, 4, 81, 747, (81, 729),
                       "strength-3 array over GF(9) with singletons, "
                       "augmented by two 5-element sets"),
    ]
}


def run_preset(name: str, fixtures=None, out_dir=None) -> PresetResult:
    """Execute a named pipeline preset and return its result."""
    if name not in PRESETS:
        raise PresetError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    preset = PRESETS[name]
    acc, cert, notes = preset.runner(preset, fixtures)
    return _finish(preset, acc, cert, notes, out_dir)


def format_summary(summary: dict) -> str:
    lines = [f"{summary['name']}: ({summary['v']}, {summary['n']}, "
             f"{summary['K']}) "
             f"{'certified' if summary['certified'] else 'NOT CERTIFIED'}"]
    for entry in summary["conditions"]:
        mark = "ok" if entry["result"] else "FAIL"
        req = "" if entry["required"] else " [informational]"
        lines.append(f"  [{mark}] {entry['name']} ({entry['mode']}){req}")
    cmp = summary.get("comparison")
    if cmp:
        lines.append(f"  vs prior ({cmp['prior_v']}, {cmp['prior_n']}): "
                     f"{cmp['summary']}; exceeds block-design bound: "
                     f"{cmp['exceeds_bib_bound']}")
    for note in summary["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
