import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from acckit import arrays, cli, cwcodes
from acckit.cli import main
from acckit.gf import GF

from _oracles import poly_field_add, poly_field_mul


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_elements(capsys):
    code, out, _ = run_cli(capsys, "field", "elements", "--field", "3^2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["elements"] == list(range(9))


# the scalar definitions of each field's addition and multiplication
FIELD_DEFINITIONS = {
    "3^2": (lambda a, b: poly_field_add(a, b, 3, 2),
            lambda a, b: poly_field_mul(a, b, 3, (1, 0, 1))),
    "521": (lambda a, b: (a + b) % 521, lambda a, b: a * b % 521),
}


@pytest.mark.parametrize("spec", sorted(FIELD_DEFINITIONS))
def test_field_table_matches_definitions(capsys, spec):
    code, out, _ = run_cli(capsys, "field", "table", "--field", spec, "--json")
    assert code == 0
    payload = json.loads(out)
    elems = range(payload["s"])
    for key, op in zip(("add", "mul"), FIELD_DEFINITIONS[spec]):
        assert payload[key] == [[op(a, b) for b in elems] for a in elems]


def test_field_bad_spec(capsys):
    code, _, err = run_cli(capsys, "field", "elements", "--field", "4")
    assert code == 2
    assert "error" in err


# every command that takes --field, on a prime p over 2^16 and on an
# exponent whose power alone would take minutes
FIELD_COMMANDS = {
    "field": ["field", "elements"],
    "field-table": ["field", "table"],
    "oa-build": ["oa", "build", "--t", "2", "--m", "3", "--out", "u.json"],
    "oa-lemma1": ["oa", "lemma1", "--t", "2", "--m", "3"],
    "scan-remark6": ["scan-remark6", "--t", "2", "--m", "3", "--K", "2"],
}


@pytest.mark.parametrize("spec", ["2305843009213693951", "2^3000000000"])
@pytest.mark.parametrize("command", sorted(FIELD_COMMANDS))
def test_oversized_field_specs_exit_2(tmp_path, monkeypatch, capsys, spec, command):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *FIELD_COMMANDS[command], "--field", spec)
    assert code == 2 and "2^16 cap" in err
    assert not (tmp_path / "u.json").exists()


CELL_CAP = f"past the cap of {cli.MAX_CELLS} cells"
# commands whose array alone would take 3.5 GiB or more, or whose scan
# would take a minute or more, each with the cap it names as it exits
OVERSIZED = [
    (["oa", "build", "--field", "83", "--t", "4", "--m", "10"], CELL_CAP),
    (["oa", "build", "--field", "65521", "--t", "2", "--m", "3"], CELL_CAP),
    (["oa", "lemma1", "--field", "65521", "--t", "2", "--m", "3"], CELL_CAP),
    (["field", "table", "--field", "65521"], CELL_CAP),
    (["oa", "lemma1", "--field", "251", "--t", "2", "--m", "3"],
     f"past the cap of {cli.MAX_PAIRS} row pairs"),
    (["cw", "gen", "--q", "64", "--d", "2", "--w", "32"],
     f"past the cap of {cwcodes.MAX_LEXICODE_CANDIDATES} candidates"),
    (["cw", "search", "--q", "60", "--d", "4", "--w", "30", "--target-n",
      "100000", "--budget", "10"],
     f"1..{cwcodes.MAX_SEARCH_POOL}, the cap on the pool"),
]


def _limit_address_space():
    # in the child only: 1 GiB, so an array the cap misses fails fast
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, cap", [
    pytest.param(argv, cap, id=" ".join(argv)) for argv, cap in OVERSIZED])
def test_oversized_arrays_exit_2_before_building(tmp_path, argv, cap):
    if argv[:2] == ["oa", "build"]:
        argv = [*argv, "--out", "u.json"]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "acckit.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=20,
                          preexec_fn=_limit_address_space)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 2, proc.stderr
    assert cap in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0
    assert not (tmp_path / "u.json").exists()


def test_array_cap_admits_w_over_gf1024(tmp_path, monkeypatch, capsys):
    # 1,049,600 rows x 3 = 3,148,800 cells is under the cap; the build
    # itself takes seconds, so a small W stands in for it
    built = []
    small = arrays.build_W(GF(3), 2, 3)

    def small_w(gf, t, m):
        built.append((gf.s, t, m))
        return small

    monkeypatch.setattr(arrays, "build_W", small_w)
    out = tmp_path / "w.json"
    code, _, _ = run_cli(capsys, "oa", "build", "--which", "W", "--t", "2",
                         "--m", "3", "--field", "2^10:1,0,0,1,0,0,0,0,0,0,1",
                         "--out", str(out))
    assert code == 0 and built == [(1024, 2, 3)] and out.exists()


def test_oa_build_check_distance(tmp_path, capsys):
    book = tmp_path / "u.json"
    code, out, _ = run_cli(capsys, "oa", "build", "--field", "7", "--t", "3",
                           "--m", "7", "--which", "U", "--out", str(book))
    assert code == 0 and "343 x 7" in out
    code, out, _ = run_cli(capsys, "oa", "check", "--book", str(book), "--t", "3")
    assert code == 0
    code, out, _ = run_cli(capsys, "oa", "distance", "--book", str(book), "--json")
    assert code == 0 and json.loads(out)["d"] == 5


def test_codebook_text_files_round_trip(tmp_path, capsys):
    # a path not ending in .json is written and read as text rows
    book = tmp_path / "u.txt"
    code, _, _ = run_cli(capsys, "oa", "build", "--field", "7", "--t", "3",
                         "--m", "7", "--which", "U", "--out", str(book))
    assert code == 0 and book.read_text().startswith("0 0 0 0 0 0 0\n")
    code, _, _ = run_cli(capsys, "oa", "check", "--book", str(book), "--t", "3")
    assert code == 0
    code, out, _ = run_cli(capsys, "oa", "distance", "--book", str(book), "--json")
    assert code == 0 and json.loads(out)["d"] == 5
    fam = tmp_path / "singletons.json"
    fam.write_text(json.dumps({"universe": {"v": 3, "product": None},
                               "sets": [[0], [1], [2]]}))
    w = tmp_path / "w.txt"
    run_cli(capsys, "oa", "build", "--field", "3", "--t", "2", "--m", "3",
            "--which", "W", "--out", str(w))
    code, _, _ = run_cli(capsys, "acc", "build-t1", "--code", str(w),
                         "--family", str(fam), "--K", "2",
                         "--out", str(tmp_path / "acc.json"))
    assert code == 0


def test_removed_format_and_method_flags(tmp_path):
    for argv in (["oa", "build", "--field", "3", "--t", "2", "--m", "3",
                  "--out", str(tmp_path / "u.txt"), "--format", "text"],
                 ["oa", "distance", "--book", str(tmp_path / "u.txt"),
                  "--method", "pairwise"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_codebook_without_coordinates_exit_2(tmp_path, capsys):
    book = tmp_path / "flat.json"
    book.write_text(json.dumps({"s": 3, "m": 0, "rows": [[], []]}))
    code, _, err = run_cli(capsys, "oa", "distance", "--book", str(book))
    assert code == 2 and "m >= 1" in err


def test_oa_check_failure_exit_code(tmp_path, capsys):
    book = tmp_path / "w.json"
    run_cli(capsys, "oa", "build", "--field", "3", "--t", "2", "--m", "3",
            "--which", "W", "--out", str(book))
    code, out, _ = run_cli(capsys, "oa", "check", "--book", str(book), "--t",
                           "2", "--json")
    assert code == 1
    assert json.loads(out)["ok"] is False
    # s = 3000, so s^3 = 2.7e10 codes: a counter per code would need 201 GiB
    book = tmp_path / "big.txt"
    book.write_text("1 2 3\n2999 2999 2999\n")
    code, out, _ = run_cli(capsys, "oa", "check", "--book", str(book), "--t",
                           "3", "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "strength": 3, "columns": [0, 1, 2],
                               "symbols": [0, 0, 0], "count": 0}


def test_oa_lemma1(capsys):
    code, out, _ = run_cli(capsys, "oa", "lemma1", "--field", "5", "--t", "2",
                           "--m", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_uu"] <= 1 and payload["ok"]


def test_cw_pipeline(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    # d = 6, w = 4 keeps overlaps at 1, so the family is 2-cover-free and
    # in particular union-distinct
    code, _, _ = run_cli(capsys, "cw", "gen", "--q", "10", "--d", "6", "--w",
                         "4", "--out", str(out_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "cw", "verify", "--code", str(out_file),
                           "--json")
    assert code == 0 and json.loads(out)["ok"]
    fam_file = tmp_path / "fam.json"
    code, _, _ = run_cli(capsys, "cw", "to-family", "--code", str(out_file),
                         "--out", str(fam_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "family", "verify", "--family",
                           str(fam_file), "--prop", "udf", "--K", "2", "--json")
    assert code == 0 and json.loads(out)["ok"]


def test_cw_verify_invalid_code_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 4, "w": 2, "d": 4,
                               "words": ["1100", "1010"]}))
    code, out, _ = run_cli(capsys, "cw", "verify", "--code", str(bad))
    assert code == 1
    assert json.loads(out.splitlines()[0])["ok"] is False


def test_cw_verify_malformed_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "cw", "verify", "--code", str(bad))
    assert code == 2 and "error" in err


def test_cw_verify_rejects_short_json_words(tmp_path, capsys):
    from acckit.cwcodes import CodeError, import_code
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"q": 6, "w": 2, "d": 4,
                                 "words": ["11000", "0011"]}))
    with pytest.raises(CodeError):
        import_code(short, verify=False)
    code, _, err = run_cli(capsys, "cw", "verify", "--code", str(short))
    assert code == 2 and "error" in err


def test_threads_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["preset", "run", "example1", "--threads", "2"])
    assert exc.value.code == 2


def test_cw_search(capsys):
    code, out, _ = run_cli(capsys, "cw", "search", "--q", "4", "--d", "2",
                           "--w", "2", "--target-n", "6", "--seed", "3",
                           "--budget", "5000", "--json")
    assert code == 0
    assert json.loads(out)["reached"] is True


def test_family_verify_failure_prints_witness(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({
        "universe": {"v": 4, "product": None},
        "sets": [[0, 1], [2], [0, 1]],
    }))
    code, out, _ = run_cli(capsys, "family", "verify", "--family", str(fam),
                           "--prop", "udf", "--K", "1")
    assert code == 1
    witness = json.loads(out.splitlines()[-1])
    assert witness["kind"] == "duplicate-union"


def test_family_verify_subfamily_and_sampled(tmp_path, capsys):
    from acckit.fixturegen import EXAMPLE1_SETS
    fam = tmp_path / "ex1.json"
    fam.write_text(json.dumps({
        "universe": {"v": 9, "product": {"m": 3, "q": 3}},
        "sets": EXAMPLE1_SETS,
    }))
    code, _, _ = run_cli(capsys, "family", "verify", "--family", str(fam),
                         "--prop", "cff", "--K", "2", "--subfamily", "0-8")
    assert code == 0
    code, _, _ = run_cli(capsys, "family", "verify", "--family", str(fam),
                         "--prop", "cff", "--K", "2")
    assert code == 1
    code, out, _ = run_cli(capsys, "family", "verify", "--family", str(fam),
                           "--prop", "udf", "--K", "2", "--mode", "sampled",
                           "--trials", "500", "--seed", "1", "--json")
    assert code == 0 and json.loads(out)["trials"] == 500
    # acc verify shares the body: a sampled failure prints its witness
    acc = tmp_path / "ex1_acc.json"
    acc.write_text(json.dumps({"v": 9, "n": 12, "K": 2, "codewords": [
        "".join("0" if k in s else "1" for k in range(9))
        for s in EXAMPLE1_SETS]}))
    code, out, _ = run_cli(capsys, "acc", "verify", "--acc", str(acc),
                           "--prop", "cff", "--mode", "sampled",
                           "--trials", "3000", "--seed", "0")
    assert code == 1
    assert json.loads(out.splitlines()[-1])["kind"] == "cover"


def test_acc_verify_sampled_rejects_seeds_outside_64_bits(tmp_path, capsys):
    # -1 would otherwise draw a stream of its own, or -5 the one of 5
    from acckit.fixturegen import EXAMPLE1_SETS
    acc = tmp_path / "ex1_acc.json"
    acc.write_text(json.dumps({"v": 9, "n": 12, "K": 2, "codewords": [
        "".join("0" if k in s else "1" for k in range(9))
        for s in EXAMPLE1_SETS]}))
    for seed in ("-1", str(2**64)):
        code, out, err = run_cli(capsys, "acc", "verify", "--acc", str(acc),
                                 "--prop", "udf", "--mode", "sampled",
                                 "--trials", "100", "--seed", seed)
        assert code == 2 and out == "" and "seed must lie in" in err, seed


def test_family_verify_rejects_bad_subfamily(tmp_path, capsys):
    from acckit.fixturegen import EXAMPLE1_SETS
    fam = tmp_path / "ex1.json"
    fam.write_text(json.dumps({"universe": {"v": 9, "product": None},
                               "sets": EXAMPLE1_SETS}))
    for spec, message in (("0,99", "subfamily"), ("0,0", "subfamily"),
                          ("0-3,2", "subfamily"), ("0,5-2", "backwards")):
        code, out, err = run_cli(capsys, "family", "verify", "--family",
                                 str(fam), "--prop", "cff", "--K", "2",
                                 "--subfamily", spec)
        assert code == 2 and out == "" and message in err, spec


def test_acc_roundtrip_via_cli(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "preset", "run", "example1", "--out-dir",
                         str(tmp_path))
    assert code == 0
    acc = str(tmp_path / "example1_acc.json")

    code, _, _ = run_cli(capsys, "acc", "verify", "--acc", acc, "--prop",
                         "udf", "--K", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "acc", "verify", "--acc", acc, "--prop",
                           "cff", "--K", "2")
    assert code == 1
    assert json.loads(out.splitlines()[-1])["kind"] == "cover"

    code, out, _ = run_cli(capsys, "attack", "--acc", acc, "--coalition",
                           "2,5", "--json")
    assert code == 0
    fp = json.loads(out)["fingerprint"]
    code, out, _ = run_cli(capsys, "trace", "--acc", acc, "--fp", fp, "--json")
    assert code == 0
    assert json.loads(out)["users"] == [2, 5]

    code, out, _ = run_cli(capsys, "trace", "--acc", acc, "--fp",
                           "1" * 9, "--json")
    assert code == 1
    assert "no coalition" in json.loads(out)["reason"]

    code, out, _ = run_cli(capsys, "acc", "compare", "--acc", acc,
                           "--prior-v", "9", "--prior-n", "11", "--json")
    assert code == 0
    assert json.loads(out)["delta_n"] == 1
    for v, n in (("-1", "0"), ("0", "5"), ("9", "0")):
        code, out, err = run_cli(capsys, "acc", "compare", "--acc", acc,
                                 "--prior-v", v, "--prior-n", n, "--json")
        assert code == 2 and out == "" and "prior" in err, (v, n)


def test_acc_build_t1_via_cli(tmp_path, capsys):
    fam = tmp_path / "singletons.json"
    fam.write_text(json.dumps({"universe": {"v": 3, "product": None},
                               "sets": [[0], [1], [2]]}))
    book = tmp_path / "w.json"
    run_cli(capsys, "oa", "build", "--field", "3", "--t", "2", "--m", "3",
            "--which", "W", "--out", str(book))
    out_acc = tmp_path / "acc.json"
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "acc", "build-t1", "--code", str(book),
                         "--family", str(fam), "--K", "2", "--mode",
                         "structural", "--out", str(out_acc),
                         "--cert-out", str(cert))
    assert code == 0
    assert json.loads(cert.read_text())["certified"] is True
    payload = json.loads(out_acc.read_text())
    assert payload["v"] == 9 and payload["n"] == 12


def test_acc_build_refusal_exit_1(tmp_path, capsys):
    fam = tmp_path / "dups.json"
    fam.write_text(json.dumps({"universe": {"v": 3, "product": None},
                               "sets": [[0], [0], [1]]}))
    book = tmp_path / "w.json"
    run_cli(capsys, "oa", "build", "--field", "3", "--t", "2", "--m", "3",
            "--which", "W", "--out", str(book))
    code, out, _ = run_cli(capsys, "acc", "build-t1", "--code", str(book),
                           "--family", str(fam), "--K", "2", "--out",
                           str(tmp_path / "x.json"))
    assert code == 1
    assert json.loads(out)["certified"] is False


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_forged_u_tag_gets_no_distance_shortcut(tmp_path, capsys):
    # not linear: rows 1 and 2 differ in one coordinate, though the minimum
    # nonzero weight is 2
    book = _write(tmp_path / "u.json", {
        "s": 3, "m": 3, "provenance": "U", "t": 2,
        "rows": [[0, 0, 0], [1, 1, 0], [1, 1, 1], [2, 2, 2], [0, 1, 2]]})
    code, out, _ = run_cli(capsys, "oa", "distance", "--book", book)
    assert code == 0 and out.strip() == "minimum distance: 1"
    # with d = 2 the distance condition would hold and the output, which is
    # not 2-cover-free, would be certified
    f = _write(tmp_path / "f.json", {"universe": {"v": 4, "product": None},
                                     "sets": [[0], [1], [2]]})
    g = _write(tmp_path / "g.json", {"universe": {"v": 4, "product": None},
                                     "sets": [[3]]})
    out_acc = tmp_path / "acc.json"
    code, out, _ = run_cli(capsys, "acc", "build-t2", "--code", book,
                           "--family-f", f, "--family-g", g, "--K", "2",
                           "--out", str(out_acc))
    assert code == 1 and not out_acc.exists()
    cert = json.loads(out)
    assert cert["certified"] is False
    entry, = [e for e in cert["entries"] if e["name"].startswith("distance")]
    assert entry["result"] is False and entry["params"]["d"] == 1


def test_forged_w_tag_gets_no_structural_certificate(tmp_path, capsys):
    # {row 0, row 1} and {row 2, row 3} have the same coordinate unions
    book = _write(tmp_path / "w.json", {
        "s": 3, "m": 3, "provenance": "W", "t": 2,
        "rows": [[0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 1]]})
    fam = _write(tmp_path / "f.json", {"universe": {"v": 3, "product": None},
                                       "sets": [[0], [1], [2]]})
    out_acc = tmp_path / "acc.json"
    code, out, _ = run_cli(capsys, "acc", "build-t1", "--code", book,
                           "--family", fam, "--K", "2", "--mode", "structural",
                           "--out", str(out_acc))
    assert code == 1 and not out_acc.exists()
    cert = json.loads(out)
    assert cert["certified"] is False
    entry, = [e for e in cert["entries"] if e["name"] == "code is K-UD"]
    assert entry["mode"] == "exhaustive" and entry["result"] is False


def test_scan_cli(capsys):
    code, out, _ = run_cli(capsys, "scan-remark6", "--field", "5", "--t", "2",
                           "--m", "5", "--K", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["note"] == "empirical; conjecture unproven"


def test_preset_list(capsys):
    code, out, _ = run_cli(capsys, "preset", "list", "--json")
    assert code == 0
    assert set(json.loads(out)) == {f"example{i}" for i in range(1, 7)}


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "oa", "check", "--book", "/nonexistent.json",
                           "--t", "2")
    assert code == 2


def test_json_output_deterministic(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "preset", "run", "example2", "--json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_attack_rejects_user_numbers_outside_range(tmp_path, capsys):
    run_cli(capsys, "preset", "run", "example1", "--out-dir", str(tmp_path))
    acc = str(tmp_path / "example1_acc.json")
    for spec in ("0", "13", "2,13"):
        code, out, err = run_cli(capsys, "attack", "--acc", acc,
                                 "--coalition", spec)
        assert code == 2 and out == "", spec
        assert "user numbers must lie in 1..12" in err, spec
    code, _, _ = run_cli(capsys, "attack", "--acc", acc, "--coalition", "1,12")
    assert code == 0


def test_sampled_modes_reject_nonpositive_trials(tmp_path, capsys):
    run_cli(capsys, "preset", "run", "example1", "--out-dir", str(tmp_path))
    acc = str(tmp_path / "example1_acc.json")
    for prop in ("udf", "cff"):
        for trials in ("-5", "0"):
            code, out, err = run_cli(capsys, "acc", "verify", "--acc", acc,
                                     "--prop", prop, "--mode", "sampled",
                                     "--trials", trials, "--json")
            assert code == 2 and out == "" and "trials" in err, (prop, trials)
    code, out, err = run_cli(capsys, "scan-remark6", "--field", "7", "--t", "3",
                             "--m", "7", "--K", "3", "--mode", "sampled",
                             "--trials", "0", "--json")
    assert code == 2 and out == "" and "trials" in err


def test_family_verify_sampled_cff_with_k_at_least_n(tmp_path, capsys):
    fam = tmp_path / "two.json"
    fam.write_text(json.dumps({"universe": {"v": 3, "product": None},
                               "sets": [[0], [1]]}))
    code, out, _ = run_cli(capsys, "family", "verify", "--family", str(fam),
                           "--prop", "cff", "--K", "2", "--mode", "sampled",
                           "--trials", "100", "--json")
    assert code == 0
    assert json.loads(out)["trials"] == 100


def test_sampled_json_names_the_sampler(capsys):
    code, out, _ = run_cli(capsys, "scan-remark6", "--field", "7", "--t", "3",
                           "--m", "7", "--K", "3", "--mode", "sampled",
                           "--trials", "100", "--json")
    assert code in (0, 1)
    assert json.loads(out)["sampler"] == "batched-v2"


def test_cached_parser_leaks_nothing_between_calls(tmp_path, capsys):
    run_cli(capsys, "preset", "run", "example1", "--out-dir", str(tmp_path))
    verify = ["acc", "verify", "--acc", str(tmp_path / "example1_acc.json"),
              "--prop", "udf", "--K", "2", "--mode", "sampled", "--trials",
              "50"]
    calls = [["preset", "list", "--json"], ["preset", "list"],
             [*verify, "--seed", "5", "--json"], [*verify, "--json"],
             [*verify, "--seed", "5"], verify,
             ["oa", "check", "--book", "/nonexistent.json", "--t", "2"]]

    def outcome(argv, fresh):
        if fresh:
            cli.build_parser.cache_clear()
        code = main(argv)
        return code, capsys.readouterr().out

    want = [outcome(argv, fresh=True) for argv in calls]
    got = [outcome(argv, fresh=False) for argv in calls]
    assert got == want
    assert cli.build_parser() is cli.build_parser()
    seeds = [json.loads(out)["seed"] for _, out in want[2:4]]
    assert seeds == [5, 0]


def test_acc_verify_product_never_changes_the_verdict(preset_run, capsys,
                                                      monkeypatch):
    # ACC files record no product; --product M,Q supplies one, which brings
    # cff to the block bound and udf to the heavy-row route.  Both are exact
    # for any partition, so the JSON is the same with or without one.
    import acckit.families as fam_mod
    accs = {name: str(preset_run(name)[2] / f"{name}_acc.json")
            for name in ("example3", "example4")}
    fields_of, routed = fam_mod._product_fields, []

    def spy(words, product):
        fields = fields_of(words, product)
        routed.append((product, fields is not None))
        return fields

    monkeypatch.setattr(fam_mod, "_product_fields", spy)
    for name, prop, checked, products in (
            ("example4", "cff", 2_684_627_862, ["7,7"]),
            ("example3", "udf", 24_307_878, ["3,20", "6,10"])):
        acc = accs[name]
        verify = ["acc", "verify", "--acc", acc, "--prop", prop, "--K",
                  "3" if prop == "cff" else "2", "--json"]
        runs = [run_cli(capsys, *verify, *extra) for extra in
                ([], *(["--product", p] for p in products))]
        assert runs == [(0, runs[0][1], "")] * len(runs)
        assert json.loads(runs[0][1]) == {"ok": True, "checked": checked}
    # 6 x 10 splits example3's fields in halves, which the route declines
    assert routed == [(None, False), ((3, 20), True), ((6, 10), False)]
    for spec, message in (("4,4", "does not match v=60"), ("3", "M,Q")):
        code, out, err = run_cli(capsys, "acc", "verify", "--acc", acc,
                                 "--prop", "udf", "--K", "2", "--product", spec)
        assert code == 2 and out == "" and message in err, spec
