import json

import pytest

from acckit.presets import (PRESETS, FixtureMissing, format_summary,
                            run_preset)


def test_registry_expectations():
    assert set(PRESETS) == {f"example{i}" for i in range(1, 7)}
    p = PRESETS["example4"]
    assert (p.expected_v, p.expected_n, p.K) == (49, 357, 3)
    assert PRESETS["example3"].prior == (249, 6889)


def test_example1(tmp_path):
    result = run_preset("example1", out_dir=tmp_path)
    assert (result.acc.v, result.acc.n, result.acc.K) == (9, 12, 2)
    s = result.summary
    assert s["certified"] and s["expected_attained"]
    by_name = {e["name"]: e for e in s["conditions"]}
    assert by_name["output equals the canonical twelve sets"]["result"]
    assert by_name["output family is K-UDF"]["result"]
    cff = by_name["output family is K-CFF"]
    assert not cff["result"] and not cff["required"]
    assert cff["witness"] == {"kind": "cover", "j2": [0, 4], "covered": 9}
    assert by_name["leading subfamily is K-CFF"]["result"]
    # artifacts written and loadable
    for suffix in ("acc", "certificate", "summary"):
        assert (tmp_path / f"example1_{suffix}.json").exists()
    saved = json.loads((tmp_path / "example1_summary.json").read_text())
    assert saved == s


def test_example2():
    result = run_preset("example2")
    s = result.summary
    by_name = {e["name"]: e for e in s["conditions"]}
    assert by_name["stacked array equals the canonical twelve rows"]["result"]
    assert by_name["minimum distance"]["params"]["d"] == 1
    assert not by_name["distance condition K(m-d) < m"]["result"]
    assert by_name["code is K-UD"]["result"]
    assert s["certified"]


def test_unknown_preset():
    from acckit.presets import PresetError
    with pytest.raises(PresetError):
        run_preset("example7")


def test_missing_fixture_message(tmp_path):
    with pytest.raises(FixtureMissing) as exc:
        run_preset("example1", fixtures=tmp_path)
    msg = str(exc.value)
    assert "example2_code.json" in msg and "fixturegen" in msg


def test_format_summary_smoke():
    result = run_preset("example2")
    text = format_summary(result.summary)
    assert "example2: (9, 12, 2) certified" in text
    assert "[FAIL] distance condition" in text


def test_outputs_deterministic(tmp_path):
    run_preset("example1", out_dir=tmp_path / "a")
    run_preset("example1", out_dir=tmp_path / "b")
    for name in ("example1_acc.json", "example1_certificate.json",
                 "example1_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_fixture_regeneration_matches_shipped_files(tmp_path):
    # the shipped fixtures are exactly what fixturegen writes, and a
    # preset runs from a regenerated copy
    from acckit.fixturegen import FIXTURE_DIR, make_fixture_files
    paths = make_fixture_files(tmp_path)
    assert len(paths) == 4
    for path in paths.values():
        assert path.read_bytes() == (FIXTURE_DIR / path.name).read_bytes()
    result = run_preset("example1", fixtures=tmp_path)
    assert result.summary["certified"]


def test_example3_fallback_inner_family(tmp_path):
    # if the committed inner family is replaced by one over a longer
    # universe, the pipeline still fully verifies and reports the larger v
    from acckit.cwcodes import ConstantWeightCode, export_code, greedy_lexicode
    big = greedy_lexicode(21, 6, 5)  # reaches 85 words deterministically
    assert big.N >= 83
    code = ConstantWeightCode(21, 5, 6, big.words[:83])
    export_code(code, tmp_path / "example3_inner_code.json")
    result = run_preset("example3", fixtures=tmp_path)
    assert (result.acc.v, result.acc.n, result.acc.K) == (63, 6972, 2)
    assert not result.summary["expected_attained"]
    assert any("instead of the nominal" in note
               for note in result.summary["notes"])
    by_name = {e["name"]: e for e in result.summary["conditions"]}
    assert by_name["output family is K-UDF"]["result"]
