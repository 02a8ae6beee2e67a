import hashlib
import json

import pytest

from acckit import families
from acckit.presets import (PRESETS, FixtureMissing, PresetError,
                            format_summary, run_preset)


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


def test_format_summary_compares_with_the_prior(preset_run):
    result, _, _ = preset_run("example3")
    assert ("  vs prior (249, 6889): larger n (+83), smaller v (-189); "
            "exceeds block-design bound: True"
            in format_summary(result.summary).splitlines())


def test_example4_certifies_without_the_block_bound(monkeypatch):
    # only example1 passes its output a product universe: example4's count
    # bound alone refutes all 357 targets, so the block bound never runs
    def no_block_bound(*args):
        raise AssertionError("the block bound ran")

    monkeypatch.setattr(families, "_block_refuted", no_block_bound)
    result = run_preset("example4")
    by_name = {e["name"]: e for e in result.summary["conditions"]}
    assert by_name["output family is K-CFF"]["result"]
    assert result.summary["certified"]


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


def test_example3_refuses_an_inner_family_over_a_longer_universe(tmp_path):
    # an 83-word inner code of length 21 gives v = 63, not the table's 60:
    # the preset refuses it rather than certify a code of other parameters
    from acckit.cwcodes import ConstantWeightCode, export_code, greedy_lexicode
    big = greedy_lexicode(21, 6, 5)  # reaches 85 words deterministically
    assert big.N >= 83
    code = ConstantWeightCode(21, 5, 6, big.words[:83])
    export_code(code, tmp_path / "example3_inner_code.json")
    with pytest.raises(PresetError,
                       match=r"example3 produced \(v, n, K\) = \(63, 6972, 2\), "
                             r"expected \(60, 6972, 2\)"):
        run_preset("example3", fixtures=tmp_path)


# sha256 of the three files `preset run NAME --json --out-dir DIR` writes;
# its stdout holds the summary file's bytes.  Any change to these bytes
# updates a pin here and says why in CHANGES.md.
PRESET_SHA256 = {
    "example1": {
        "acc": "010ce5872d0ee1a6ecfcae02c5f2ac663a789b538c284c4ec2675c5cb314bdd7",
        "certificate": "76f84711f41f1d3d769405ec1d0159715061af322860ae6d5b4595d5e3b4802c",
        "summary": "cf0adf39e787ca49796f217a93660591778cf2f20db5a0bf8ba49e9da3fd234b",
    },
    "example2": {
        "acc": "c12db2593f5b21df8193ab22417933bf39daea80bd1a016e24a36156da964c1a",
        "certificate": "66033ae01a16f6b1dccd459e823b471c32766667dc13d71a110324e20e723d08",
        "summary": "64b18e1b2aea31bbe573201ef422405335138600e626777b78f0f94a4ae49eff",
    },
    "example3": {
        "acc": "fb494088719f3222be428eda1f464d4ebeb44f535225a94c9c782a2a8802a922",
        "certificate": "b0ad64eb11866e33f72d4a1847ad92808a3083088a84418bcc99ab44843a14f4",
        "summary": "b8805146c0e61e0b7e8814c1d09f13ed7965a8a52742f1d0726721ecf5f42c10",
    },
    "example4": {
        "acc": "0a64bae1b17084bd95f308d42f03ce00b3da1ed831a9448e68b66173fd44275c",
        "certificate": "0c2fba1a93ea4327fc71475662d85b46c0292a0a58dce5058ee4c62367c310ac",
        "summary": "d18cb76770aee33c8437d46b8b3b3c4673bf3d0e514c5ee84d1bd176144c5780",
    },
    "example5": {
        "acc": "2cb66dd8e7157f2807704fadecba499f0a60ad890dc2cc6dfbf46a0d807bc245",
        "certificate": "7a062e4191bfaa550aadd92b63db37db53b42f46aceb89df70c097c8bc1424bc",
        "summary": "e9e8118b395a1767f24fdb0410580a2e8940ee8525430b8362331c80dd402126",
    },
    "example6": {
        "acc": "926d5a2f079e297b2fe21b103e415356413babe2ccb3ab05ffa82193d0586d34",
        "certificate": "c09843aa45a31d93d2d3a7e27b1060af05ea2e3ce34c6c05acbfd3448711dd11",
        "summary": "bfd99e0f6ebf3ddef357d1864b25ae4df3938af00776efa343675f4979da9435",
    },
}


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_preset_output_bytes_are_pinned(preset_run, name):
    # the run goes through the CLI with the greedy lexicode scan patched to
    # raise (see conftest), so it also shows that no preset needs the scan
    _, stdout, out_dir = preset_run(name)
    for kind, digest in PRESET_SHA256[name].items():
        data = (out_dir / f"{name}_{kind}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, kind
    assert stdout.encode() == (out_dir / f"{name}_summary.json").read_bytes()
