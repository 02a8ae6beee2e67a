import contextlib
import io

import numpy as np
import pytest
from hypothesis import settings

from acckit import cli, cwcodes, presets
from acckit.arrays import CodeBook
from acckit.families import SetFamily, Universe

# Property tests are deterministic and bounded: a fixed derivation of the
# examples from each test's source, no per-example deadline, and a few
# hundred examples at most.
settings.register_profile("acckit", derandomize=True, deadline=None,
                          max_examples=200)
settings.load_profile("acckit")
# The same at ten times the examples, for long differential runs outside
# tier-1: pytest --hypothesis-profile=acckit-deep ...
settings.register_profile("acckit-deep", settings.get_profile("acckit"),
                          max_examples=2000)

# The canonical twelve-row codebook and its twelve-set family, in matching
# order (flattened element (i, l) -> (i-1)*3 + l).
EXAMPLE2_ROWS = [
    (0, 0, 0), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1), (1, 2, 0),
    (2, 0, 1), (2, 1, 0), (2, 2, 2), (0, 1, 1), (1, 2, 2), (2, 0, 0),
]

EXAMPLE1_SETS = [
    [0, 3, 6], [0, 4, 8], [0, 5, 7], [1, 3, 8], [1, 4, 7], [1, 5, 6],
    [2, 3, 7], [2, 4, 6], [2, 5, 8], [0, 4, 7], [1, 5, 8], [2, 3, 6],
]


@pytest.fixture
def example2_book() -> CodeBook:
    return CodeBook(s=3, m=3, rows=np.array(EXAMPLE2_ROWS))


@pytest.fixture
def example1_family() -> SetFamily:
    return SetFamily.from_sets(Universe(9, (3, 3)), EXAMPLE1_SETS)


@pytest.fixture
def singleton_family3() -> SetFamily:
    return SetFamily.from_sets(Universe(3), [[l] for l in range(3)])


def _no_lexicode_scan(*args, **kwargs):
    raise AssertionError("a preset ran the greedy lexicode scan")


@pytest.fixture(scope="session")
def preset_run(tmp_path_factory):
    """`acckit preset run NAME --json --out-dir DIR` in process, once per
    preset and session: returns (PresetResult, stdout, DIR).  The greedy
    lexicode scan raises during the run, since every preset states its
    codes."""
    runs = {}

    def run(name):
        if name not in runs:
            out_dir = tmp_path_factory.mktemp(name)
            results = []
            real_run = presets.run_preset

            def recording_run(*args, **kwargs):
                results.append(real_run(*args, **kwargs))
                return results[-1]

            with pytest.MonkeyPatch.context() as mp, \
                    contextlib.redirect_stdout(io.StringIO()) as stdout:
                # the scan, and any name the presets module binds it to
                for module in (cwcodes, presets):
                    mp.setattr(module, "greedy_lexicode", _no_lexicode_scan,
                               raising=False)
                mp.setattr(presets, "run_preset", recording_run)
                code = cli.main(["preset", "run", name, "--json",
                                 "--out-dir", str(out_dir)])
            assert code == 0
            runs[name] = (results[0], stdout.getvalue(), out_dir)
        return runs[name]
    return run
