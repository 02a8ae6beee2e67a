import numpy as np
import pytest
from hypothesis import settings

from acckit.arrays import CodeBook
from acckit.families import SetFamily, Universe

# Property tests are deterministic and bounded: a fixed derivation of the
# examples from each test's source, no per-example deadline, and a few
# hundred examples at most.
settings.register_profile("acckit", derandomize=True, deadline=None,
                          max_examples=200)
settings.load_profile("acckit")

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
