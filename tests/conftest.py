"""Shared fixtures: one reasonably sized key pair per scheme.

Key generation dominates test start-up, so the pairs are session-scoped
and seeded for reproducibility.  Every test must also reap each child
process it starts (`no_child_left`).
"""

import os

import pytest

from helb import bfv, phe
from helb.numtheory import RandomSource
from helb.phe import SchemeId


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which a child process is still running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail(f"the test left a child process behind: waitpid gave {left}")


@pytest.fixture(scope="session")
def paillier_keys():
    return phe.keygen(SchemeId.PAILLIER, 256, RandomSource.seeded(101), test_mode=True)


@pytest.fixture(scope="session")
def dj_keys():
    return phe.keygen(SchemeId.DAMGARD_JURIK, 256, RandomSource.seeded(102), test_mode=True)


@pytest.fixture(scope="session")
def ou_keys():
    return phe.keygen(SchemeId.OKAMOTO_UCHIYAMA, 256, RandomSource.seeded(103), test_mode=True)


@pytest.fixture(scope="session")
def benaloh_keys():
    # small prime block so the exhaustive decryption path stays cheap
    return phe.keygen(SchemeId.BENALOH, 256, RandomSource.seeded(104), test_mode=True, r=257)


@pytest.fixture(scope="session")
def benaloh_wide_keys():
    # default block size: zero-test only, fits 32-bit differences
    return phe.keygen(SchemeId.BENALOH, 256, RandomSource.seeded(105), test_mode=True)


@pytest.fixture(scope="session")
def ns_keys():
    return phe.keygen(SchemeId.NACCACHE_STERN, 224, RandomSource.seeded(106), test_mode=True)


@pytest.fixture(scope="session")
def gm_keys():
    return phe.keygen(SchemeId.GOLDWASSER_MICALI, 256, RandomSource.seeded(107), test_mode=True)


@pytest.fixture(scope="session")
def bfv_small_keys():
    import support

    return bfv.keygen(support.SMALL_PARAMS, RandomSource.seeded(108))


@pytest.fixture(scope="session")
def desk_keys():
    return bfv.keygen(bfv.desk_params(), RandomSource.seeded(109))
