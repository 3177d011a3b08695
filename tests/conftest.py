import numpy as np
import pytest

from qsdc.protocol import ProtocolConfig
from qsdc.states import ChannelParams
from qsdc.wiretap_code import CodeParams, build_code


@pytest.fixture(scope="session", autouse=True)
def private_code_cache(tmp_path_factory):
    """Point the on-disk code cache at a directory of this run's own, so
    tests, and the processes they start, never touch the user's cache and
    every run starts cold."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
        yield


@pytest.fixture(scope="session")
def default_code():
    # nominal operating-point code: 830 chips/bit against ~25 dB loss
    return build_code(CodeParams(1312, 656, 128, 830, seed=12345))


@pytest.fixture(scope="session")
def small_code():
    return build_code(CodeParams(256, 128, 32, 8, seed=99))


@pytest.fixture(scope="session")
def toy_code():
    # small enough for exhaustive ML over all 2^4 codewords
    return build_code(CodeParams(8, 4, 1, 4, seed=7))


@pytest.fixture(scope="session")
def fast_config():
    """Low-loss small-code config: whole sessions run in milliseconds.

    5 dB survival keeps the mean detections per codeword bit near the
    nominal design point (8 x 0.316 = 2.5).  The check path is
    noiseless and the margin is loose because the tiny per-block check
    samples here would otherwise make gate decisions flap; measured
    error statistics at nominal scale are covered by the acceptance
    suite.
    """
    return ProtocolConfig(
        code=CodeParams(l=256, k_u=128, k_r=32, n_spread=8, seed=99),
        check_channel=ChannelParams(5.0, 0.0),
        data_channel=ChannelParams(5.0, 0.006),
        e_margin=0.12,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
