"""``--stream-word W`` reruns the suite on other random streams.

With the option, every ``np.random.default_rng`` seed gets the word ``W``
appended for the whole session: an int seed ``s`` becomes ``[s, W]``, a list
seed gets ``W`` at its end, and any other seed (None, a ``SeedSequence``, a
bit generator) passes through. NumPy promises its bit generators, not the
algorithms of its distributions, across versions, so a test that passes only
on the default streams pins a drawn value instead of a law.
"""

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption("--stream-word", type=int, default=None, metavar="W",
                     help="append W to every np.random.default_rng seed")


def shifted(default_rng, word):
    def default_rng_shifted(seed=None, *args, **kwargs):
        if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
            seed = [seed, word]
        elif isinstance(seed, list):
            seed = [*seed, word]
        return default_rng(seed, *args, **kwargs)

    return default_rng_shifted


@pytest.fixture(scope="session", autouse=True)
def stream_word(request):
    word = request.config.getoption("stream_word")
    if word is None:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", shifted(np.random.default_rng, word))
        yield
