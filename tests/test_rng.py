import re

import numpy as np
import pytest

from ladderlab import rng
from ladderlab.ladder import LadderError
from ladderlab.rng import RngSpec, _stream_states

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30]


def _numpy_states(seed, stream, count):
    return [RngSpec(seed, stream + r).generator().bit_generator.state for r in range(count)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", [0, 5, 2**32 - 3])
def test_bulk_states_are_numpys(seed, stream):
    # from 2**32 - 3 on, the run crosses 2**32, where NumPy splits a stream index
    # into two spawn-key words
    assert list(_stream_states(seed, stream, 7)) == _numpy_states(seed, stream, 7)


def test_bulk_states_are_numpys_past_one_chunk():
    count = rng._CHUNK + 3
    assert list(_stream_states(41, 2, count)) == _numpy_states(41, 2, count)


@pytest.mark.parametrize("seed", [1, 2**64 + 5])
def test_small_chunks_split_at_two_to_the_32(monkeypatch, seed):
    monkeypatch.setattr(rng, "_CHUNK", 3)
    start = 2**32 - 5
    assert list(_stream_states(seed, start, 11)) == _numpy_states(seed, start, 11)


def test_reseeded_generator_draws_the_streams_uniforms():
    bits = np.random.PCG64()
    gen = np.random.Generator(bits)
    for r, state in enumerate(_stream_states(7, 3, 4)):
        bits.state = state
        assert gen.random(20).tolist() == RngSpec(7, 3 + r).generator().random(20).tolist()


@pytest.mark.parametrize("seed, stream", [(-1, 0), (3, -1)])
def test_negative_seed_or_stream_refused_as_numpy_refuses_it(seed, stream):
    with pytest.raises(Exception) as numpy_refusal:
        RngSpec(seed, stream).generator()
    with pytest.raises(numpy_refusal.type, match=re.escape(str(numpy_refusal.value))):
        next(_stream_states(seed, stream, 3))


def test_guard_raises_on_a_tampered_state(monkeypatch):
    honest = rng._pcg64_state

    def tampered(seed, inc):
        return honest(seed ^ 1, inc)

    monkeypatch.setattr(rng, "_pcg64_state", tampered)
    with pytest.raises(LadderError, match="disagrees with NumPy's SeedSequence"):
        next(_stream_states(41, 0, 3))
