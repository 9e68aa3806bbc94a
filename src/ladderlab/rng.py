"""Reproducible random streams keyed by (master seed, stream index).

``RngSpec.generator()`` builds NumPy's ``PCG64`` from a ``SeedSequence``
with the stream index as its spawn key.  Replica loops that need thousands
of consecutive streams read their states from ``_stream_states`` instead,
which computes the same ``PCG64`` states in bulk: NumPy's constructors take
15-28 µs per stream, the bulk states about 3 µs with the re-seeding of a
bit generator included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ladderlab.ladder import LadderError


@dataclass(frozen=True)
class RngSpec:
    """Names one deterministic random stream.

    The same (seed, stream) always yields the same generator state, and
    distinct stream indices give statistically independent streams, so
    replicas can run on any worker in any order.  Experiment drivers assign
    one stream index per replica or chain.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


# SeedSequence's hash constants (O'Neill's seed_seq design, kept stable by
# NumPy's stream-compatibility policy) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _POOL = 0xCA01F9DD, 0x4973F715, 4
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_CHUNK = 4096


def _words(n: int) -> list[np.uint32]:
    """``n`` as SeedSequence splits it: 32-bit words, least significant first."""
    out = [np.uint32(n & 0xFFFFFFFF)]
    while (n := n >> 32) > 0:
        out.append(np.uint32(n & 0xFFFFFFFF))
    return out


def _pool_words(entropy: list) -> list[np.ndarray]:
    """SeedSequence's ``generate_state(4, uint64)`` as eight 32-bit words, each
    an array over the streams of a chunk: the pool mixing of ``entropy`` (one
    uint32 scalar or array per word, arrays broadcast), then the output hash.
    All arithmetic stays on uint32 arrays, which wrap without a warning."""
    const, mix_l, mix_r, shift = _INIT_A, np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(16)

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> shift

    def mix(x, y):
        res = mix_l * x - mix_r * y
        return res ^ res >> shift

    entropy = [np.atleast_1d(e) for e in entropy]
    pool = [hashmix(e) for e in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(e))
    out, const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(const)
        out.append(value ^ value >> shift)
    return out


def _pcg64_state(seed: int, inc: int) -> dict:
    """The state of a ``PCG64`` seeded with the 128-bit ``seed`` and stream
    ``inc``, as PCG's ``srandom``: set the increment, step, add the seed, step."""
    inc = (inc << 1 | 1) & _MASK128
    return {"bit_generator": "PCG64",
            "state": {"state": ((inc + seed) * _PCG_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _stream_states(seed: int, stream: int, count: int) -> Iterator[dict]:
    """The ``bit_generator.state`` of ``RngSpec(seed, stream + r).generator()``
    for r = 0 .. count - 1, in order, computed a chunk of streams at a time.

    Per chunk a guard builds NumPy's own generator for the chunk's first
    stream (which also refuses a seed or stream NumPy refuses) and raises
    ``LadderError`` unless its state equals the computed one, so a change to
    NumPy's seeding fails loudly instead of shifting every stream.  A chunk
    never crosses a multiple of 2**32, where a stream index gains a spawn-key
    word, and at most one chunk of states is held at a time."""
    stop = stream + count
    while stream < stop:
        ref = RngSpec(seed, stream).generator().bit_generator.state
        run = _words(seed)
        run += [np.uint32(0)] * (_POOL - len(run))  # SeedSequence pads a spawned entropy
        high, low = divmod(stream, 1 << 32)
        m = min(stop - stream, _CHUNK, (1 << 32) - low)
        # the spawn key's words: each stream's low word, then the chunk's common high words
        spawn = [np.arange(low, low + m, dtype=np.uint64).astype(np.uint32)]
        spawn += _words(high) if high else []
        # generate_state reads its uint32 words little-endian in pairs as uint64
        words = np.stack(_pool_words(run + spawn), axis=1)
        states = (_pcg64_state(a << 64 | b, c << 64 | d)
                  for a, b, c, d in words.astype("<u4").view("<u8").tolist())
        first = next(states)
        if first != ref:
            raise LadderError(f"bulk seeding of stream {stream} disagrees with NumPy's "
                              f"SeedSequence: {first['state']} != {ref['state']}")
        yield first
        yield from states
        stream += m
