"""Keyed counter streams: the one rule for how a random draw is keyed.

Every random draw in phytolab comes from a Source: one Philox generator per
random source of a run, keyed once by SeedSequence([seed, source tag]).
Before each draw, at(position, stream) sets the generator's whole state:
counter (0, position, stream, 0), an empty output buffer and no pending
32-bit half.  A draw is therefore a pure function of (seed, source,
position, stream), never of an earlier draw, so any single reading can be
reproduced without replaying the ones before it (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11).

The position is the timestamp, slot or frequency key and sits in counter
word 1.  A draw advances word 0 only, by one per four 64-bit outputs (16
normals take 4 or 5, a 1,024-sample buffer about 260), so word 0 never
carries into word 1 and two draws with different (position, stream) use
disjoint counter blocks.  Sources differ in their key, so they share no
block at all.
"""

from __future__ import annotations

import numpy as np

# Source tags, the ASCII of a short name; each distinct and nonzero, because
# SeedSequence pads keys with zeros and would make a zero tag alias [seed].
READING_NOISE = 0x72656164  # "read"
IMPEDANCE_NOISE = 0x696D7064  # "impd"
BERNOULLI = 0x6265726E  # "bern"
SWEEP_NOISE = 0x73776570  # "swep"

# The state is set from Python ints, which numpy's setter stores as it would
# the same words held in uint64 arrays, without converting any array.
_EMPTY_BUFFER = (0, 0, 0, 0)


class Source:
    """One random source of a run: a Philox generator keyed by (seed, tag)."""

    def __init__(self, seed: int, tag: int) -> None:
        # SeedSequence raises ValueError for a negative seed
        self._bits = np.random.Philox(np.random.SeedSequence([int(seed), tag]))
        self._key = tuple(int(word) for word in self._bits.state["state"]["key"])
        self._generator = np.random.Generator(self._bits)

    def at(self, position: int, stream: int = 0) -> np.random.Generator:
        """The generator positioned at counter (0, position, stream, 0).

        The returned generator is shared: draw from it before the next at().
        """
        if position < 0 or stream < 0:
            raise ValueError(
                f"position and stream must be non-negative, got {position}, {stream}"
            )
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, position, stream, 0), "key": self._key},
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator
