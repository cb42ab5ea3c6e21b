"""numpy's ``default_rng(seed).random()`` stream without numpy: the doubles
(u >> 11) * 2^-53 of PCG64's 64-bit outputs u (O'Neill 2014: a 128-bit LCG
with the XSL-RR output function), seeded by numpy's ``SeedSequence``
(O'Neill's ``seed_seq_fe``: a pool of four 32-bit words, with the words of
the seed past the pool mixed in).  Bit for bit numpy's (tested)."""

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool``: the seed's 32-bit words, low first, hashed
    into four words, which mix with each other and then with the rest."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = ((value ^ const) * (const := const * 0x931E8875 & _M32)) & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def doubles(seed: int):
    """The doubles of ``numpy.random.default_rng(seed).random()``, one per
    step, for a nonnegative integer ``seed``."""
    const, words = 0x8B51F9DD, []
    for word in _pool(seed) * 2:  # generate_state(4, uint64), in 32-bit halves
        value = ((word ^ const) * (const := const * 0x58F38DED & _M32)) & _M32
        words.append(value ^ value >> 16)
    state, inc = (words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2],
                  words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6])
    inc = (inc << 1 | 1) & _M128
    state = ((inc + state) * _MULTIPLIER + inc) & _M128  # pcg64_srandom_r
    while True:
        state = (state * _MULTIPLIER + inc) & _M128
        u, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (((u >> rot | u << 64 - rot) & _M64) >> 11) * 2.0**-53
