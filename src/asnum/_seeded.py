"""numpy's seeded bounded draws, batched over sample indices.

For each index i in [lo, hi), bounded_draws gives the values that

    rng = Generator(PCG64(SeedSequence((seed, i))))
    [rng.integers(0, b) for b in bounds]

returns, computed for all indices at once in uint32/uint64 numpy arithmetic.
It mirrors numpy's algorithms: SeedSequence's entropy mixing and
generate_state (numpy/random/bit_generator.pyx), PCG64's seeding and XSL-RR
output (O'Neill 2014, with the LCG jumped ahead in closed form), and the
32-bit Lemire draw (Lemire 2019) that Generator.integers makes for ranges
below 2^32.  Such a draw takes the low 32-bit half of a 64-bit output and
leaves the high half to the next draw, also across integers() calls; a
bound of 1 gives 0 and takes no word.  The per-sample generator is the
reference: tests compare the two row by row.

A row is exact when numpy's generator is known to give the same values.
Rows whose seed or index is 2^32 or more (their entropy is more than two
words), all rows when a bound is 2^32 or more, and rows where a draw would
be rejected and redrawn are inexact and hold zeros; the caller draws those
with numpy's generator.
"""

import numpy as np

from .numutil import ceil_div

_U32 = np.uint32
_U64 = np.uint64
# constants as 0-d arrays: ufuncs take these faster than numpy scalars
_LOW32 = np.array(0xFFFFFFFF, dtype=_U64)
_SHIFT32 = np.array(32, dtype=_U64)

# SeedSequence's hashing constants, pool size and output shift
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.array(0xCA01F9DD, dtype=_U32)
_MIX_MULT_R = np.array(0x4973F715, dtype=_U32)
_XSHIFT = np.array(16, dtype=_U32)
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_calls(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of count hash calls, as (count, 1) uint32 columns.

    SeedSequence keeps one running constant h, starting at init: a call
    xors the value with h, sets h = h * mult mod 2^32, multiplies the value
    by the new h and xor-shifts it.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    xor, mult = (np.array(c, dtype=_U32)[:, None] for c in (consts[:-1], consts[1:]))
    return xor, mult


# mix_entropy: one call per pool word, then one per ordered pair of distinct
# words; generate_state(4, uint64): one per 32-bit output word
_MIX_CALLS = _hash_calls(_INIT_A, _MULT_A, _POOL_SIZE**2)
_STATE_CALLS = _hash_calls(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(value: np.ndarray, calls, first: int, count: int) -> np.ndarray:
    """Hash calls first, ..., first + count - 1 of value, as rows of a (count, N) array."""
    xor, mult = (c[first : first + count] for c in calls)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _seed_words(seed: int, index: np.ndarray) -> np.ndarray:
    """SeedSequence((seed, index)).generate_state(4, uint64) per index, (4, N) uint64."""
    pool = np.zeros((_POOL_SIZE, len(index)), dtype=_U32)
    pool[0] = seed
    pool[1] = index
    pool = _hash(pool, _MIX_CALLS, 0, _POOL_SIZE)
    calls = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # the other pool words, in order, each mixed with its own hash of pool[src]
        dst = [j for j in range(_POOL_SIZE) if j != src]
        hashed = _hash(pool[src], _MIX_CALLS, calls, len(dst))
        calls += len(dst)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = _hash(pool[[k % _POOL_SIZE for k in range(8)]], _STATE_CALLS, 0, 8).astype(_U64)
    # little-endian pairs of 32-bit words
    return words[0::2] | (words[1::2] << _SHIFT32)


def _mul128(hi, lo, c_hi, c_lo):
    """(hi, lo) * (c_hi, c_lo) mod 2^128 for uint64 halves; the high half by 32-bit limbs."""
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    b0, b1 = c_lo & _LOW32, c_lo >> _SHIFT32
    low = a0 * b0
    mid1 = a1 * b0 + (low >> _SHIFT32)
    mid2 = a0 * b1 + (mid1 & _LOW32)
    mulhi = a1 * b1 + (mid1 >> _SHIFT32) + (mid2 >> _SHIFT32)
    return mulhi + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Python ints below 2^128 as uint64 (high, low) arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=_U64),
        np.array([v & (2**64 - 1) for v in values], dtype=_U64),
    )


def _outputs(seed: int, index: np.ndarray, count: int) -> np.ndarray:
    """The first count PCG64 outputs of each index's generator, (N, count) uint64.

    pcg64_set_seed sets inc = 2 * inc_word + 1 and state = 0, steps, adds
    the seed word x and steps again; each output steps first.  So the state
    before output k (1-based) is M^(k+1) * (inc + x) + (1 + M + ... + M^k) * inc
    mod 2^128, for the multiplier M: all outputs at once, no loop over steps.
    """
    seed_hi, seed_lo, inc_hi, inc_lo = (w[:, None] for w in _seed_words(seed, index))
    inc_hi = (inc_hi << _U64(1)) | (inc_lo >> _U64(63))
    inc_lo = (inc_lo << _U64(1)) | _U64(1)
    jump, inc_sum = [], []
    power, total = _PCG_MULT, 1
    for _ in range(count):
        total = (total + power) % 2**128  # 1 + M + ... + M^k
        power = power * _PCG_MULT % 2**128  # M^(k+1)
        jump.append(power)
        inc_sum.append(total)
    hi, lo = _add128(
        *_mul128(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), *_halves(jump)),
        *_mul128(inc_hi, inc_lo, *_halves(inc_sum)),
    )
    # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state
    rot = hi >> _U64(58)
    xored = hi ^ lo
    return (xored >> rot) | (xored << ((_U64(64) - rot) & _U64(63)))


def bounded_draws(
    seed: int, lo: int, hi: int, bounds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each index's draws below bounds, (hi - lo, len(bounds)) int64, and its exact mask.

    Row r holds index lo + r.  Inexact rows hold zeros (see the module
    docstring).
    """
    values = np.zeros((hi - lo, len(bounds)), dtype=np.int64)
    exact = np.zeros(hi - lo, dtype=bool)
    stop = min(hi, 2**32)
    if seed >= 2**32 or max(bounds, default=1) >= 2**32 or lo >= stop:
        return values, exact
    index = np.arange(lo, stop, dtype=_U64)
    # draws with bound 1 return 0 and take no 32-bit word
    cols = [c for c, b in enumerate(bounds) if b > 1]
    out = _outputs(seed, index, ceil_div(len(cols), 2))
    # each 64-bit output gives its low 32-bit half first, then its high half
    words = np.stack((out & _LOW32, out >> _SHIFT32), axis=2)
    words = words.reshape(len(index), -1)[:, : len(cols)]
    ranges = np.array([bounds[c] for c in cols], dtype=_U64)
    product = words * ranges
    # Lemire: a draw whose low half falls below (2^32 - range) % range is redrawn
    thresholds = (_U64(2**32) - ranges) % ranges
    exact[: len(index)] = ~((product & _LOW32) < thresholds).any(axis=1)
    values[: len(index), cols] = (product >> _SHIFT32).astype(np.int64)
    values[~exact] = 0
    return values, exact
