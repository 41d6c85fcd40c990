"""Small integer helpers shared across the package."""

import math

import numpy as np

INT64_MAX = 2**63 - 1

# most cells of a dense array whose size comes from the input: 512 MiB of
# int64, 67x the (5, 499) Cartier matrix (996 x 996) and 64x a survey chunk
MAX_CELLS = 2**26


class HeadroomError(ValueError):
    """An int64 sum the computation needs could overflow; raised before it starts."""


def check_int64_sum(terms: int, term_max: int, what: str) -> None:
    """Raise HeadroomError unless terms values in [0, term_max] sum within int64."""
    if terms * term_max > INT64_MAX:
        raise HeadroomError(
            f"{what}: {terms} terms up to {term_max} could overflow int64"
        )


def narrowest_int_dtype(bound: int) -> type:
    """The narrowest of int16 and int32 whose range holds [-bound, bound], else int64.

    Callers pass a bound they have proved for every value an array can hold,
    and check int64 headroom themselves (check_int64_sum).
    """
    return next(
        (t for t in (np.int16, np.int32) if bound <= np.iinfo(t).max), np.int64
    )


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce the integer array ``a`` mod p in place, to [0, p); return it.

    numpy's floor division by a scalar is vectorized and its integer
    remainder is not: on 16800 int16 entries (numpy 2.4, a 2-core x86-64 VM)
    a % p took about 60 us and a - p * (a // p) about 10 us.  The division
    floors, so the result lies in [0, p) for negative a too.  p * (a // p)
    lies in [0, a] for a >= 0 and in [a - p + 1, a] for a < 0, so no step
    leaves a's dtype when that dtype holds |a| + p.
    """
    q = a // p
    q *= p
    a -= q
    return a


def check_cells(rows: int, cols: int, what: str) -> None:
    """Raise ValueError unless a dense rows x cols array stays within MAX_CELLS."""
    if rows * cols > MAX_CELLS:
        raise ValueError(f"{what}: {rows} x {cols} exceeds the limit of {MAX_CELLS} cells")


def is_prime(n: int) -> bool:
    """Trial division; fine for the small moduli used here."""
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def check_degree(p: int, d: int) -> None:
    """Raise ValueError unless d is a valid ramification jump for p."""
    if d < 1 or d % p == 0:
        raise ValueError(f"d = {d} must be positive and coprime to p = {p}")


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive b, exact on integers."""
    return -(-a // b)
