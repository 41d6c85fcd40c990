"""Small integer helpers shared across the package."""

import math


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
