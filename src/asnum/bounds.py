"""The combinatorial lower bound for a-numbers of branched Z/pZ-covers.

For a cover with ramification jump d over one branch point, the bound is a
max over j of sums of counts of multiples of p inside explicit rational
windows.  All floor arithmetic is done on integers scaled by p^2 (the window
endpoints have denominator dividing p^2), never on floats, so there is no
rounding near integer boundaries.
"""

from dataclasses import dataclass
from fractions import Fraction

from .numutil import ceil_div, check_degree, is_prime


@dataclass(frozen=True)
class RamificationData:
    """A prime p and the nonempty multiset of ramification jumps d_Q.

    Every jump must be a positive integer coprime to p.
    """

    p: int
    invariants: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        inv = tuple(self.invariants)
        object.__setattr__(self, "invariants", inv)
        if not inv:
            raise ValueError("ramification data must contain at least one jump")
        for d in inv:
            if d < 1:
                raise ValueError(f"ramification jump {d} is not positive")
            if d % self.p == 0:
                raise ValueError(f"ramification jump {d} is divisible by p = {self.p}")


def _check_pair(p: int, d: int, i: int, j: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    check_degree(p, d)
    if not 0 <= j <= p - 1:
        raise ValueError(f"j = {j} out of range [0, {p - 1}]")
    if not j <= i <= p - 1:
        raise ValueError(f"i = {i} out of range [{j}, {p - 1}]")


def threshold(p: int, d: int, i: int, j: int) -> Fraction:
    """The open lower endpoint i*d - (1 - 1/p)*d*j of the counting window.

    Exact rational; its denominator divides p.
    """
    _check_pair(p, d, i, j)
    return Fraction(i * d * p - d * j * (p - 1), p)


def block_count(p: int, d: int, i: int, j: int) -> int:
    """Number of multiples of p in the window (threshold(p,d,i,j), i*d]."""
    _check_pair(p, d, i, j)
    # floor(threshold/p) on integers: threshold*p = i*d*p - d*j*(p-1)
    return i * d // p - (i * d * p - d * j * (p - 1)) // (p * p)


def level_sum(p: int, d: int, j: int) -> int:
    """Sum of block_count(p, d, i, j) over i = j .. p-1."""
    _check_pair(p, d, j, j)
    return sum(block_count(p, d, i, j) for i in range(j, p))


def lower_bound_single(p: int, d: int) -> int:
    """The a-number lower bound for one branch point with jump d.

    The maximizing index is j = (p-1)/2 for odd p and j = 1 for p = 2.
    """
    j = 1 if p == 2 else (p - 1) // 2
    return level_sum(p, d, j)


def lower_bound(data: RamificationData) -> int:
    """The a-number lower bound, additive over the branch points."""
    return sum(lower_bound_single(data.p, d) for d in data.invariants)


def lower_bound_p3(d: int) -> int:
    """Closed form of the p = 3 bound: ceil(2d/3)+ceil(d/3)-ceil(d/9)-ceil(4d/9)."""
    check_degree(3, d)
    return ceil_div(2 * d, 3) + ceil_div(d, 3) - ceil_div(d, 9) - ceil_div(4 * d, 9)


def lower_bound_p5_5n1(n: int) -> int:
    """Closed form of the p = 5 bound for degree d = 5n + 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 9 * n - (2 * n // 5 + (7 * n + 1) // 5 + (12 * n + 2) // 5)
