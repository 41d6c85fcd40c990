"""The combinatorial lower bound for a-numbers of branched Z/pZ-covers.

For a cover with ramification jump d over one branch point, the bound is a
max over j of sums of counts of multiples of p inside explicit rational
windows.  All floor arithmetic is done on integers scaled by p^2 (the window
endpoints have denominator dividing p^2), never on floats, so there is no
rounding near integer boundaries.
"""

from dataclasses import dataclass

from .numutil import check_degree, is_prime


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


def _check_level(p: int, d: int, j: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    check_degree(p, d)
    if not 0 <= j <= p - 1:
        raise ValueError(f"j = {j} out of range [0, {p - 1}]")


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b)/m) over i = 0 .. n-1, exact, in O(log m) steps.

    Any integers a and b, and m > 0.  Splitting off floor(a/m) and floor(b/m)
    leaves 0 <= a, b < m; the rest counts lattice points under the line
    y = (a*x + b)/m, which is the same sum with the axes swapped, m and a
    exchanged (the Euclidean step).
    """
    total = 0
    while n > 0:
        q, a = divmod(a, m)
        total += q * n * (n - 1) // 2
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def level_sum(p: int, d: int, j: int) -> int:
    """Multiples of p in the windows (i*d - (1 - 1/p)*d*j, i*d], i = j .. p-1, summed.

    Raises ValueError unless p is prime, d is a valid degree for p and
    0 <= j <= p-1.  With i = j + k the count in window i is
    floor((d*k + d*j)/p) - floor((d*p*k + d*j)/p^2), so the sum is two floor
    sums over k = 0 .. p-1-j, evaluated in O(log p) steps instead of p.
    """
    _check_level(p, d, j)
    n = p - j
    return _floor_sum(n, p, d, d * j) - _floor_sum(n, p * p, d * p, d * j)


def lower_bound_single(p: int, d: int) -> int:
    """The a-number lower bound for one branch point with jump d.

    The maximizing index is j = (p-1)/2 for odd p and j = 1 for p = 2.
    """
    j = 1 if p == 2 else (p - 1) // 2
    return level_sum(p, d, j)


def lower_bound(data: RamificationData) -> int:
    """The a-number lower bound, additive over the branch points."""
    return sum(lower_bound_single(data.p, d) for d in data.invariants)

