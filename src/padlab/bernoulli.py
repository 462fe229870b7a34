"""Exact Bernoulli numbers as arbitrary-precision rationals.

Convention: B_1 = -1/2 (the "first" Bernoulli numbers).  Every statement
this library checks involves even indices, where the two conventions
agree, so the choice is documentation rather than substance.

The even-index numbers come from Brent-Harvey's integer tangent numbers
T_j, B_2j = (-1)^(j-1) * 2j * T_j / (4^j * (4^j - 1)), memoized in a
grow-only table.  The von Staudt-Clausen identity
(B_n plus the sum of 1/q over primes q with (q-1) | n is an integer)
serves as an independent cross-check, and adams_check reports the
p-integrality of B_r/r for (p-1) ∤ r.
"""

from fractions import Fraction

from .padic_core import is_odd_prime, is_prime
from .report import CheckReport, rational_margin


class BernoulliTable:
    """Grow-only memo table of B_0..B_n.

    B_2j costs O(j) int multiply-adds on the carried tangent-number column
    ``col[k-1] = tau(k, j)`` plus one Fraction, so staged growth costs what
    one-shot growth does.  Each process grows its own table, lazily.
    """

    def __init__(self):
        self._values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
        self._col: list[int] = [1]  # tau(1, 1) = T_1

    def __len__(self):
        return len(self._values)

    def grow(self, n: int) -> None:
        col = self._col
        while len(self._values) <= n:
            j, odd = divmod(len(self._values), 2)
            if odd:  # B_odd = 0 for odd >= 3
                self._values.append(Fraction(0))
                continue
            if j > 1:  # tau(k, j) = (j-k) tau(k, j-1) + (j-k+2) tau(k-1, j), tau(0, j) = 0
                col.append(0)
                t = 0
                for i in range(j):
                    col[i] = t = (j - 1 - i) * col[i] + (j + 1 - i) * t
            self._values.append(Fraction((-1) ** (j - 1) * 2 * j * col[-1], 4**j * (4**j - 1)))

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        self.grow(n)
        return self._values[n]


_TABLE = BernoulliTable()


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, exactly."""
    return _TABLE.value(n)


def prewarm(n: int) -> None:
    """Grow the table to B_n up front; it stays as perfbench/spans.py traces it."""
    _TABLE.grow(n)


def _require_even_positive(r: int) -> None:
    if r < 2 or r % 2 != 0:
        raise ValueError(f"index must be even and positive, got {r}")


def adams_check(r: int, p: int) -> CheckReport:
    """Check p-integrality of B_r/r for even r not divisible by p-1."""
    _require_even_positive(r)
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if r % (p - 1) == 0:
        raise ValueError(f"Adams hypothesis violated: {p - 1} divides {r}")
    q = bernoulli(r) / r
    val = rational_margin(q, p, 0)
    return CheckReport(
        name="adams",
        inputs={"r": r, "p": p},
        holds=val >= 0,
        lhs=f"{q.numerator}/{q.denominator}",
        rhs="p-integer",
        modulus=None,
        margin=val,
        details={"valuation": val},
    )


def von_staudt_clausen_check(n: int) -> CheckReport:
    """Check that B_n + sum of 1/q over primes q with (q-1) | n is an integer."""
    _require_even_positive(n)
    primes = [d + 1 for d in range(1, n + 1) if n % d == 0 and is_prime(d + 1)]
    total = bernoulli(n) + sum(Fraction(1, q) for q in primes)
    return CheckReport(
        name="von_staudt_clausen",
        inputs={"n": n},
        holds=total.denominator == 1,
        lhs=f"{total.numerator}/{total.denominator}",
        rhs="integer",
        details={"primes": primes},
    )
