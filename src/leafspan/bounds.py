"""Lower bounds on the maximum leaf number, as exact rationals.

Three bound families are implemented:

  * bound_theorem1: from the count of vertices whose degree is not 2.
  * bound_kw: the classical minimum-degree-3 bound, v/4 + 2.
  * bound_theorem2: from girth together with a cap on chains of degree-2
    vertices.  The coefficient alpha depends on the regime; below it is
    assembled from the two ingredient coefficients beta and beta_prime.

All values are fractions.Fraction; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .errors import InvalidParamsError


def _check_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParamsError(f"{name} must be >= {minimum}, got {value}")
    return value


def beta(h: int, k: int) -> Fraction:
    """Coefficient (h-2) / ((h-1)(k+2)) for a single long cycle regime."""
    _check_int("h", h, 3)
    _check_int("k", k, 1)
    return Fraction(h - 2, (h - 1) * (k + 2))


def gamma(h: int, m: int, k: int) -> Fraction:
    """Coefficient (m-1) / (h + (k+1)m - k - 2) for m branch points on a
    central block of size h.  Only ceil(h/2) <= m < h is meaningful; the
    minimum over that range sits at m = ceil(h/2).
    """
    _check_int("h", h, 3)
    _check_int("m", m, 2)
    _check_int("k", k, 1)
    if not ((h + 1) // 2 <= m < h):
        raise InvalidParamsError(f"need ceil(h/2) <= m < h, got m={m}, h={h}")
    return Fraction(m - 1, h + (k + 1) * m - k - 2)


def beta_prime(h: int, k: int) -> Fraction:
    """gamma at its minimizing branch count m = ceil(h/2).

    For even h = 2n this simplifies to (n-1) / ((n-1)(k+3) + 1).
    """
    value = gamma(h, (_check_int("h", h, 3) + 1) // 2, k)
    if h % 2 == 0:
        n = h // 2
        assert value == Fraction(n - 1, (n - 1) * (k + 3) + 1)
    return value


def alpha(g: int, k: int) -> Fraction:
    """Leaf-rate coefficient for girth g and chain cap k.

    For k >= g - 2 only the long-cycle regime binds and alpha = beta(g, k).
    For smaller k the short-chain regime takes over: with n = ceil(g/2) - 1
    the coefficient is n / (n(k+3) + 1), which equals beta_prime at the
    rounded-up even girth and undercuts beta there.
    """
    return _alpha(_check_int("g", g, 3), _check_int("k", k, 1))


@cache
def _alpha(g: int, k: int) -> Fraction:
    """alpha for checked g and k, computed and self-checked once per pair.  The
    check stays in alpha: a cache keyed by value would answer alpha(3, True)
    or alpha(3.0, 1) from alpha(3, 1), as True == 1 == 1.0 hash alike."""
    if k >= g - 2:
        return beta(g, k)
    n = (g + 1) // 2 - 1
    value = Fraction(n, n * (k + 3) + 1)
    assert value == min(beta(g, k), beta_prime(2 * n + 2, k))
    return value


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound with enough context to audit it later."""

    kind: str  # "Theorem1" | "Theorem2" | "KleitmanWest"
    value: Fraction
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "numerator": self.value.numerator,
            "denominator": self.value.denominator,
            "decimal": float(self.value),
            "params": dict(self.params),
        }


def bound_theorem1(s: int) -> BoundReport:
    """Lower bound (s-2)/4 + 2 from s, the number of vertices of degree != 2.

    Meaningful for connected graphs that are not cycles or paths of the
    degenerate kinds; s = 0 still yields a (weak) valid report.
    """
    _check_int("s", s, 0)
    value = Fraction(s + 6, 4)
    return BoundReport(kind="Theorem1", value=value, params={"s": s})


def bound_kw(v: int) -> BoundReport:
    """Lower bound v/4 + 2 valid whenever every degree is at least 3."""
    _check_int("v", v, 4)
    value = Fraction(v, 4) + 2
    return BoundReport(kind="KleitmanWest", value=value, params={"v": v})


def bound_theorem2(v: int, g: int, k: int) -> BoundReport:
    """Lower bound alpha(g, k) * (v - k - 2) + 2 for girth >= g and chains <= k.

    k counts the longest run of consecutive degree-2 vertices allowed; k = 0
    is rejected since the coefficient family needs k >= 1.
    """
    _check_int("v", v, 2)
    _check_int("g", g, 3)
    _check_int("k", k, 1)
    a = _alpha(g, k)
    value = Fraction(a.numerator * (v - k - 2) + 2 * a.denominator, a.denominator)
    return BoundReport(
        kind="Theorem2",
        value=value,
        params={"v": v, "g": g, "k": k, "alpha": a},
    )
