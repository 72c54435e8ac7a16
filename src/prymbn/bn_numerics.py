"""Brill-Noether bookkeeping: rho numbers and expected-dimension reports.

Every locus family handled here is parametrized purely by the numbers
(g, k, r, d, a); the geometric objects behind them have no computational
representation.  rho is computed signed, never clamped: the limit-series
additivity chains need negative values.  Emptiness semantics live entirely
in DimReport and are encoded per theorem, never inferred from the sign of
a lower bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Tuple

from .errors import ParameterError, _at_least, _integers

THEOREM_EXACT = "theorem_exact"
LOWER_BOUND_ONLY = "lower_bound_only"

EMPTY = "empty"
NONEMPTY = "nonempty"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class VanishingSequence:
    """Strictly increasing non-negative vanishing orders a_0 < ... < a_r."""

    entries: Tuple[int, ...]

    def __post_init__(self) -> None:
        entries = _integers("vanishing orders", *self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ParameterError("vanishing sequence must be non-empty, got entries=()")
        if entries[0] < 0:
            raise ParameterError(f"vanishing orders must be non-negative, got {entries=}")
        if not all(map(operator.lt, entries, entries[1:])):
            raise ParameterError(f"vanishing orders must strictly increase: {entries}")

    @classmethod
    def of(cls, *entries: int) -> "VanishingSequence":
        return cls(tuple(entries))

    @property
    def r(self) -> int:
        return len(self.entries) - 1

    @property
    def weight(self) -> int:
        return sum(self.entries)

    def __iter__(self) -> Iterable[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


@dataclass(frozen=True)
class DimReport:
    """Expected-dimension verdict for one locus.

    ``value`` may be negative.  ``exactness`` records whether the cited
    result pins the dimension or only bounds it from below; ``emptiness``
    is only ever ``empty``/``nonempty`` when the cited result proves it.
    """

    value: int
    exactness: str
    emptiness: str
    source: str


def rho(g: int, r: int, d: int) -> int:
    """Classical Brill-Noether number g - (r+1)(g-d+r), signed."""
    g, r, d = _at_least("rho requires non-negative g, r, d", (0, 0, 0), g=g, r=r, d=d)
    return g - (r + 1) * (g - d + r)


def rho_pointed(g: int, r: int, d: int, a: VanishingSequence) -> int:
    """rho adjusted by prescribed vanishing: rho(g,r,d) - sum(a_i - i)."""
    value = rho(g, r, d)  # reads g, r and d as ints first
    if len(a) != r + 1:
        raise ParameterError(f"sequence has {len(a)} entries, expected r+1 = {r + 1}")
    if a[-1] > d:
        raise ParameterError(f"top vanishing order {a[-1]} exceeds degree {d}")
    return value - sum(ai - i for i, ai in enumerate(a))


def expected_dim_V(g: int, k: int, r: int) -> DimReport:
    """Prym-Brill-Noether locus of norm omega_C on a 2k-branch-point cover.

    The general lower bound g-1+k-k(r+1)-r(r+1)/2 is exact for k = 0 and
    k = 1; for larger k only the bound is known.
    """
    g, k, r = _at_least("expected_dim_V requires g >= 2, k >= 0, r >= 0", (2, 0, 0),
                        g=g, k=k, r=r)
    value = g - 1 + k - k * (r + 1) - r * (r + 1) // 2
    if k == 0:
        source = "exact dimension g-1-r(r+1)/2 of the norm-omega locus (unramified)"
    elif k == 1:
        source = "exact dimension g-(r+1)(r+2)/2 of the norm-omega locus (2 branch points)"
    else:
        source = "lower bound g-1+k-k(r+1)-r(r+1)/2 on the norm-omega locus"
    if k in (0, 1):
        emptiness = EMPTY if value < 0 else NONEMPTY
        exactness = THEOREM_EXACT
    else:
        emptiness = UNKNOWN
        exactness = LOWER_BOUND_ONLY
    return DimReport(value, exactness, emptiness, source)


def _check_twisted(g: int, k: int) -> Tuple[int, int]:
    """Hypotheses shared by the twisted loci: g >= 1 and k in {0, 1, 2}; g, k as ints."""
    g, k = _at_least("twisted loci need g >= 1", (1,), g=g, k=k)
    if k not in (0, 1, 2):
        raise ParameterError(f"twisted loci are supported for k in {{0,1,2}}, got {k=}")
    return g, k


def _twisted_emptiness(value: int, k: int) -> str:
    """Empty below dimension 0, non-empty for k in {1, 2}.

    For k = 0 the dimension is exact but non-emptiness is not established.
    """
    if value < 0:
        return EMPTY
    return NONEMPTY if k else UNKNOWN


def expected_dim_V_eta(g: int, k: int, r: int) -> DimReport:
    """Twisted locus (norm omega_C x eta): exact dimension g+k-1-(r+1)(r+2)/2."""
    g, k = _check_twisted(g, k)
    (r,) = _at_least("rank must be non-negative", (0,), r=r)
    value = g + k - 1 - (r + 1) * (r + 2) // 2
    source = "exact dimension g+k-1-(r+1)(r+2)/2 of the twisted locus"
    return DimReport(value, THEOREM_EXACT, _twisted_emptiness(value, k), source)


def expected_dim_V_eta_pointed(g: int, k: int, a: VanishingSequence) -> DimReport:
    """Twisted locus with prescribed vanishing a at a generic point."""
    g, k = _check_twisted(g, k)
    if a[-1] > 2 * g - 2 + k:
        raise ParameterError(
            f"top vanishing order {a[-1]} exceeds 2g-2+k = {2 * g - 2 + k}"
        )
    value = g + k - a.r - 2 - a.weight
    source = "exact dimension g+k-r-2-|a| of the pointed twisted locus"
    return DimReport(value, THEOREM_EXACT, _twisted_emptiness(value, k), source)


def expected_dim_V_divisor(g: int, k: int, r: int, d: int) -> DimReport:
    """Norm-omega locus twisted down by a generic effective divisor of degree d."""
    g, k, r, d = _at_least("invalid parameters for divisor-twisted locus", (2, 0, 0, 0),
                           g=g, k=k, r=r, d=d)
    value = g - 1 + k - (d + k) * (r + 1) - r * (r + 1) // 2
    if k == 0:
        source = "exact dimension g-1-r(r+1)/2-d(r+1) of the divisor-twisted locus"
        # The exact statement is about components; emptiness is proved only
        # for negative expected dimension.
        emptiness = EMPTY if value < 0 else UNKNOWN
        return DimReport(value, THEOREM_EXACT, emptiness, source)
    source = "lower bound g-1+k-(d+k)(r+1)-r(r+1)/2 on the divisor-twisted locus"
    return DimReport(value, LOWER_BOUND_ONLY, UNKNOWN, source)


def expected_dim_V_eta_divisor(g: int, k: int, r: int, d: int) -> DimReport:
    """Twisted locus further twisted down by an effective divisor of degree d."""
    g, k = _check_twisted(g, k)
    r, d = _at_least("rank and divisor degree must be non-negative", (0, 0), r=r, d=d)
    value = g - 1 + k - d * (r + 1) - (r + 1) * (r + 2) // 2
    source = "exact dimension g-1+k-(r+1)(r+2)/2-d(r+1) of the twisted divisor locus"
    return DimReport(value, THEOREM_EXACT, _twisted_emptiness(value, k), source)
