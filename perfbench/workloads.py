"""Seeded request decks, one per workload.

A deck is the list of requests one pass of a run sends.  It is built only
from the workload name and the seed, so the same seed always gives the same
argv lists.  Each workload fixes how many requests of each cost class a deck
holds; the seed picks the parameters inside a class and the order.  That
keeps the cost of a pass nearly the same from seed to seed, so runs with
different seeds can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

FORMATS = ("json", "csv", "md")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what the oracle needs to know about it.

    ``kind`` is the subcommand, or ``invalid`` for a request that must be
    refused with exit code 2.  ``params`` hold the parsed parameters, so the
    oracle never re-parses ``argv``.
    """

    argv: Tuple[str, ...]
    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    fmt: str = "json"


def _request(kind: str, fmt: str = "json", **params) -> Request:
    argv: List[str] = [] if fmt == "json" else ["--format", fmt]
    argv.append(kind)
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, tuple):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return Request(tuple(argv), kind, params, fmt)


def _invalid(*argv: str) -> Request:
    return Request(tuple(argv), "invalid")


def _increasing(rng: random.Random, length: int, top: int) -> Tuple[int, ...]:
    return tuple(sorted(rng.sample(range(top + 1), length)))


def _zero_dim_genus(k: int, r: int) -> int:
    return (r + 1) * (r + 2) // 2 + 1 - k


# --- closed_form_mix ------------------------------------------------------

def _dim(rng: random.Random, locus: str, fmt: str) -> Request:
    g = rng.randint(2, 60)
    if locus == "V":
        return _request("dim", fmt, locus=locus, g=g, k=rng.randint(0, 3), r=rng.randint(0, 10))
    if locus == "V_div":
        return _request("dim", fmt, locus=locus, g=g, k=rng.randint(0, 3),
                        r=rng.randint(0, 8), d=rng.randint(0, 5))
    k = rng.randint(0, 2)
    if locus == "V_eta":
        return _request("dim", fmt, locus=locus, g=g, k=k, r=rng.randint(0, 10))
    if locus == "V_eta_div":
        return _request("dim", fmt, locus=locus, g=g, k=k, r=rng.randint(0, 8), d=rng.randint(0, 5))
    top = min(2 * g - 2 + k, 20)
    return _request("dim", fmt, locus=locus, g=g, k=k,
                    a=_increasing(rng, rng.randint(1, min(6, top + 1)), top))


def _class(rng: random.Random, locus: str, fmt: str, large: bool = False) -> Request:
    if locus == "V_eta_pointed":
        return _request("class", fmt, locus=locus, a=_increasing(rng, rng.randint(1, 8), 15))
    # Just below the largest ranks whose coefficients still render: from
    # r = 68 (V_eta) and r = 76 (V_unramified) on, the CLI crashes on the
    # 4300-digit limit of int-to-str conversion.
    if large:
        r = rng.randint(60, 64) if locus == "V_eta" else rng.randint(66, 70)
    else:
        r = rng.randint(0, 30)
    return _request("class", fmt, locus=locus, r=r)


def _count(rng: random.Random, fmt: str) -> Request:
    k = rng.randint(1, 2)
    r = rng.randint(1, 14)
    return _request("count", fmt, g=_zero_dim_genus(k, r), k=k, r=r)


# Requests refused with exit code 2 today, and still refused once each locus
# checks its own hypotheses: g < 2 on the twisted loci and ignored flags are
# left out, because their exit code is expected to change.
_INVALID: Sequence[Callable[[random.Random], Request]] = (
    lambda rng: _invalid("count", "--g", str(rng.randint(2, 40)), "--k", "0", "--r", str(rng.randint(0, 5))),
    lambda rng: _invalid("count", "--g", str(rng.randint(2, 40)), "--k", "3", "--r", str(rng.randint(0, 5))),
    lambda rng: _invalid("dim", "--locus", "V_eta", "--g", str(rng.randint(2, 40)), "--k", "3",
                         "--r", str(rng.randint(0, 5))),
    lambda rng: _invalid("dim", "--locus", "V_eta_pointed", "--g", str(rng.randint(5, 40)), "--k", "1",
                         "--a", f"{rng.randint(3, 6)},{rng.randint(0, 2)}"),
    lambda rng: _invalid("class", "--locus", "V_eta", "--r", str(-rng.randint(1, 9))),
    lambda rng: _invalid("class", "--locus", "V_eta_pointed", "--a", ",".join([str(rng.randint(0, 9))] * 2)),
    lambda rng: _invalid("dim", "--locus", "V", "--g", str(rng.randint(2, 40)), "--k", "1"),
    lambda rng: _invalid("dim", "--locus", "W", "--g", str(rng.randint(2, 40)), "--k", "1", "--r", "1"),
    lambda rng: _invalid("count", "--g", str(_zero_dim_genus(1, 3) + rng.randint(1, 9)), "--k", "1", "--r", "3"),
)


def closed_form_mix(rng: random.Random) -> List[Request]:
    """500 cheap closed-form requests: 59% dim, 18% class, 14% count, 4% large rank, 5% invalid.

    The tail percentile of a 500-request deck is p98, which falls among the
    large-rank requests; in a larger deck it fell among requests that met a
    full garbage collection, and moved from run to run.
    """
    specs: List[Callable[[str], Request]] = []
    for locus in ("V", "V_eta", "V_eta_pointed", "V_div", "V_eta_div"):
        specs += [lambda fmt, locus=locus: _dim(rng, locus, fmt)] * 59
    for locus in ("V_eta", "V_unramified", "V_eta_pointed"):
        specs += [lambda fmt, locus=locus: _class(rng, locus, fmt)] * 30
    specs += [lambda fmt: _count(rng, fmt)] * 70
    for locus in ("V_eta", "V_unramified"):
        specs += [lambda fmt, locus=locus: _class(rng, locus, fmt, large=True)] * 10
    deck = [spec(FORMATS[i % 3]) for i, spec in enumerate(specs)]
    deck += [_INVALID[i % len(_INVALID)](rng) for i in range(25)]
    rng.shuffle(deck)
    return deck


# --- engine_large ---------------------------------------------------------

def _pointed_engine(rng: random.Random, length: int) -> Request:
    # 0..length without one of its top three entries: the parts stay close to
    # a staircase, so the cost of a request depends on its length, not on
    # the seed.
    dropped = length - rng.randint(0, 2)
    return _request("class", locus="V_eta_pointed", a=tuple(x for x in range(length + 1) if x != dropped),
                    engine=True)


def engine_large(rng: random.Random) -> List[Request]:
    """40 Pfaffian requests in four classes by padded partition length (12, 10, 8, 6)."""
    deck: List[Request] = []
    for padded, pointed in ((12, (11, 12)), (10, (9,) * 3 + (10,) * 3),
                            (8, (7,) * 4 + (8,) * 4), (6, (6,) * 8)):
        # V_eta at rank r is the staircase of length r+1; V_unramified at
        # rank r is the staircase of length r.
        deck += [_request("class", locus="V_eta", r=padded - 2, engine=True),
                 _request("class", locus="V_eta", r=padded - 1, engine=True),
                 _request("class", locus="V_unramified", r=padded - 1, engine=True),
                 _request("class", locus="V_unramified", r=padded, engine=True)]
        deck += [_pointed_engine(rng, length) for length in pointed]
    rng.shuffle(deck)
    return deck


# --- limits_enum ----------------------------------------------------------

FLAVORS = ("unramified", "ramified")

# (n, r) with search space C(n, r+1), where n = d+1 is odd for both flavors:
# unramified (d = 2g-2) at g = (n+1)/2 and ramified (d = 2g) at g = (n-1)/2
# search the same space.  Four size classes: 12 points near 6e4, so that the
# median latency falls inside one class, then 4 near 1.5e5, 2 near 4e5 and
# 2 near 7.5e5.  Each point is sent in both flavors, one of them with
# --show-candidates.
LIMIT_POINTS = ((67, 2), (69, 2), (71, 2), (73, 2), (75, 2), (77, 2),
                (33, 3), (35, 3), (37, 3), (39, 3), (25, 4), (27, 4),
                (97, 2), (99, 2), (45, 3), (31, 4),
                (135, 2), (37, 4),
                (41, 4), (31, 5))


def limits_enum(rng: random.Random) -> List[Request]:
    """40 limit-series requests over fixed search spaces.

    The seed picks which flavor of each of the 16 smaller points lists its
    candidates, and the order.  On the 4 largest points the flavors
    alternate: the longest candidate list sets the peak memory of a run, and
    it should not depend on the seed.
    """
    deck: List[Request] = []
    for i, (n, r) in enumerate(LIMIT_POINTS):
        shown = rng.choice(FLAVORS) if i < 16 else FLAVORS[i % 2]
        for flavor, g in (("unramified", (n + 1) // 2), ("ramified", (n - 1) // 2)):
            extra = {"show_candidates": True} if flavor == shown else {}
            deck.append(_request("limits", flavor=flavor, g=g, r=r, **extra))
    rng.shuffle(deck)
    return deck


# --- verify_suites --------------------------------------------------------

def verify_suites(rng: random.Random) -> List[Request]:
    """32 verify requests: 2 at the default bounds, 30 at seeded bounds below them.

    The seeded bounds come from fixed multisets (max-weight 16..21, max-g
    8..12, max-r 2..4), paired in ascending order; the seed shuffles max-g
    and max-r within blocks of five and orders the requests.  So each seed
    sends other bounds, but a pass costs about the same, and it is short
    enough for two passes in a 20 s run.
    """
    weights = sorted(list(range(16, 22)) * 5)
    genera = sorted(list(range(8, 13)) * 6)
    ranks = sorted(list(range(2, 5)) * 10)
    for values in (genera, ranks):
        for block in range(0, len(values), 5):
            part = values[block:block + 5]
            rng.shuffle(part)
            values[block:block + 5] = part
    deck = [_request("verify")] * 2
    deck += [_request("verify", max_weight=w, max_g=g, max_r=r)
             for w, g, r in zip(weights, genera, ranks)]
    rng.shuffle(deck)
    return deck


WORKLOADS: Dict[str, Callable[[random.Random], List[Request]]] = {
    "closed_form_mix": closed_form_mix,
    "engine_large": engine_large,
    "limits_enum": limits_enum,
    "verify_suites": verify_suites,
}

# The layers each workload is built to load: in the traced run their combined
# self time should exceed that of all other layers.
DOMINANT: Dict[str, Tuple[str, ...]] = {
    "closed_form_mix": ("cli", "bn_numerics", "theta_ring", "formulas"),
    "engine_large": ("lagrangian",),
    "limits_enum": ("limit_series",),
    "verify_suites": ("lagrangian", "limit_series", "verify"),
}

# One cheap request per workload, sent to a freshly spawned CLI process.
COLD_START: Dict[str, Request] = {
    "closed_form_mix": _request("dim", locus="V", g=10, k=1, r=2),
    "engine_large": _request("class", locus="V_eta", r=1, engine=True),
    "limits_enum": _request("limits", flavor="unramified", g=5, r=1),
    "verify_suites": _request("verify", max_weight=4, max_g=3, max_r=1),
}


def deck(workload: str, seed: int) -> List[Request]:
    """The request deck of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"perfbench/{workload}/{seed}"))


def digest(requests: Sequence[Request]) -> str:
    """SHA-256 of the argv lists, to show two runs sent the same inputs."""
    text = json.dumps([list(req.argv) for req in requests], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
