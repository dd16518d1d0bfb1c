"""The serve-mix traffic: query classes, key space and predict bodies.

Everything here is a pure function of the strategy index and the
workload seed, so the load generator (which checks every body) and the
traced run (which times the same queries in-process) see one mix.

The 90/10 lookup/predict split, the five lookup classes, a Zipf-like
popularity and a cached key space about twice the server's default
1024-entry response cache are the benchmark's specification.  The
class shares and the popularity exponent are not: no trace of real
traffic exists, so they are assumptions, and no bounded metric depends
on them (see ``NOTES.md``).  The shares of lookups, by request count:

=====================  =====  ==========================================
class                  share  server path
=====================  =====  ==========================================
``exact``              30 %   pre-serialized ``/v1/strategy`` answer
``partial``            15 %   pre-serialized ``/v1/strategy`` answer
``unknown``            15 %   encode on miss, response cache
``portfolio``          15 %   pre-serialized ``/v1/portfolio`` answer
``portfolio_k``        25 %   encode on miss, response cache
=====================  =====  ==========================================

Within a class, key popularity follows Zipf's law (weight ``1 / rank``,
exponent 1) over a seeded order.  The two cached classes together hold
:data:`CACHED_KEYS` distinct keys.

:meth:`Mix.path_requests` gives the traffic of one server path with no
popularity at all: it is what the server's CPU cost per lookup is
measured on.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

CLASS_SHARES: Dict[str, float] = {
    "exact": 0.30,
    "partial": 0.15,
    "unknown": 0.15,
    "portfolio": 0.15,
    "portfolio_k": 0.25,
}

#: Lookup classes answered through the response cache.
CACHED_CLASSES = ("unknown", "portfolio_k")

#: Distinct keys of the two classes that go through the response cache.
CACHED_KEYS = 2048

#: The server paths a lookup can take, measured one at a time: each
#: pre-serialized class, and each cached class on a miss and on a hit.
LOOKUP_PATHS = (
    "exact",
    "partial",
    "portfolio",
    "unknown.miss",
    "unknown.hit",
    "portfolio_k.miss",
    "portfolio_k.hit",
)

#: Most distinct keys a cached path's step sends: both cached classes'
#: keys then fit the default cache together, so the ``.hit`` step that
#: repeats the ``.miss`` step's keys hits on every one.
PATH_KEYS = 500

#: Share of all requests that are ``POST /v1/predict``.
PREDICT_SHARE = 0.10

PORTFOLIO_KS = (1, 2, 3, 4, 5, 6)
PORTFOLIO_TARGETS = (0.8, 0.85, 0.9, 0.95, 0.99)

#: Distinct predict bodies in the mix.
PREDICT_BODIES = 200

Coords = Tuple[Optional[str], Optional[str], Optional[str]]


def _query(path: str, params: Sequence[Tuple[str, object]]) -> str:
    return f"{path}?{urlencode(params)}" if params else path


def _coords_params(coords: Coords) -> List[Tuple[str, str]]:
    return [
        (name, value)
        for name, value in zip(("chip", "app", "input"), coords)
        if value is not None
    ]


def lattice_points(meta: dict) -> Tuple[List[Coords], List[Coords]]:
    """(exact, partial) coordinates of the index's lattice."""
    chips, apps, inputs = meta["chips"], meta["apps"], meta["inputs"]
    exact = [(c, a, i) for c in chips for a in apps for i in inputs]
    partial: List[Coords] = []
    for mask in itertools.product((False, True), repeat=3):
        if all(mask):
            continue
        axes = [vals if on else [None] for vals, on in zip((chips, apps, inputs), mask)]
        partial.extend(itertools.product(*axes))
    return exact, partial


class Lookup:
    """One lookup key: its class, request target and coordinates."""

    __slots__ = ("cls", "target", "coords", "k", "goal")

    def __init__(self, cls: str, target: str, coords: Coords, k=None, goal=None) -> None:
        self.cls = cls
        self.target = target
        self.coords = coords
        self.k = k
        self.goal = goal

    @property
    def is_portfolio(self) -> bool:
        return self.cls.startswith("portfolio")


def key_space(meta: dict) -> Dict[str, List[Lookup]]:
    """Every lookup key of the mix, by class, in canonical order."""
    exact, partial = lattice_points(meta)
    points = exact + partial
    space: Dict[str, List[Lookup]] = {
        "exact": [Lookup("exact", _query("/v1/strategy", _coords_params(c)), c) for c in exact],
        "partial": [Lookup("partial", _query("/v1/strategy", _coords_params(c)), c) for c in partial],
        "portfolio": [
            Lookup("portfolio", _query("/v1/portfolio", _coords_params(c)), c) for c in points
        ],
    }
    explicit = []
    for c in points:
        for k in PORTFOLIO_KS:
            explicit.append(
                Lookup("portfolio_k", _query("/v1/portfolio", _coords_params(c) + [("k", k)]), c, k=k)
            )
        for goal in PORTFOLIO_TARGETS:
            explicit.append(
                Lookup(
                    "portfolio_k",
                    _query("/v1/portfolio", _coords_params(c) + [("target", goal)]),
                    c,
                    goal=goal,
                )
            )
    space["portfolio_k"] = explicit
    # Unknown coordinates: a known value on some axes and a name the
    # index has never seen on another, so the lattice walk falls back.
    unknown = []
    n_unknown = max(0, CACHED_KEYS - len(explicit))
    known = [("chip", meta["chips"]), ("app", meta["apps"]), ("input", meta["inputs"])]
    for n in itertools.count():
        if len(unknown) >= n_unknown:
            break
        axis, _ = known[n % 3]
        other = known[(n + 1) % 3]
        value = other[1][(n // 3) % len(other[1])]
        coords = {"chip": None, "app": None, "input": None}
        coords[axis] = f"unknown-{axis}-{n // 3}"
        coords[other[0]] = value
        c = (coords["chip"], coords["app"], coords["input"])
        unknown.append(Lookup("unknown", _query("/v1/strategy", _coords_params(c)), c))
    space["unknown"] = unknown
    return space


def expected_body(index, key: Lookup) -> bytes:
    """The exact bytes the server must answer for ``key``."""
    from repro.serve.index import render_answer, render_portfolio_answer

    chip, app, inp = key.coords
    if key.is_portfolio:
        if key.k is None and key.goal is None:
            pre = index.portfolio_answer(key.coords)
            if pre is not None:
                return pre[0]
        return render_portfolio_answer(
            index, chip=chip, app=app, input=inp, k=key.k, target=key.goal
        )[0]
    pre = index.answer(key.coords)
    if pre is not None:
        return pre[0]
    return render_answer(index, chip=chip, app=app, input=inp)[0]


class _Zipf:
    """Draws from ``items`` with weight ``1 / rank`` over a seeded order."""

    def __init__(self, items: Sequence, rng: random.Random) -> None:
        self.items = list(items)
        rng.shuffle(self.items)
        self.cum = list(itertools.accumulate(1.0 / r for r in range(1, len(self.items) + 1)))

    def draw(self, rng: random.Random):
        return self.items[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


def predict_bodies(meta: dict, seed: int) -> List[bytes]:
    """Seeded predict bodies: 1-4 items, half with an explicit config."""
    from repro.compiler.options import enumerate_configs

    rng = random.Random(f"predict-{seed}")
    configs = [cfg.key() for cfg in enumerate_configs()]
    bodies = []
    for _ in range(PREDICT_BODIES):
        items = []
        for _ in range(rng.randint(1, 4)):
            item = {
                "chip": rng.choice(meta["chips"]),
                "app": rng.choice(meta["apps"]),
                "input": rng.choice(meta["inputs"]),
            }
            if rng.random() < 0.5:
                item["config"] = rng.choice(configs)
            items.append(item)
        bodies.append(json.dumps({"queries": items}, sort_keys=True).encode())
    return bodies


class Mix:
    """A seeded request stream over one index."""

    def __init__(self, meta: dict, seed: int) -> None:
        self.space = key_space(meta)
        self.bodies = predict_bodies(meta, seed)
        self._path_rng = random.Random(f"paths-{seed}")
        self._path_keys: List[Lookup] = []
        self._rng = random.Random(f"mix-{seed}")
        self._zipf = {cls: _Zipf(keys, self._rng) for cls, keys in self.space.items()}
        self._classes = list(CLASS_SHARES)
        self._cum = list(itertools.accumulate(CLASS_SHARES[c] for c in self._classes))
        self._slot = 0
        self._predict_at = 0

    def next(self, only: Optional[str] = None):
        """The next request: a :class:`Lookup` or a predict body (bytes).

        Exactly one request in each block of ``1 / PREDICT_SHARE`` is a
        predict, at a seeded position within the block.  ``only``
        (``"lookup"`` or ``"predict"``) draws from one side of the mix.
        """
        rng = self._rng
        if only is None:
            block = round(1 / PREDICT_SHARE)
            if self._slot % block == 0:
                self._predict_at = rng.randrange(block)
            only = "predict" if self._slot % block == self._predict_at else "lookup"
            self._slot += 1
        if only == "predict":
            return rng.choice(self.bodies)
        cls = self._classes[bisect.bisect_left(self._cum, rng.random() * self._cum[-1])]
        return self._zipf[cls].draw(rng)

    def path_requests(self, path: str, n: int) -> List[Lookup]:
        """``n`` lookups on one of :data:`LOOKUP_PATHS`, every key alike.

        A pre-serialized class cycles through its keys in a seeded
        order.  ``CLS.miss`` sends up to :data:`PATH_KEYS` distinct keys
        of a cached class, none asked before; ``CLS.hit`` sends the same
        keys again, so it must follow ``CLS.miss`` on the same server.
        """
        cls, _, state = path.partition(".")
        keys = self.space[cls]
        if not state:
            order = self._path_rng.sample(keys, len(keys))
            return [order[i % len(order)] for i in range(n)]
        if state == "miss":
            self._path_keys = self._path_rng.sample(keys, min(n, PATH_KEYS, len(keys)))
        return list(self._path_keys)

    def cache_fill(self) -> List[Lookup]:
        """Every cached key once, least popular first.

        Sent before the mixed traffic, it leaves an LRU cache holding
        the most popular keys it has room for and full, as in a server
        that has run the mix for a long time.
        """
        weighted = []
        for cls in CACHED_CLASSES:
            zipf = self._zipf[cls]
            for rank, key in enumerate(zipf.items, 1):
                weighted.append((CLASS_SHARES[cls] / (rank * zipf.cum[-1]), key.target, key))
        return [key for _, _, key in sorted(weighted, key=lambda w: w[:2])]
