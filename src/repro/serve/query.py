"""SLO query specifications and their answers.

A :class:`QuerySpec` is the serving tier's unit of work: *will this
workload on this platform meet deadline ``T`` at percentile ``p``?*
It is a frozen, hashable dataclass — the same discipline as
:class:`~repro.scenarios.spec.ScenarioSpec` — so a query can be
shipped over the wire as plain JSON, hashed into a memo key, and
re-answered years later byte-identically.

Answering a query prices the spec over a *seed pool*: ``pool``
reference scenarios differing only in seed (``seed_base + i``), whose
makespans form the empirical distribution the percentiles are read
from.  SLO semantics over the pool:

- a completed run contributes its makespan;
- a non-completed run (churn, timeout) contributes ``+inf`` — it
  missed every deadline, which is exactly what the tail must see;
- the verdict is ``meets = makespan@p <= deadline`` with an infinite
  estimate never meeting.

The percentile estimator is the shared
:func:`repro.analysis.percentiles.percentile`, so a daemon answer and
a ``compare --percentiles`` column over the same pool agree exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import __version__ as _ENGINE_VERSION
from ..analysis.percentiles import (
    SLO_PERCENTILES,
    finite_or_none,
    pct_key,
    percentile,
)
from ..scenarios.runner import ScenarioResult
from ..scenarios.spec import SCHEMA_VERSION, ScenarioSpec

#: Bump when query semantics or the answer payload change: it salts
#: the query hash (alongside the scenario SCHEMA_VERSION and the
#: package version), so stale on-disk answers invalidate exactly like
#: stale scenario results.
SERVE_SCHEMA_VERSION = 1

#: The SLO fields a query adds to its scenario; ``seed_base`` is its seed.
_SLO_FIELDS = ("deadline", "percentile", "pool", "seed_base")

#: A query's scenario: ``_BASE`` with any field but ``_FIXED`` set
#: (pool members are ``reference`` runs, named and seeded per member).
_FIXED = frozenset({"name", "kind", "seed"})
_BASE = ScenarioSpec(name="serve", kind="reference")


@dataclass(frozen=True, init=False)
class QuerySpec:
    """One SLO query: a scenario × deadline × percentile × seed pool.

    ``scenario`` is a plain :class:`~repro.scenarios.spec.ScenarioSpec`,
    so any grid point a sweep can run, the daemon can answer, through
    the same result cache.  Its ``kind`` is fixed to ``reference``
    (an SLO verdict prices what would actually happen, not a trace
    replay); pool member ``i`` of ``pool`` runs at seed
    ``seed_base + i``, where ``seed_base`` is the scenario's seed.
    Build it from a ``scenario``, from the flat ``ScenarioSpec``
    keywords (``workload=…, n_peers=…``) plus ``seed_base``, or from
    both (the flat keywords then override the scenario's fields).
    """

    deadline: float
    percentile: float
    pool: int
    scenario: ScenarioSpec

    def __init__(self, deadline: float, percentile: float = 99.0,
                 pool: int = 5, scenario: ScenarioSpec = _BASE,
                 seed_base: Optional[int] = None,
                 **scenario_fields: Any) -> None:
        # a name, kind or seed among the flat keywords collides here
        if (seed_base is not None or scenario_fields
                or (scenario.name, scenario.kind) != ("serve", "reference")):
            scenario = replace(
                scenario, name="serve", kind="reference",
                seed=scenario.seed if seed_base is None else seed_base,
                **scenario_fields,
            )
        if not deadline > 0:
            raise ValueError(f"deadline must be > 0, got {deadline!r}")
        if not 0.0 < percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {percentile!r}"
            )
        # pool feeds range(): a float off the wire is a bad query, not
        # an internal error (the scenario checks its own int fields)
        if type(pool) is not int or pool < 1:
            raise ValueError(f"pool must be an integer >= 1, got {pool!r}")
        if scenario.seed < 0:
            raise ValueError(f"seed_base must be >= 0, got {scenario.seed!r}")
        # frozen: write the fields past the dataclass __setattr__ guard
        self.__dict__.update(deadline=deadline, percentile=percentile,
                             pool=pool, scenario=scenario)

    @property
    def seed_base(self) -> int:
        """Seed of the first pool member."""
        return self.scenario.seed

    def scenario_specs(self) -> Tuple[ScenarioSpec, ...]:
        """The seed pool: ``pool`` reference specs at consecutive seeds.

        Point names carry a ``[seed=...]`` grid label, so a manifest
        built from the same pool is ``compare``-able (the
        "query the grid you just swept" path works both directions).
        """
        qh = self.query_hash()
        return tuple(
            replace(self.scenario, seed=seed,
                    name=f"serve:{qh}[seed={seed}]")
            for seed in range(self.seed_base, self.seed_base + self.pool)
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-safe, round-trips via from_dict): the
        scenario's, less ``name``/``kind``/``seed``, plus the SLO fields."""
        d = self.scenario.to_dict()
        del d["name"], d["kind"], d["seed"]
        d.update(deadline=self.deadline, percentile=self.percentile,
                 pool=self.pool, seed_base=self.seed_base)
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuerySpec":
        """Rebuild a query from its to_dict() form, strictly: a typo'd
        field must not silently price a different query."""
        if not isinstance(data, Mapping):
            raise ValueError(f"query must be an object, got {type(data).__name__}")
        d = dict(data)
        slo = {k: d.pop(k) for k in _SLO_FIELDS if k in d}
        unknown = sorted(
            set(d) & _FIXED | set(d) - {f.name for f in fields(ScenarioSpec)}
        )
        if unknown:
            raise ValueError(f"unknown query field(s): {', '.join(unknown)}")
        scenario = ScenarioSpec.from_dict(dict(
            d, name="serve", kind="reference",
            seed=slo.pop("seed_base", ScenarioSpec.seed),
        ))
        try:
            return cls(scenario=scenario, **slo)
        except TypeError as exc:
            raise ValueError(f"bad query payload: {exc}") from None

    # -- hashing ------------------------------------------------------------
    def hash_payload(self) -> Dict[str, Any]:
        """Everything that defines the answer."""
        d = self.to_dict()
        d["schema"] = SCHEMA_VERSION
        d["serve_schema"] = SERVE_SCHEMA_VERSION
        d["engine"] = _ENGINE_VERSION
        return d

    def query_hash(self) -> str:
        """Stable 16-hex-digit content hash (memoized per instance)."""
        cached = self.__dict__.get("_query_hash")
        if cached is None:
            blob = json.dumps(self.hash_payload(), sort_keys=True,
                              separators=(",", ":"))
            cached = hashlib.sha256(blob.encode()).hexdigest()[:16]
            object.__setattr__(self, "_query_hash", cached)
        return cached

    # -- grid-style overrides ----------------------------------------------
    def with_override(self, path: str, value: Any) -> "QuerySpec":
        """A copy with one (possibly dotted) field replaced — the same
        override grammar the scenarios CLI uses for ``--set``: an SLO
        field here, any other path on the scenario."""
        if path in _SLO_FIELDS:
            return replace(self, **{path: value})
        if path.partition(".")[0] in _FIXED:
            raise KeyError(f"unknown query field {path!r}")
        return replace(self, scenario=self.scenario.with_override(path, value))


@dataclass
class Answer:
    """The daemon's reply to one :class:`QuerySpec`.

    ``samples`` is the sorted makespan pool with ``None`` marking
    non-completed runs (they sort last — JSON has no ``inf``);
    ``percentiles`` is the fixed SLO summary (P50/P90/P99/P99.9);
    ``value`` is the makespan at the *requested* percentile and
    ``meets`` the verdict against the deadline.  Everything is plain
    deterministic data: :meth:`canonical_json` is the byte-identity
    contract the concurrency harness pins.
    """

    query_hash: str
    pool: int
    completed: int
    deadline: float
    percentile: float
    value: Optional[float]
    meets: bool
    percentiles: Dict[str, Optional[float]] = field(default_factory=dict)
    samples: List[Optional[float]] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        """Fraction of the pool that completed."""
        return self.completed / self.pool if self.pool else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        d = asdict(self)
        d["completion_rate"] = self.completion_rate
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Answer":
        """Rebuild an answer from its to_dict() form."""
        d = dict(data)
        d.pop("completion_rate", None)  # derived, not stored state
        return cls(**d)

    def canonical_json(self) -> str:
        """Deterministic serialization (the byte-identity contract)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def compute_answer(
    query: QuerySpec, results: Sequence[ScenarioResult]
) -> Answer:
    """Fold a seed pool's results into one SLO answer.

    A run that did not complete — protocol-level non-completion under
    churn *or* a hard engine error — contributes ``+inf``: under SLO
    semantics it missed every deadline, and hiding it would bias the
    tail optimistic.
    """
    if len(results) != query.pool:
        raise ValueError(
            f"expected {query.pool} pool results, got {len(results)}"
        )
    makespans: List[float] = []
    for result in results:
        done = result.ok and result.metrics.get("completed") == 1.0
        makespans.append(result.metrics["makespan"] if done else math.inf)
    makespans.sort()
    value = finite_or_none(percentile(makespans, query.percentile))
    return Answer(
        query_hash=query.query_hash(),
        pool=query.pool,
        completed=sum(1 for m in makespans if math.isfinite(m)),
        deadline=query.deadline,
        percentile=query.percentile,
        value=value,
        meets=value is not None and value <= query.deadline,
        percentiles={
            pct_key(p): finite_or_none(percentile(makespans, p))
            for p in SLO_PERCENTILES
        },
        samples=[finite_or_none(m) for m in makespans],
    )
