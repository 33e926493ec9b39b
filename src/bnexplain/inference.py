"""Exact observational and interventional inference by variable elimination.

The central object is :class:`ExactEngine`, whose :meth:`ExactEngine.query`
answers one conditional (optionally post-intervention) distribution query per
call from the CPT factors and the elimination order that each network compiles
at construction, eliminating only the variables the answer depends on. The
module-level functions wrap a throwaway engine for one-off use; explainers
accept an engine so call counts and cross-checking behave consistently across
a whole tree construction.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import factors as fa
from .errors import ImpossibleEvidenceError
from .network import Network, check_assignment, merge_assignments

Assignment = Mapping[str, str]


def _reduce(f: fa.Factor, evidence: Assignment, net: Network) -> fa.Factor:
    for var in evidence:
        if var in f.scope:
            f = fa.reduce_var(f, var, net.state_index(var, evidence[var]))
    return f


def _pop_product(work: list[fa.Factor], var: str, net: Network) -> fa.Factor:
    """Take the factors whose scope holds ``var`` out of ``work``; return their product."""
    touching = [f for f in work if var in f.scope]
    work[:] = [f for f in work if var not in f.scope]
    prod = touching[0]
    for f in touching[1:]:
        prod = fa.multiply(prod, f, net)
    return prod


@dataclass(frozen=True)
class QueryResult:
    """Normalized distribution over the query targets plus the evidence mass.

    ``distribution`` has scope in declaration order and sums to one whenever
    ``evidence_probability`` is positive.
    """

    distribution: fa.Factor
    evidence_probability: float


# -- the query contract shared by ExactEngine and OracleEngine ------------------------


def _check_roles(net: Network, **roles: Assignment | None) -> dict[str, dict[str, str]]:
    """Each role's bindings validated, in declaration order; no variable is in two roles."""
    out = {name: check_assignment(net, a) if a else {} for name, a in roles.items()}
    for a, b in itertools.combinations(out, 2):
        shared = set(out[a]) & set(out[b])
        if shared:
            raise ValueError(f"variables bound in both {a} and {b}: {', '.join(sorted(shared))}")
    return out


def _query_args(
    net: Network, targets: Sequence[str], observed: Assignment | None, do: Assignment | None
) -> tuple[dict[str, str], dict[str, str]]:
    """Validated (observed, do) of a query; targets, observed and do are pairwise disjoint."""
    observed, do = _check_roles(net, observed=observed, do=do).values()
    for t in targets:
        net.index(t)
        if t in observed or t in do:
            raise ValueError(f"query target {t!r} is already bound")
    return observed, do


def _result(joint: fa.Factor, targets: Sequence[str]) -> QueryResult:
    """Normalize the unnormalized joint over ``targets``; its total is the evidence mass.

    Raises:
        ImpossibleEvidenceError: ``targets`` nonempty and the evidence mass is zero.
    """
    z = float(joint.values.sum())
    if not targets:
        return QueryResult(distribution=fa.unit_factor(), evidence_probability=z)
    if z <= 0.0:
        raise ImpossibleEvidenceError("conditioning event has probability zero")
    return QueryResult(distribution=fa.Factor(joint.scope, joint.values / z), evidence_probability=z)


def _probability(
    engine, net: Network, event: Assignment, observed: Assignment | None, do: Assignment | None
) -> float:
    """``engine.probability``: the ratio of two evidence masses of ``engine``.

    Both queries validate their bindings and roles, so they are not checked
    here; the numerator is asked first, so that an event bound in ``do`` is
    rejected before impossible observations are. The numerator's cells are a
    subset of the denominator's, so it is capped there against rounding.
    """
    numer = engine.query(net, (), merge_assignments(event, observed or {}), do).evidence_probability
    denom = engine.query(net, (), observed, do).evidence_probability if observed else 1.0
    if denom <= 0.0:
        raise ImpossibleEvidenceError("conditioning event has probability zero")
    return min(numer, denom) / denom


class ExactEngine:
    """Sum-product variable elimination over the network's CPT factors.

    The factors and the elimination order are compiled by the network at
    construction; a query only reads them. An intervention drops the CPT and
    binds the variable (truncated factorization): the forced variable's own
    factor leaves the query, and its children's factors are reduced to the
    forced state, as observed variables' are. Only targets, observed variables
    and their ancestors, up to the intervened variables, take part; all others
    are barren and sum to one. They are eliminated in the network's order
    (min-degree on the whole moral graph, declaration order breaking ties)
    restricted to the pruned set. Eliminating every variable of a subgraph in
    the restriction of an order builds no factor wider than that order builds
    on the whole graph, which bounds every query without targets. The
    ``calls`` counter increments once per query, under a lock so that
    concurrent queries count exactly, and exists purely as a diagnostic;
    results are pure functions of the arguments.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def query(
        self,
        net: Network,
        targets: Sequence[str] = (),
        observed: Assignment | None = None,
        do: Assignment | None = None,
    ) -> QueryResult:
        """Distribution over ``targets`` given observations, after interventions.

        Each intervened variable's CPT is dropped and the variable is bound to
        its forced state; the observations then condition the post-intervention
        distribution. Targets, observed and intervened variables are pairwise
        disjoint.

        Raises:
            ValueError: a variable is in two of the three roles.
            ImpossibleEvidenceError: ``targets`` nonempty and p(observed) = 0.
        """
        with self._lock:
            self.calls += 1
        observed, do = _query_args(net, targets, observed, do)

        relevant, stack = set(), [*targets, *observed]
        while stack:  # ancestors up to the intervened variables; all others are barren
            v = stack.pop()
            if v not in relevant and v not in do:
                relevant.add(v)
                stack.extend(net._factors[v].scope)

        bound = {**observed, **do}
        work = [_reduce(net._factors[v], bound, net) for v in sorted(relevant, key=net.index)]

        for var in sorted(relevant.difference(targets, observed), key=net._elimination_rank.get):
            work.append(fa.marginalize(_pop_product(work, var, net), var))

        joint = fa.unit_factor()
        for f in work:
            joint = fa.multiply(joint, f, net)
        return _result(joint, targets)

    def probability(
        self,
        net: Network,
        event: Assignment,
        observed: Assignment | None = None,
        do: Assignment | None = None,
    ) -> float:
        """p(event | observed) after interventions ``do``, at most one.

        An empty event has probability one. Bindings shared between event and
        observations must agree, and no intervened variable may be conditioned
        on; an observed set of probability zero raises
        :class:`ImpossibleEvidenceError`.
        """
        return _probability(self, net, event, observed, do)


# -- module-level operations ------------------------------------------------------


def _engine(engine: ExactEngine | None) -> ExactEngine:
    return engine if engine is not None else ExactEngine()


def joint_probability(net: Network, full: Assignment) -> float:
    """Chain-rule product over all CPT entries for a full assignment."""
    full = check_assignment(net, full)
    missing = [v.name for v in net.variables if v.name not in full]
    if missing:
        raise ValueError(f"assignment leaves variables unbound: {', '.join(missing)}")
    p = 1.0
    for f in net._factors.values():
        coords = tuple(net.state_index(u, full[u]) for u in f.scope)
        p *= float(f.values[coords])
    return p


def event_probability(
    net: Network,
    event: Assignment,
    given: Assignment | None = None,
    *,
    engine: ExactEngine | None = None,
) -> float:
    """p(event | given), the prior of the event when ``given`` is empty."""
    return _engine(engine).probability(net, event, given)


def query_distribution(
    net: Network,
    targets: Sequence[str],
    given: Assignment | None = None,
    *,
    engine: ExactEngine | None = None,
) -> QueryResult:
    return _engine(engine).query(net, targets, given)


def conditional_mutual_information(
    net: Network,
    x: str,
    y: str,
    context: Assignment | None = None,
    *,
    engine: ExactEngine | None = None,
) -> float:
    """Conditional mutual information I(x ; y | context) in bits.

    Computed from the exact posterior joint of (x, y); zero-probability cells
    contribute zero. Symmetric in x and y; rounding noise below 0 is clamped.
    """
    if x == y:
        raise ValueError("mutual information needs two distinct variables")
    qr = _engine(engine).query(net, (x, y), context)
    values = qr.distribution.values
    if qr.distribution.scope[0] != x:
        values = values.T
    px = values.sum(axis=1)
    py = values.sum(axis=0)
    mask = values > 0.0
    denom = np.outer(px, py)
    return max(0.0, float(np.sum(values[mask] * np.log2(values[mask] / denom[mask]))))


def mpe(
    net: Network,
    evidence: Assignment,
    *,
    engine: ExactEngine | None = None,
) -> tuple[dict[str, str], float]:
    """Most probable completion of the unobserved variables given evidence.

    Runs max-product elimination in reverse declaration order and tracks the
    per-variable argmax tables, so the traceback yields the completion that is
    lexicographically smallest (by declaration order, then state order) among
    all maximizers. Returns the completion and its posterior probability.
    """
    p_evidence = _engine(engine).query(net, (), evidence).evidence_probability
    if p_evidence <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    free = [v.name for v in net.variables if v.name not in evidence]
    if not free:
        return {}, 1.0

    work = [_reduce(f, evidence, net) for f in net._factors.values()]

    traceback: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
    for var in reversed(free):
        maxed, arg = fa.max_out(_pop_product(work, var, net), var)
        traceback[var] = (maxed.scope, arg)
        work.append(maxed)

    best_joint = 1.0
    for f in work:
        best_joint *= float(f.values)

    completion: dict[str, str] = {}
    for var in free:
        scope, arg = traceback[var]
        coords = tuple(net.state_index(u, completion[u]) for u in scope)
        completion[var] = net.domain(var)[int(arg[coords])]
    return completion, best_joint / p_evidence
