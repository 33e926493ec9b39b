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
from .network import Network, _upstream, check_assignment, merge_assignments

Assignment = Mapping[str, str]

# ExactEngine._factor_set builds a set only when at least this many relevant
# variables per kept or bound one lie outside them; below that the set saves
# less than it costs. Tests set it to 0 to build one for every call.
_REDUCTION_RATIO = 1


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


def _eliminate(work: list[fa.Factor], variables, net: Network) -> list[fa.Factor]:
    """Sum ``variables`` out of the product of ``work``, in the network's
    elimination order, leaving the product unmultiplied in ``work``."""
    for var in sorted(variables, key=net._elimination_rank.get):
        work.append(fa.marginalize(_pop_product(work, var, net), var))
    return work


@dataclass(frozen=True, eq=False)
class _FactorSet:
    """What one explainer call's questions share: the network's factors with
    ``observed`` bound and every relevant variable outside ``keep`` and the
    observed ones summed out, unmultiplied. Its scopes lie within ``keep``."""

    net: Network
    keep: frozenset[str]
    observed: dict[str, str]
    factors: tuple[fa.Factor, ...]


@dataclass(frozen=True)
class QueryResult:
    """Normalized distribution over the query targets plus the evidence mass.

    ``distribution`` has scope in declaration order and sums to one whenever
    ``evidence_probability`` is positive.
    """

    distribution: fa.Factor
    evidence_probability: float


# -- the role and result rules shared by ExactEngine and OracleEngine ----------------


def _check_roles(
    net: Network, free: Sequence[str] = (), **roles: Assignment | None
) -> dict[str, dict[str, str]]:
    """Each role's bindings validated, in declaration order.

    The ``free`` variables (query targets and sources, a flow's source and
    target, hypothesis variables) are declared and distinct, no variable is
    bound in two roles or both free and bound, and an ``explanandum`` binds
    at least one variable.
    """
    out = {name: check_assignment(net, a) if a else {} for name, a in roles.items()}
    if "explanandum" in out and not out["explanandum"]:
        raise ValueError("explanandum must bind at least one variable")
    bound = [name for name in out if out[name]]
    if len(bound) > 1:
        for a, b in itertools.combinations(bound, 2):
            if not out[a].keys().isdisjoint(out[b]):
                shared = ", ".join(sorted(set(out[a]) & set(out[b])))
                raise ValueError(f"variables bound in both {a} and {b}: {shared}")
    if free:
        for v in free:
            net.index(v)
        if len(set(free)) < len(free):
            raise ValueError(f"free variables repeat: {', '.join(free)}")
        for name in bound:
            if not out[name].keys().isdisjoint(free):
                shared = ", ".join(sorted(set(out[name]).intersection(free)))
                raise ValueError(f"free variables bound in {name}: {shared}")
    return out


def _result(joint: fa.Factor, targets: Sequence[str]) -> QueryResult:
    """Normalize the unnormalized joint over ``targets``; its total is the evidence mass.

    Raises:
        ImpossibleEvidenceError: ``targets`` nonempty and the evidence mass is zero.
    """
    if not targets:  # the joint is one cell
        return QueryResult(distribution=fa.unit_factor(), evidence_probability=float(joint.values))
    z = float(joint.values.sum())
    if z <= 0.0:
        raise ImpossibleEvidenceError("conditioning event has probability zero")
    return QueryResult(distribution=fa.Factor(joint.scope, joint.values / z), evidence_probability=z)


def _split(joint: fa.Factor, free: Sequence[str], normalise: bool = True) -> list:
    """``joint`` split into one table per joint state of the ``free`` variables,
    in C order over ``free`` as given.

    Each table holds the cells at that state, with the other axes in
    declaration order, divided by its mass: the table's sum, or one without
    ``normalise``. A table whose mass is zero is None. One vectorised pass
    serves every state. A normalised table needs no cap: its cells are
    nonnegative, so none exceeds their floating-point sum, and none exceeds
    one after the division. Without ``normalise`` the cells are probabilities
    computed by elimination, so they are capped at one against rounding.
    """
    axes = [joint.scope.index(v) for v in free]
    values = joint.values.transpose(axes + [i for i in range(len(joint.scope)) if i not in axes])
    rows = np.ascontiguousarray(values).reshape(-1, *values.shape[len(axes):])
    if not normalise:
        return list(np.minimum(rows, 1.0))
    mass = rows.reshape(len(rows), -1).sum(axis=1)
    per_row = mass.reshape(-1, *(1,) * (rows.ndim - 1))
    scaled = np.divide(rows, per_row, out=np.zeros_like(rows), where=per_row > 0.0)
    return [row if m > 0.0 else None for row, m in zip(scaled, mass.tolist())]


class ExactEngine:
    """Sum-product variable elimination over the network's CPT factors.

    The factors and the elimination order are compiled by the network at
    construction; a query only reads them. An intervention drops the CPT and
    binds the variable (truncated factorization): the forced variable's own
    factor leaves the query, and its children's factors are reduced to the
    forced state, as observed variables' are. Only the variables upstream of
    the targets and observed variables given the intervened ones take part
    (:func:`~bnexplain.network._upstream`, the relation by which the causal
    tree decides which picks can move a label); all others are barren and sum
    to one. They are eliminated in the network's order
    (min-degree on the whole moral graph, declaration order breaking ties)
    restricted to the pruned set. Eliminating every variable of a subgraph in
    the restriction of an order builds no factor wider than that order builds
    on the whole graph, which bounds every query without targets. The
    ``calls`` counter increments once per elimination: per query or forced
    joint of :meth:`_joint`, and per factor set that :meth:`_factor_set`
    builds for one explainer call. It increments under a lock so that
    concurrent queries count exactly, and exists purely as a diagnostic;
    results are pure functions of the arguments, and a factor set lives only
    as long as the call that built it. :meth:`query` and :meth:`probability`
    read the network only through :meth:`_joint`, so
    :class:`~bnexplain.oracle.OracleEngine` binds both over its own joint.
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
        *,
        _reduced: _FactorSet | None = None,
    ) -> QueryResult:
        """Distribution over ``targets`` given observations, after interventions.

        Each intervened variable's CPT is dropped and the variable is bound to
        its forced state; the observations then condition the post-intervention
        distribution. Targets, observed and intervened variables are pairwise
        disjoint. ``_reduced`` is the explainers' own: a factor set of
        :meth:`_factor_set` that the answer starts from (see :meth:`_joint`).

        Raises:
            ValueError: a variable is in two of the three roles.
            ImpossibleEvidenceError: ``targets`` nonempty and p(observed) = 0.
        """
        return _result(self._joint(net, targets, observed, do, reduced=_reduced), targets)

    def _factor_set(self, net: Network, keep, observed: Assignment | None = None
                    ) -> _FactorSet | None:
        """The factor set for one explainer call whose every question keeps
        its targets within ``keep`` and binds ``observed`` and kept variables
        only, or None when it would not pay.

        It binds ``observed`` in the factors of the variables upstream of
        ``keep`` and the observed ones (the relation the causal tree's picks
        are tested by), and sums out all of them but those, in the
        network's elimination order, once for the whole call; that counts as
        one of :attr:`calls`. It is built only when at least
        :data:`_REDUCTION_RATIO` times as many of them lie outside ``keep``
        and ``observed`` as inside. The caller has validated both, and drops
        the set when its call returns.
        """
        observed = dict(observed or {})
        relevant = _upstream(net, [*keep, *observed])
        outside = relevant.difference(keep, observed)
        if len(outside) < _REDUCTION_RATIO * (len(relevant) - len(outside)):
            return None
        with self._lock:
            self.calls += 1
        work = [_reduce(net._factors[v], observed, net) for v in sorted(relevant, key=net.index)]
        return _FactorSet(net, frozenset(keep), observed, tuple(_eliminate(work, outside, net)))

    def _joint(self, net, targets, observed=None, do=None, sources=(), *,
               reduced=None) -> fa.Factor:
        """Unnormalised joint over ``targets`` and the ``sources``, with axes in
        declaration order.

        Its cell t is p(t, observed | do). Each source's CPT factor is replaced
        by ones and the source stays free, so the cell (s, t) is
        p(t, observed | do(do, sources=s)): one elimination answers every joint
        forced state s of the sources (the regime-indicator view of an
        intervention). The upstream walk stops at the sources, as it does at
        the intervened variables, and one all-ones factor over the sources
        carries their axes into the answer. Sources, targets, observed and
        intervened variables are pairwise disjoint.

        Given a factor set ``reduced`` of :meth:`_factor_set`, the answer
        starts from its factors: they are bound by the observations and every
        kept variable that is neither a target nor observed is summed out. It
        answers only questions on its network with no ``do`` and no sources,
        targets among its kept variables, and observations that include its
        own and bind nothing else outside them; any other raises ValueError.
        """
        with self._lock:
            self.calls += 1
        observed, do = _check_roles(net, (*sources, *targets), observed=observed,
                                    do=do).values()

        if reduced is None:
            cut = {*sources, *do}
            relevant = _upstream(net, [*targets, *observed], cut) - cut
            bound = {**observed, **do}
            work = [_reduce(net._factors[v], bound, net) for v in sorted(relevant, key=net.index)]
        else:
            relevant = set(reduced.keep)
            if (reduced.net is not net or do or sources or not relevant.issuperset(targets)
                    or not reduced.observed.items() <= observed.items()
                    or not relevant.issuperset(observed.keys() - reduced.observed.keys())):
                raise ValueError("the factor set cannot answer this question")
            work = [_reduce(f, observed, net) for f in reduced.factors]
        _eliminate(work, relevant.difference(targets, observed), net)

        joint = fa.unit_factor()
        if sources:  # their CPT factors are all ones, and they stay in the answer
            free = tuple(sorted(sources, key=net.index))
            joint = fa.Factor(free, np.ones(tuple(len(net.domain(v)) for v in free)))
        for f in work:
            joint = fa.multiply(joint, f, net)
        return joint

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

        The ratio of two evidence masses. Both queries validate their bindings
        and roles, so they are not checked here; the numerator is asked first,
        so that an event bound in ``do`` is rejected before impossible
        observations are. The numerator's cells are a subset of the
        denominator's, so it is capped there against rounding.
        """
        bound = merge_assignments(event, observed or {})
        numer = self.query(net, (), bound, do).evidence_probability
        denom = self.query(net, (), observed, do).evidence_probability if observed else 1.0
        if denom <= 0.0:
            raise ImpossibleEvidenceError("conditioning event has probability zero")
        return min(numer, denom) / denom


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

    Computed from the exact posterior joint of (x, y), read with its axes in
    declaration order, so swapping x and y reads the same table and the result
    is bit-symmetric. Zero-probability cells contribute zero; rounding noise
    below 0 is clamped. The engine's role check rejects x equal to y, or
    either bound in the context.
    """
    return _mutual_information(_engine(engine).query(net, (x, y), context).distribution.values)


def _mutual_information(table: np.ndarray) -> float:
    """Mutual information in bits of a normalised two-axis table.

    Zero cells contribute zero; rounding noise below 0 is clamped.
    """
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    mask = table > 0.0
    denom = np.outer(px, py)
    return max(0.0, float(np.sum(table[mask] * np.log2(table[mask] / denom[mask]))))


def mpe(
    net: Network,
    evidence: Assignment,
    *,
    engine: ExactEngine | None = None,
) -> tuple[dict[str, str], float]:
    """Most probable completion of the unobserved variables given evidence.

    Runs max-product elimination in reverse declaration order and tracks the
    per-variable argmax tables. The traceback then fixes the free variables in
    declaration order, each to its first state (in state order) whose
    max-product value, as the elimination computes it in floating point, is
    the largest given the states fixed before it. Among maximizers whose
    scores the elimination computes bit-equal, the completion is therefore
    the lexicographically smallest (by declaration order, then state order);
    between maximizers whose exact scores tie but whose computed scores
    differ by rounding, the larger computed score wins, whatever the order.
    On academe with evidence FinalMark=pass, Other=negative this returns
    Theory=good, Practice=average, although Theory=average, Practice=good
    comes first and scores the same (ROADMAP item 4; the strict xfail
    ``test_mpe_oracle_check_accepts_tied_maximisers`` in ``bench/tests``).
    Returns the completion and its posterior probability.
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
