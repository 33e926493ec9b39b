"""Interventional queries and causal information-flow measures.

An intervention drops the forced variable's CPT and binds the variable to
the forced state (truncated factorization), then observations condition the
altered distribution. The flow measures below quantify, in bits, how much
forcing a variable changes a target distribution or a single target state.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Mapping

from .errors import ImpossibleEvidenceError
from .inference import ExactEngine, _check_roles, _engine
from .network import Network

Assignment = Mapping[str, str]


def _forced(eng, net, source, o, d, measure):
    """p(source | o, do(d)), then ``measure(do(d, source=s))`` keyed by the index
    of every state s of positive posterior, and their posterior-weighted mixture."""
    p_source = eng.query(net, (source,), o, d).distribution.values
    states = enumerate(net.domain(source))
    forced = {i: measure({**d, source: s}) for i, s in states if p_source[i] > 0.0}
    return p_source, forced, sum(p_source[i] * forced[i] for i in forced)


def _state_terms(eng, net, source, e, o, d):
    """:func:`_forced` with the measure p(e | o, do(·)): the terms that
    :func:`_state_flow`, :func:`_pointwise` and the causal tree's labels share."""
    return _forced(eng, net, source, o, d, partial(eng.probability, net, e, o))


def _state_flow(terms, p_e: float) -> float:
    """Flow to the explanandum state from its ``terms`` and p(e | o, do(d)) > 0."""
    p_source, p_e_forced, mixture = terms
    return sum(((p_source[i] * v / p_e) * math.log2(v / mixture)
                for i, v in p_e_forced.items() if v > 0.0), 0.0)


def _pointwise(eng, net, source, state, e, o, d, terms) -> float:
    """log2 of p(e | o, do(d, source=state)) over the mixture of ``terms``.

    The known state's term is asked of the engine only when its posterior is
    zero, so that it is missing from ``terms``.
    """
    _, p_e_forced, mixture = terms
    if mixture <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero in this context")
    i = net.state_index(source, state)
    numer = p_e_forced[i] if i in p_e_forced else eng.probability(net, e, o, {**d, source: state})
    return math.log2(numer / mixture) if numer > 0.0 else float("-inf")


def _flow_roles(net, source, explanandum, observed, do) -> tuple[dict[str, str], ...]:
    """Validated (explanandum, observed, do) of a flow from ``source``.

    The roles are disjoint, the explanandum is nonempty and the source is unbound.
    """
    e, o, d = _check_roles(net, explanandum=explanandum, observed=observed, do=do).values()
    if not e:
        raise ValueError("explanandum must bind at least one variable")
    net.index(source)
    if source in e or source in o or source in d:
        raise ValueError(f"source {source!r} is already bound in the query")
    return e, o, d


def interventional_probability(
    net: Network,
    event: Assignment,
    observed: Assignment | None = None,
    do: Assignment | None = None,
    *,
    engine: ExactEngine | None = None,
) -> float:
    """p(event | observed) evaluated after forcing ``do``: intervene, then condition."""
    roles = _check_roles(net, event=event, observed=observed, do=do)
    return _engine(engine).probability(net, roles["event"], roles["observed"], roles["do"])


def information_flow(
    net: Network,
    source: str,
    target: str,
    do: Assignment | None = None,
    observed: Assignment | None = None,
    *,
    engine: ExactEngine | None = None,
) -> float:
    """Causal information flow from ``source`` to ``target`` in bits.

    Sum over source states x of p(x)·KL(p(target | do(x)) || p*(target)),
    where p* mixes the interventional target distributions by p(x) and all
    distributions are conditioned on ``observed`` and post-``do``. Zero iff no
    directed source-to-target path avoids the intervened (and observed)
    variables, for faithful distributions. A deterministic binary copy of the
    source scores exactly one bit.
    """
    net.index(source)
    net.index(target)
    if source == target:
        raise ValueError("source and target must differ")
    d, o = _check_roles(net, do=do, observed=observed).values()
    for v in (source, target):
        if v in d or v in o:
            raise ValueError(f"variable {v!r} may not be intervened or observed here")
    eng = _engine(engine)

    p_source, p_target, mixture = _forced(
        eng, net, source, o, d, lambda forced: eng.query(net, (target,), o, forced).distribution.values
    )

    total = 0.0
    for i, dist in p_target.items():
        for j in range(dist.shape[0]):
            if dist[j] > 0.0:
                total += p_source[i] * dist[j] * math.log2(dist[j] / mixture[j])
    return total


def flow_to_state(
    net: Network,
    source: str,
    explanandum: Assignment,
    observed: Assignment | None = None,
    do: Assignment | None = None,
    *,
    engine: ExactEngine | None = None,
) -> float:
    """Information flow from ``source`` to one explanandum state, in bits.

    The per-state specialization of :func:`information_flow`: the target
    summation collapses to the explanandum event and the whole expression is
    divided by its current probability, so that averaging over explanandum
    states weighted by their probability recovers the full flow. May be
    negative when forcing the source tends to make the explanandum rarer.
    Validates, then applies :func:`_state_flow` to the :func:`_state_terms`
    that a causal-tree node computes for each unobserved candidate.
    """
    e, o, d = _flow_roles(net, source, explanandum, observed, do)
    eng = _engine(engine)

    p_e = eng.probability(net, e, o, d)
    if p_e <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero in this context")
    return _state_flow(_state_terms(eng, net, source, e, o, d), p_e)


def pointwise_flow(
    net: Network,
    source: str,
    state: str,
    explanandum: Assignment,
    observed_rest: Assignment | None = None,
    do: Assignment | None = None,
    *,
    engine: ExactEngine | None = None,
) -> float:
    """Flow from one known source value to the explanandum state, in bits.

    Used when the source variable is itself observed: ``observed_rest`` must
    be the observation set with the source's own binding removed. The score is
    the log-ratio of the explanandum probability under do(source=state) to its
    mixture over all forced source values, weighted by the source posterior.
    Returns ``-inf`` when forcing the known value makes the explanandum
    impossible. Validates, then applies :func:`_pointwise` to the
    :func:`_state_terms` that a causal-tree node computes for each observed
    candidate.
    """
    e, o, d = _flow_roles(net, source, explanandum, observed_rest, do)
    net.state_index(source, state)
    eng = _engine(engine)
    return _pointwise(eng, net, source, state, e, o, d, _state_terms(eng, net, source, e, o, d))
