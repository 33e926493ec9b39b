"""Interventional queries and causal information-flow measures.

An intervention drops the forced variable's CPT and binds the variable to
the forced state (truncated factorization), then observations condition the
altered distribution. The flow measures below quantify, in bits, how much
forcing a variable changes a target distribution or a single target state.

A flow from a source needs the target under every forced source state. It
takes two eliminations, whatever the number of states: one joint
p(source, observed | do), and one joint in which the source's CPT is
replaced by ones and the source stays free (the regime-indicator view of an
intervention), whose row s is p(target, observed | do, source=s). Both
joints may keep picks free next to the source: a causal-tree node that
keeps its pick free gets, in the same two eliminations, a candidate's terms
under every forced state of the pick, one per branch. :func:`_forced` is
the one place that asks for such a joint and splits it into its rows;
:func:`_terms` asks through it for the flows to a state, with no pick, and
for every causal-tree node.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ImpossibleEvidenceError
from .inference import ExactEngine, _check_roles, _engine, _mutual_information, _split
from .network import Network

Assignment = Mapping[str, str]


def _forced(eng, net, sources, targets, o, d, *, normalise=None) -> list:
    """p(targets | o, do(d, sources=s)) for every joint state s of the sources,
    in C order over ``sources`` as given, from one elimination: an array over
    ``targets`` in declaration order, or None where p(o | do(d, sources=s)) is
    zero, that is, where forcing s contradicts o.

    As in ``probability``, a row is divided by its mass, p(o | do(d,
    sources=s)), only when o binds a variable, unless ``normalise`` says
    otherwise; no cell exceeds one. With no sources there is one row.
    """
    return _split(eng._joint(net, targets, o, d, sources), sources,
                  bool(o) if normalise is None else normalise)


def _forced_event(eng, net, sources, e, o, d) -> list[float | None]:
    """p(e | o, do(d, sources=s)) for every joint state s of the sources, as :func:`_forced`."""
    cell = tuple(net.state_index(v, s) for v, s in e.items())  # e is validated: declaration order
    rows = _forced(eng, net, sources, tuple(e), o, d)
    return [None if row is None else float(row[cell]) for row in rows]


def _mixture(p_source, forced):
    """The ``forced`` terms of the states of positive posterior, weighted by it."""
    return sum(p_source[i] * v for i, v in enumerate(forced) if p_source[i] > 0.0)


def _terms(eng, net, picks, live, candidates, e, o, d) -> dict[int, dict]:
    """The flow terms of each candidate x at do(d, picks=s), keyed by x, for
    every index s in ``live`` of the joint states of ``picks``, which is
    ``()`` or ``(pick,)``: p(x | o', do(d, picks=s)), p(e | o', do(d,
    picks=s, x=t)) for every state t of x (None where forcing t contradicts
    o'), and their mixture, with o' the observations other than x.

    Two eliminations per candidate, sliced at every live s at once: the
    joint over (picks, x) and the joint over (picks, x, e), keeping the
    picks and x free.

    Raises:
        ImpossibleEvidenceError: a live row of p(x | o', do) has no mass.
    """
    terms: dict[int, dict] = {i: {} for i in live}
    for x in candidates:
        rest = {k: v for k, v in o.items() if k != x}
        p_x = _forced(eng, net, picks, (x,), rest, d, normalise=True)  # a distribution over x
        forced = _forced_event(eng, net, (*picks, x), e, rest, d)
        n = len(net.domain(x))
        for i in live:
            if p_x[i] is None:
                raise ImpossibleEvidenceError("conditioning event has probability zero")
            p_e_forced = forced[i * n:(i + 1) * n]
            terms[i][x] = (p_x[i], p_e_forced, _mixture(p_x[i], p_e_forced))
    return terms


def _state_flow(terms, p_e: float) -> float:
    """Flow to the explanandum state from its ``terms`` and p(e | o, do(d)) > 0."""
    p_source, p_e_forced, mixture = terms
    return sum(((p_source[i] * v / p_e) * math.log2(v / mixture)
                for i, v in enumerate(p_e_forced) if p_source[i] > 0.0 and v > 0.0), 0.0)


def _pointwise(net, source, state, terms) -> float:
    """log2 of p(e | o, do(d, source=state)) over the mixture of ``terms``."""
    _, p_e_forced, mixture = terms
    if mixture <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero in this context")
    numer = p_e_forced[net.state_index(source, state)]
    if numer is None:
        raise ImpossibleEvidenceError("conditioning event has probability zero")
    return math.log2(numer / mixture) if numer > 0.0 else float("-inf")


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

    The mutual information of the interventional joint
    J[x, t] = p(x | observed, do) · p(t | observed, do(do, source=x)), one row
    per source state x of positive posterior (Ay and Polani). It equals the
    sum over those x of p(x)·KL(p(target | do(x)) || p*(target)), where p*
    mixes the interventional target distributions by p(x); like every mutual
    information here it is never negative. Zero iff no directed
    source-to-target path avoids the intervened (and observed) variables, for
    faithful distributions. A deterministic binary copy of the source scores
    exactly one bit. The engine checks the roles: the source and target are
    distinct, and neither is observed or intervened on.
    """
    eng = _engine(engine)
    p_source = eng.query(net, (source,), observed, do).distribution.values
    p_target = _forced(eng, net, (source,), (target,), observed, do)
    return _mutual_information(
        np.array([p * row for p, row in zip(p_source, p_target) if p > 0.0]))


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
    Validates, then applies :func:`_state_flow` to the :func:`_terms` that a
    causal-tree node gets for each unobserved candidate.
    """
    e, o, d = _check_roles(net, (source,), explanandum=explanandum, observed=observed,
                           do=do).values()
    eng = _engine(engine)

    p_e = eng.probability(net, e, o, d)
    if p_e <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero in this context")
    return _state_flow(_terms(eng, net, (), [0], [source], e, o, d)[0][source], p_e)


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
    :func:`_terms` that a causal-tree node gets for each observed candidate.

    Raises:
        ImpossibleEvidenceError: ``observed_rest`` or the explanandum has
            probability zero under ``do``.
    """
    e, o, d = _check_roles(net, (source,), explanandum=explanandum, observed=observed_rest,
                           do=do).values()
    net.state_index(source, state)
    eng = _engine(engine)
    return _pointwise(net, source, state, _terms(eng, net, (), [0], [source], e, o, d)[0][source])
