"""Property tests: the engine, the causal measures and causal explanation
trees against the enumeration oracle.

Networks are drawn by ``conftest._draw_network`` with 2-8 variables of up to
3 states, optionally (always, for the trees) with exact one-hot CPT rows and
optionally declared in a non-topological order. Every pair of computations
must agree within 1e-9, or both raise the same exception type, or both return
``-inf``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bnexplain import (
    ExactEngine,
    ImpossibleEvidenceError,
    OracleEngine,
    causal_explanation_tree,
    flow_to_state,
    information_flow,
    mutilate,
    oracle_flow_to_state,
    oracle_information_flow,
    oracle_interventional_probability,
    oracle_pointwise_flow,
    pointwise_flow,
)

from conftest import _draw_network

_TOLERANCE = 1e-9


@st.composite
def networks(draw, zero_one=st.booleans()):
    return _draw_network(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        draw(st.integers(2, 8)),
        max_parents=3,
        name="drawn",
        max_states=3,
        zero_one=draw(zero_one),
        shuffled=draw(st.booleans()),
    )


def _assignment(data, net, names, max_size=3):
    chosen = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=max_size))
    return {v: data.draw(st.sampled_from(net.domain(v))) for v in chosen}


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # every library error is a ValueError
        return type(exc)


def _assert_close(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    elif want == -math.inf or got == -math.inf:
        assert got == want
    else:
        assert abs(got - want) <= _TOLERANCE, (got, want)


def _assert_same_query(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        _assert_close(got.evidence_probability, want.evidence_probability)
        assert got.distribution.scope == want.distribution.scope
        assert np.allclose(got.distribution.values, want.distribution.values,
                           rtol=0.0, atol=_TOLERANCE)


def _without(bindings, *others):
    return {v: s for v, s in bindings.items() if not any(v in o for o in others)}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(net=networks(), data=st.data())
def test_exact_engine_matches_oracle_engine(net, data):
    """The drawn roles may overlap, which both engines must reject alike; a
    disjoint copy of them is answered, also by the engine on the mutilated
    network without ``do``."""
    names = [v.name for v in net.variables]
    targets = tuple(data.draw(st.lists(st.sampled_from(names), unique=True, max_size=3)))
    observed = _assignment(data, net, names)
    do = _assignment(data, net, names, max_size=2)
    event = _assignment(data, net, names)
    exact, oracle = ExactEngine(), OracleEngine()

    _assert_same_query(_outcome(lambda: exact.query(net, targets, observed, do)),
                       _outcome(lambda: oracle.query(net, targets, observed, do)))
    _assert_close(_outcome(lambda: exact.probability(net, event, observed, do)),
                  _outcome(lambda: oracle.probability(net, event, observed, do)))

    observed_d = _without(observed, targets)
    do_d = _without(do, targets, observed_d)
    want = _outcome(lambda: oracle.query(net, targets, observed_d, do_d))
    _assert_same_query(_outcome(lambda: exact.query(net, targets, observed_d, do_d)), want)
    _assert_same_query(_outcome(lambda: exact.query(mutilate(net, do_d), targets, observed_d)), want)
    do_p = _without(do, event, observed)
    _assert_close(_outcome(lambda: exact.probability(net, event, observed, do_p)),
                  _outcome(lambda: oracle.probability(net, event, observed, do_p)))


@st.composite
def flow_cases(draw):
    """A network, a source, a second variable and disjoint explanandum,
    observation and intervention sets that leave both unbound."""
    net = draw(networks())
    names = [v.name for v in net.variables]
    source, other = draw(st.permutations(names))[:2]
    roles = {v: draw(st.sampled_from(("free", "explanandum", "observed", "do")))
             for v in names if v not in (source, other)}

    def bound(role):
        return {v: draw(st.sampled_from(net.domain(v))) for v, r in roles.items() if r == role}

    explanandum = {other: draw(st.sampled_from(net.domain(other))), **bound("explanandum")}
    return net, source, other, explanandum, bound("observed"), bound("do")


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=flow_cases(), data=st.data())
def test_flows_match_oracle_flows(case, data):
    net, source, other, explanandum, observed, do = case
    state = data.draw(st.sampled_from(net.domain(source)))

    _assert_close(_outcome(lambda: flow_to_state(net, source, explanandum, observed, do)),
                  _outcome(lambda: oracle_flow_to_state(net, source, explanandum, observed, do)))
    _assert_close(
        _outcome(lambda: pointwise_flow(net, source, state, explanandum, observed, do)),
        _outcome(lambda: oracle_pointwise_flow(net, source, state, explanandum, observed, do)),
    )
    _assert_close(_outcome(lambda: information_flow(net, source, other, do, observed)),
                  _outcome(lambda: oracle_information_flow(net, source, other, do, observed)))


@st.composite
def cet_cases(draw):
    """A network with one-hot rows, an explanandum, 1-3 hypothesis variables
    and observations of other variables, optionally of one hypothesis variable."""
    net = draw(networks(zero_one=st.just(True)))
    names = draw(st.permutations([v.name for v in net.variables]))
    n_hyp = draw(st.integers(1, min(3, len(names) - 1)))
    hyp, rest = names[1:1 + n_hyp], names[1 + n_hyp:]
    explanandum = {names[0]: draw(st.sampled_from(net.domain(names[0])))}
    watched = [v for v in rest if draw(st.booleans())] + [hyp[0]] * draw(st.booleans())
    observed = {v: draw(st.sampled_from(net.domain(v))) for v in watched}
    return net, hyp, observed, explanandum


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=cet_cases())
def test_cet_labels_and_pruned_branches_match_oracle(case):
    net, hyp, observed, e = case
    prior = _outcome(lambda: oracle_interventional_probability(net, e, observed))
    tree = _outcome(lambda: causal_explanation_tree(net, hyp, observed, e))
    if prior is ImpossibleEvidenceError or prior == 0.0:
        assert tree is ImpossibleEvidenceError
        return

    def check(node, path, o):
        if node.is_leaf():
            return
        o_rest = {k: v for k, v in o.items() if k != node.variable}
        for branch in node.branches:
            forced = {**path, node.variable: branch.state}
            p = _outcome(lambda: oracle_interventional_probability(net, e, o_rest, forced))
            assert branch.pruned == (p is ImpossibleEvidenceError), (forced, p)
            if branch.pruned:
                assert branch.label is None
            else:
                assert (branch.label == -math.inf) == (p == 0.0), (forced, branch.label, p)
                if p > 0.0:
                    assert abs(branch.label - math.log2(p / prior)) <= _TOLERANCE
            check(branch.subtree, forced, o_rest)

    check(tree, {}, observed)
