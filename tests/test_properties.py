"""Property tests: the engine, its forced joints, the causal measures and
both kinds of explanation tree against the enumeration oracle, and the
explainers' rounding-noise rule (:func:`bnexplain.explain._reaches`) on
drawn scores.

Networks are drawn by ``conftest._draw_network`` with 2-8 variables of up to
3 states, optionally (always, for the trees) with exact one-hot CPT rows and
optionally declared in a non-topological order. Every pair of computations
must agree within 1e-9, or both raise the same exception type, or both return
``-inf``.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnexplain import (
    Branch,
    CheckedEngine,
    ExactEngine,
    ExplainerConfig,
    Explanation,
    ExplanationTree,
    Factor,
    ImpossibleEvidenceError,
    OracleDivergenceError,
    OracleEngine,
    bayes_factor_search,
    causal_explanation_tree,
    explanation_tree,
    flow_to_state,
    information_flow,
    mutilate,
    oracle_conditional_mutual_information,
    oracle_flow_to_state,
    oracle_information_flow,
    oracle_interventional_probability,
    oracle_pointwise_flow,
    pointwise_flow,
    reachable,
)

from bnexplain import inference
from bnexplain.explain import _argmax, _rank, _reaches
from bnexplain.inference import _split
from conftest import _draw_network

_TOLERANCE = 1e-9
# ExactEngine._factor_set's size rule patched to build a set for every ET and
# BF call, then for none, whatever the drawn network's size
_FACTOR_SET_ON_OFF = (0, math.inf)


@st.composite
def networks(draw, zero_one=st.booleans(), min_vars=2):
    return _draw_network(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        draw(st.integers(min_vars, 8)),
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
def forced_joint_cases(draw, n_sources=1, zero_one=st.booleans()):
    """A network, ``n_sources`` sources, targets and disjoint observation and
    intervention sets that leave the sources and the targets unbound."""
    net = draw(networks(zero_one=zero_one, min_vars=n_sources + 1))
    names = draw(st.permutations([v.name for v in net.variables]))
    sources, names = tuple(names[:n_sources]), names[n_sources:]
    roles = {v: draw(st.sampled_from(("free", "target", "observed", "do"))) for v in names}

    def bound(role):
        return {v: draw(st.sampled_from(net.domain(v))) for v, r in roles.items() if r == role}

    targets = tuple(v for v, r in roles.items() if r == "target")
    return net, sources, targets, bound("observed"), bound("do")


def _assert_same_joint(net, sources, targets, observed, do):
    got = ExactEngine()._joint(net, targets, observed, do, sources)
    want = OracleEngine()._joint(net, targets, observed, do, sources)
    assert got.scope == tuple(sorted((*sources, *targets), key=net.index)) == want.scope
    assert np.allclose(got.values, want.values, rtol=0.0, atol=_TOLERANCE)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=forced_joint_cases())
def test_forced_joint_matches_oracle_engine(case):
    """One elimination with the source's CPT replaced by ones gives, for every
    source state s, the oracle's masked sum over the joint under do(source=s),
    including the all-zero rows of states that contradict the observations."""
    _assert_same_joint(*case)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=forced_joint_cases(n_sources=2, zero_one=st.just(True)))
def test_two_source_forced_joint_matches_oracle_engine(case):
    """Two sources kept free in one elimination give, for every joint forced
    state, the oracle's masked sum over its own one-hot table; the networks
    have one-hot CPT rows, so many slices are all zero."""
    _assert_same_joint(*case)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=forced_joint_cases(), data=st.data())
def test_checked_engine_rejects_a_perturbed_forced_joint(case, data):
    net, sources, targets, observed, do = case

    class Perturbed(ExactEngine):
        def _joint(self, net, targets, observed=None, do=None, sources=(), *, reduced=None):
            joint = super()._joint(net, targets, observed, do, sources, reduced=reduced)
            if not sources:
                return joint
            values = joint.values.copy()
            values.flat[data.draw(st.integers(0, values.size - 1))] += 1e-6
            return Factor(joint.scope, values)

    with pytest.raises(OracleDivergenceError):
        CheckedEngine(Perturbed())._joint(net, targets, observed, do, sources)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_split_matches_a_per_row_loop(data):
    """The vectorised split equals, bit for bit, a loop over the joint states
    of the free variables: each table divided by its sum, which no cell
    exceeds, or capped at one and divided by one; None where the sum is zero."""
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    scope = tuple("abcd"[:len(shape)])
    cells = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                               min_size=math.prod(shape), max_size=math.prod(shape)))
    joint = Factor(scope, np.reshape(cells, shape))
    free = data.draw(st.permutations(scope))[:data.draw(st.integers(1, min(2, len(scope))))]
    normalise = data.draw(st.booleans())

    values = np.moveaxis(joint.values, [scope.index(v) for v in free], range(len(free)))
    want = []
    for state in itertools.product(*map(range, values.shape[:len(free)])):
        row = values[state]
        if not normalise:
            want.append(np.minimum(row, 1.0))
        else:
            mass = float(row.sum())
            want.append(row / mass if mass > 0.0 else None)
    got = _split(joint, free, normalise)
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        assert w is None or (g.shape == w.shape and np.array_equal(g, w))
        assert w is None or not normalise or np.all(g <= 1.0)


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
    flow = _outcome(lambda: information_flow(net, source, other, do, observed))
    _assert_close(flow, _outcome(lambda: oracle_information_flow(net, source, other, do, observed)))
    assert isinstance(flow, type) or flow >= 0.0  # a mutual information


@st.composite
def cet_cases(draw):
    """A network with one-hot rows, an explanandum, 1-3 hypothesis variables
    and observations of at most two other variables, optionally of one
    hypothesis variable too.

    The explanandum is the variable with the most ancestors, and the
    hypothesis variables are drawn from its ancestors first, so that most
    candidates have a causal path to it and picks often have a live branch
    with candidates left to score.
    """
    n_hyp = draw(st.sampled_from((1, 2, 3)))  # about evenly; st.integers favours 1
    net = draw(networks(zero_one=st.just(True), min_vars=n_hyp + 1))
    names = [v.name for v in net.variables]
    above = {t: [v for v in names if v != t and reachable(net, v, t)] for t in names}
    target = max(names, key=lambda t: len(above[t]))
    others = [v for v in names if v != target and v not in above[target]]
    pool = draw(st.permutations(above[target])) + draw(st.permutations(others))
    hyp, rest = pool[:n_hyp], pool[n_hyp:]
    explanandum = {target: draw(st.sampled_from(net.domain(target)))}
    watched = draw(st.lists(st.sampled_from(rest), unique=True, max_size=2)) if rest else []
    watched += [hyp[0]] * draw(st.booleans())
    observed = {v: draw(st.sampled_from(net.domain(v))) for v in watched}
    return net, hyp, observed, explanandum


def _reference_causal_tree(net, hyp, observed, e):
    """The causal tree by its definition, on the oracle: at every node the
    oracle flow to the explanandum state (pointwise flow for an observed
    candidate) of every candidate with a directed path to e that avoids the
    observed and intervened variables, zero for the others, and branch labels
    from the oracle's interventional probabilities."""
    o = _without(observed, e)
    prior = oracle_interventional_probability(net, e, o)
    if prior <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero given the observations")

    def grow(hyp, o, path):
        blocked = set(o) | set(path)
        scores = {}
        for x in hyp:
            if not any(reachable(net, x, t, blocked) for t in e):
                scores[x] = 0.0
            elif x in o:
                scores[x] = oracle_pointwise_flow(net, x, o[x], e, _without(o, {x}), path)
            else:
                scores[x] = oracle_flow_to_state(net, x, e, o, path)
        best = max(scores.values())
        pick = next(v for v in hyp if scores[v] >= best - 1e-12 * max(1.0, abs(best)))
        if scores[pick] < -1e-12:  # alpha is 0
            return ExplanationTree()
        o_rest, left = _without(o, {pick}), tuple(v for v in hyp if v != pick)
        branches = []
        for state in (o[pick],) if pick in o else net.domain(pick):
            forced = {**path, pick: state}
            p = _outcome(lambda: oracle_interventional_probability(net, e, o_rest, forced))
            if p is ImpossibleEvidenceError:
                branches.append(Branch(state, None, ExplanationTree(), pruned=True))
            elif p > 0.0:
                sub = grow(left, o_rest, forced) if left else ExplanationTree()
                branches.append(Branch(state, math.log2(p / prior), sub))
            else:
                branches.append(Branch(state, -math.inf, ExplanationTree()))
        return ExplanationTree(pick, tuple(branches))

    hyp = tuple(v.name for v in net.variables if v.name in hyp)
    return grow(hyp, o, {})


def _assert_same_causal_tree(got, want):
    assert got.variable == want.variable
    def shape(node):
        return [(b.state, b.pruned) for b in node.branches]

    assert shape(got) == shape(want)
    for g, w in zip(got.branches, want.branches):
        if w.label is None or w.label == -math.inf:
            assert g.label == w.label, (got.variable, g.state, g.label, w.label)
        else:
            assert abs(g.label - w.label) <= _TOLERANCE, (got.variable, g.state, g.label, w.label)
        _assert_same_causal_tree(g.subtree, w.subtree)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=cet_cases())
def test_cet_labels_and_pruned_branches_match_oracle(case):
    """The tree's picks, pruned branches and labels are those of the tree
    grown by definition on the oracle, where every node asks for its own
    flows; the tree's children instead get their terms from joints that
    keep the pick free."""
    net, hyp, observed, e = case
    want = _outcome(lambda: _reference_causal_tree(net, hyp, observed, e))
    got = _outcome(lambda: causal_explanation_tree(net, hyp, observed, e))
    if isinstance(want, type):
        assert got is want
    else:
        _assert_same_causal_tree(got, want)


@st.composite
def et_cases(draw):
    """A network with one-hot rows, an explanandum, 0-4 hypothesis variables
    and a setting of alpha in {0, 0.02} and beta in {0, 0.05}."""
    size = draw(st.sampled_from((4, 3, 2, 1, 0)))  # evenly; st.integers would favour 0
    net = draw(networks(zero_one=st.just(True), min_vars=size + 1))
    names = draw(st.permutations([v.name for v in net.variables]))
    hyp = names[1:1 + size]
    explanandum = {names[0]: draw(st.sampled_from(net.domain(names[0])))}
    cfg = ExplainerConfig(alpha=draw(st.sampled_from((0.0, 0.02))),
                          beta=draw(st.sampled_from((0.0, 0.05))))
    return net, hyp, explanandum, cfg


def _reference_noncausal_tree(net, hyp, e, cfg):
    """The noncausal tree by its definition, on the oracle: at every node the
    literal CMI of every pair of the variables left, given e and the path, and
    one query over the pick for its branch labels."""
    oracle = OracleEngine()
    if oracle.probability(net, e) <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero")

    def grow(hyp, context, p_path):
        pairwise = {pair: oracle_conditional_mutual_information(net, *pair, context)
                    for pair in itertools.combinations(hyp, 2)}
        scores = {v: sum(val for pair, val in pairwise.items() if v in pair) for v in hyp}
        best = max(scores.values())
        pick = next(v for v in hyp if scores[v] >= best - 1e-12 * max(1.0, abs(best)))
        stop = max((val for pair, val in pairwise.items() if pick in pair), default=0.0)
        if stop < cfg.alpha - 1e-12 * max(1.0, cfg.alpha):
            return ExplanationTree()
        left = tuple(v for v in hyp if v != pick)
        branches = []
        for state, p in zip(net.domain(pick), oracle.query(net, (pick,), context).distribution.values):
            label = p_path * float(p)
            sub = ExplanationTree()
            if label > cfg.beta and left:
                sub = grow(left, {**context, pick: state}, label)
            branches.append(Branch(state, label, sub))
        return ExplanationTree(pick, tuple(branches))

    hyp = tuple(v.name for v in net.variables if v.name in hyp)
    return grow(hyp, dict(e), 1.0) if hyp and cfg.beta < 1.0 else ExplanationTree()


def _assert_same_tree(got, want):
    assert got.variable == want.variable
    assert [b.state for b in got.branches] == [b.state for b in want.branches]
    for g, w in zip(got.branches, want.branches):
        assert abs(g.label - w.label) <= _TOLERANCE, (got.variable, g.state, g.label, w.label)
        assert 0.0 <= g.label <= 1.0
        _assert_same_tree(g.subtree, w.subtree)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=et_cases())
def test_noncausal_trees_match_a_per_pair_oracle_reference(case):
    """Tables sliced out of one query per pair that keeps the pick free give
    the tree that per-pair queries at every node give: the same shape and
    picks, and labels within 1e-9, also where a slice has no mass. This holds
    with every question answered from the call's factor set, and without."""
    net, hyp, e, cfg = case
    want = _outcome(lambda: _reference_noncausal_tree(net, hyp, e, cfg))
    for ratio in _FACTOR_SET_ON_OFF:
        with mock.patch.object(inference, "_REDUCTION_RATIO", ratio):
            got = _outcome(lambda: explanation_tree(net, hyp, e, cfg))
        if isinstance(want, type):
            assert got is want
        else:
            _assert_same_tree(got, want)


@st.composite
def bf_cases(draw):
    """A network with one-hot rows, an explanandum, 1-4 hypothesis variables,
    a largest subset size of 1-3 of them and either score."""
    size = draw(st.sampled_from((4, 3, 2, 1)))
    net = draw(networks(zero_one=st.just(True), min_vars=size + 1))
    names = draw(st.permutations([v.name for v in net.variables]))
    explanandum = {names[0]: draw(st.sampled_from(net.domain(names[0])))}
    cfg = ExplainerConfig(max_subset_size=draw(st.integers(1, min(size, 3))), top_k=10**6,
                          best_per_subset=False, raw_odds=draw(st.booleans()))
    return net, names[1:1 + size], explanandum, cfg


def _reference_bayes_factors(net, hyp, e, cfg):
    """Every assignment's score by its definition on the oracle, ranked by
    :func:`_rank`, and the number skipped: per subset, its prior is the
    oracle's marginal over it and its posterior the oracle's marginal given e,
    each normalised by its own sum."""
    oracle = OracleEngine()
    hyp = tuple(v.name for v in net.variables if v.name in hyp)
    scored, skipped = [], 0
    for size in range(1, cfg.max_subset_size + 1):
        for subset in itertools.combinations(hyp, size):
            priors = oracle.query(net, subset).distribution.values.ravel().tolist()
            posteriors = oracle.query(net, subset, e).distribution.values.ravel().tolist()
            states = itertools.product(*(net.domain(v) for v in subset))
            for assignment, prior, posterior in zip(states, priors, posteriors):
                if prior <= 0.0 or prior >= 1.0:
                    skipped += 1
                    continue
                odds = posterior / (1.0 - posterior) if posterior < 1.0 - 1e-12 else math.inf
                score = odds if cfg.raw_odds else odds * ((1.0 - prior) / prior)
                entry = Explanation(tuple(zip(subset, assignment)), score)
                scored.append((frozenset(subset), entry))
    return [entry for _, entry in _rank(scored)], skipped


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=bf_cases())
def test_bayes_factor_search_matches_an_oracle_reference(case):
    """Tables of the largest subsets, summed down to every smaller one, give
    the oracle's scores, skips and ranking, with every question answered from
    the call's factor set, and without."""
    net, hyp, e, cfg = case
    want = _outcome(lambda: _reference_bayes_factors(net, hyp, e, cfg))
    for ratio in _FACTOR_SET_ON_OFF:
        with mock.patch.object(inference, "_REDUCTION_RATIO", ratio):
            got = _outcome(lambda: bayes_factor_search(net, hyp, e, cfg))
        if isinstance(want, type):
            assert got is want
            continue
        entries, skipped = want
        assert got.skipped_degenerate == skipped
        assert [g.assignment for g in got.entries] == [w.assignment for w in entries]
        for g, w in zip(got.entries, entries):
            assert g.score == w.score or abs(g.score - w.score) <= _TOLERANCE * max(1.0, w.score)


# -- the rounding-noise rule ----------------------------------------------------------

_NEAR_STEP = 0.3e-12  # a fraction of the slack: near ties never sit on its boundary


@st.composite
def scores(draw):
    """A score, NaN excepted: any float, infinities included, or one a few
    tenths of the 1e-12 slack away from a shared base, so that near ties are
    common."""
    if draw(st.booleans()):
        return draw(st.floats(allow_nan=False))
    base = draw(st.sampled_from([0.0, 1.0, -2.5, 1e6, -1e6]))
    return base + draw(st.integers(-4, 4)) * _NEAR_STEP * max(1.0, abs(base))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(a=scores(), b=scores(), target=scores())
def test_reaching_is_reflexive_and_monotone_in_the_score(a, b, target):
    assert _reaches(a, a)
    low, high = sorted((a, b))
    assert not _reaches(low, target) or _reaches(high, target)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(score=scores())
def test_an_infinite_target_is_reached_only_by_itself(score):
    # inf - 1e-12 * inf is nan, so the slack must not apply; every score is
    # at least -inf
    assert _reaches(score, math.inf) == (score == math.inf)
    assert _reaches(score, -math.inf)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(values=st.lists(scores(), min_size=1, max_size=8))
def test_argmax_returns_the_first_candidate_that_reaches_the_maximum(values):
    best = max(values)
    want = next(i for i, v in enumerate(values) if _reaches(v, best))
    assert _argmax(range(len(values)), values) == want


@settings(derandomize=True, deadline=None, max_examples=500)
@given(values=st.lists(scores(), max_size=10))
def test_rank_keeps_enumeration_order_inside_each_tied_run(values):
    """The ranking equals a selection loop: the highest score left leads a
    run of every entry left that reaches it, emitted in enumeration order."""
    scored = [(frozenset({i}), Explanation((("V", str(i)),), v)) for i, v in enumerate(values)]
    want, left = [], list(range(len(values)))
    while left:
        lead = max(values[i] for i in left)
        run = [i for i in left if _reaches(values[i], lead)]
        assert run, lead  # the lead reaches itself; an empty run would never end
        want += run
        left = [i for i in left if i not in run]
    assert [min(subset) for subset, _ in _rank(scored)] == want
