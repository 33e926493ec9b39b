import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnexplain import (
    CheckedEngine,
    ExactEngine,
    ImpossibleEvidenceError,
    OracleEngine,
    causal_explanation_tree,
    conditional_mutual_information,
    event_probability,
    interventional_probability,
    joint_probability,
    mpe,
    oracle_conditional_mutual_information,
    oracle_event_probability,
    oracle_mpe,
    query_distribution,
)


def test_joint_probability_drug(drug):
    assert joint_probability(drug, {"Sex": "m", "Drug": "yes", "Recovery": "rec"}) == \
        pytest.approx(0.5 * 0.75 * 0.6, abs=1e-15)
    total = 0.0
    for s, d, r in itertools.product(("m", "f"), ("yes", "no"), ("rec", "norec")):
        total += joint_probability(drug, {"Sex": s, "Drug": d, "Recovery": r})
    assert total == pytest.approx(1.0, abs=1e-12)


def test_joint_probability_zero_entry(asia):
    # TbOrCa is a deterministic OR, so an inconsistent assignment has a zero factor
    full = {"VisitAsia": "no", "Smoker": "no", "Tuberculosis": "yes",
            "LungCancer": "no", "Bronchitis": "no", "TbOrCa": "no",
            "X-ray": "normal", "Dyspnea": "no"}
    assert joint_probability(asia, full) == 0.0


def test_joint_probability_requires_full_assignment(drug):
    with pytest.raises(ValueError, match="unbound"):
        joint_probability(drug, {"Sex": "m"})


def test_event_probability_drug(drug):
    assert event_probability(drug, {"Recovery": "rec"}) == pytest.approx(0.45, abs=1e-12)
    assert event_probability(drug, {"Recovery": "rec"}, {"Drug": "yes"}) == \
        pytest.approx(0.5, abs=1e-12)
    # self-conditioning is a no-op
    assert event_probability(drug, {"Sex": "m"}, {"Sex": "m"}) == pytest.approx(1.0, abs=1e-12)


def test_event_probability_conflicting_bindings(drug):
    with pytest.raises(ValueError, match="conflicting"):
        event_probability(drug, {"Sex": "m"}, {"Sex": "f"})


def test_impossible_conditioning_raises(asia):
    impossible = {"TbOrCa": "yes", "Tuberculosis": "no", "LungCancer": "no"}
    with pytest.raises(ImpossibleEvidenceError):
        event_probability(asia, {"Dyspnea": "yes"}, impossible)


def test_query_distribution_normalized(asia):
    qr = query_distribution(asia, ("LungCancer", "Bronchitis"), {"Dyspnea": "yes"})
    assert qr.distribution.scope == ("LungCancer", "Bronchitis")
    assert float(qr.distribution.values.sum()) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < qr.evidence_probability < 1.0


def test_mpe_drug_recovery(drug):
    completion, p = mpe(drug, {"Recovery": "rec"})
    assert completion == {"Sex": "m", "Drug": "yes"}
    assert p == pytest.approx(0.5, abs=1e-9)


def test_mpe_all_evidence(drug):
    completion, p = mpe(drug, {"Sex": "f", "Drug": "no", "Recovery": "norec"})
    assert completion == {}
    assert p == 1.0


def test_mpe_norec_matches_enumeration(drug):
    completion, p = mpe(drug, {"Recovery": "norec"})
    want, want_p = oracle_mpe(drug, {"Recovery": "norec"})
    assert completion == want
    assert p == pytest.approx(want_p, abs=1e-12)


def test_mpe_tie_break_is_declaration_then_state_order():
    from bnexplain import Cpt, Network, Variable
    variables = [Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1"))]
    cpts = {"A": Cpt("A", (), ((0.5, 0.5),)), "B": Cpt("B", (), ((0.5, 0.5),))}
    net = Network(variables, cpts)
    completion, p = mpe(net, {})
    assert completion == {"A": "a0", "B": "b0"}
    assert p == pytest.approx(0.25, abs=1e-12)


def test_mpe_matches_oracle_on_corpus(random_corpus):
    rng = np.random.default_rng(11)
    for net in random_corpus[:12]:
        names = [v.name for v in net.variables]
        k = int(rng.integers(1, len(names)))
        observed = {v: net.domain(v)[int(rng.integers(2))]
                    for v in rng.choice(names, size=k, replace=False)}
        got, got_p = mpe(net, observed)
        want, want_p = oracle_mpe(net, observed)
        assert got == want
        assert got_p == pytest.approx(want_p, abs=1e-9)


def test_cmi_drug_values(drug):
    got = conditional_mutual_information(drug, "Sex", "Drug")
    assert got == pytest.approx(oracle_conditional_mutual_information(drug, "Sex", "Drug"), abs=1e-9)
    assert got == pytest.approx(0.18872, abs=2e-5)
    posterior = conditional_mutual_information(drug, "Sex", "Drug", {"Recovery": "rec"})
    assert posterior == pytest.approx(
        oracle_conditional_mutual_information(drug, "Sex", "Drug", {"Recovery": "rec"}), abs=1e-9
    )
    assert posterior == pytest.approx(0.18804, abs=5e-5)


def test_cmi_zero_for_dseparated_roots(asia):
    assert abs(conditional_mutual_information(asia, "VisitAsia", "Smoker")) < 1e-12


def test_cmi_symmetry_and_nonnegativity(random_corpus):
    rng = np.random.default_rng(23)
    for net in random_corpus[:10]:
        names = [v.name for v in net.variables]
        x, y = (str(v) for v in rng.choice(names, size=2, replace=False))
        rest = [v for v in names if v not in (x, y)]
        context = {}
        if rest and rng.random() < 0.7:
            c = str(rng.choice(rest))
            context[c] = net.domain(c)[int(rng.integers(2))]
        a = conditional_mutual_information(net, x, y, context)
        b = conditional_mutual_information(net, y, x, context)
        assert abs(a - b) < 1e-9
        assert a >= -1e-12


def test_engine_matches_oracle_on_random_queries(random_corpus):
    rng = np.random.default_rng(31)
    for net in random_corpus[:10]:
        names = [v.name for v in net.variables]
        for _ in range(5):
            picked = list(rng.choice(names, size=min(3, len(names)), replace=False))
            event = {picked[0]: net.domain(picked[0])[int(rng.integers(2))]}
            given = {v: net.domain(v)[int(rng.integers(2))] for v in picked[1:]}
            got = event_probability(net, event, given)
            want = oracle_event_probability(net, event, given)
            assert got == pytest.approx(want, abs=1e-9)


def test_engine_matches_oracle_on_mixed_cardinality_networks():
    from bnexplain import (
        conditional_mutual_information as cmi,
        flow_to_state,
        oracle_conditional_mutual_information,
        oracle_flow_to_state,
        oracle_interventional_probability,
    )

    from conftest import make_random_network

    rng = np.random.default_rng(97)
    for i in range(6):
        net = make_random_network(rng, 5 + (i % 3), name=f"mixed{i}", max_states=4)
        names = [v.name for v in net.variables]
        for _ in range(4):
            picked = [str(v) for v in rng.choice(names, size=4, replace=False)]
            state = lambda v: net.domain(v)[int(rng.integers(len(net.domain(v))))]
            event, given = {picked[0]: state(picked[0])}, {picked[1]: state(picked[1])}
            do = {picked[2]: state(picked[2])}
            got = interventional_probability(net, event, given, do)
            want = oracle_interventional_probability(net, event, given, do)
            assert got == pytest.approx(want, abs=1e-9)
            context = {picked[3]: state(picked[3])}
            a = cmi(net, picked[0], picked[1], context)
            b = oracle_conditional_mutual_information(net, picked[0], picked[1], context)
            assert a == pytest.approx(b, abs=1e-9)
            f = flow_to_state(net, picked[1], event, {}, do)
            g = oracle_flow_to_state(net, picked[1], event, {}, do)
            assert f == pytest.approx(g, abs=1e-9)


def test_caching_free_engine_reuse(drug):
    # one engine, many queries: results identical to fresh engines
    eng = ExactEngine()
    a = event_probability(drug, {"Recovery": "rec"}, {"Sex": "m"}, engine=eng)
    b = event_probability(drug, {"Recovery": "rec"}, {"Sex": "m"}, engine=eng)
    c = event_probability(drug, {"Recovery": "rec"}, {"Sex": "m"})
    assert a == b == c
    assert eng.calls == 4  # two queries per conditional probability


def test_no_intervention_consistency(drug):
    a = interventional_probability(drug, {"Recovery": "rec"})
    b = event_probability(drug, {"Recovery": "rec"})
    assert a == b


# -- compiled factors, factor-level surgery and relevance pruning --------------------


def _state(rng, net, v):
    return net.domain(v)[int(rng.integers(len(net.domain(v))))]


@pytest.fixture(scope="module")
def multistate_corpus():
    from conftest import make_random_network

    rng = np.random.default_rng(4242)
    return [make_random_network(rng, 6 + i % 4, name=f"ms{i}", max_states=3) for i in range(8)]


# CheckedEngine runs ExactEngine and OracleEngine side by side and raises
# OracleDivergenceError on any gap above 1e-9.


def test_pruned_engine_matches_oracle_on_do_observe_mixes(multistate_corpus):
    rng = np.random.default_rng(77)
    for net in multistate_corpus:
        eng = CheckedEngine()
        names = [v.name for v in net.variables]
        for _ in range(8):
            picked = [str(v) for v in rng.choice(names, size=5, replace=False)]
            n_t, n_o = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            targets = tuple(picked[:n_t])
            observed = {v: _state(rng, net, v) for v in picked[n_t:n_t + n_o]}
            do = {v: _state(rng, net, v) for v in picked[n_t + n_o:]}
            eng.query(net, targets, observed, do)
            eng.probability(net, {t: _state(rng, net, t) for t in targets}, observed, do)


def test_pruned_engine_ignores_intervention_below_the_query(multistate_corpus):
    for net in multistate_corpus:
        root, leaf = net.variables[0].name, net.variables[-1].name
        assert not net.children(leaf)
        do = {leaf: net.domain(leaf)[1]}
        for targets, observed in (((root,), {}), ((), {root: net.domain(root)[0]})):
            got = CheckedEngine().query(net, targets, observed, do)
            plain = ExactEngine().query(net, targets, observed)
            assert got.evidence_probability == plain.evidence_probability
            assert np.array_equal(got.distribution.values, plain.distribution.values)


def test_pruned_engine_empty_query_is_the_unit_factor(multistate_corpus):
    for net in multistate_corpus:
        v = net.variables[2].name
        for do in ({}, {v: net.domain(v)[0]}):
            got = CheckedEngine().query(net, (), {}, do)
            assert got.evidence_probability == 1.0
            assert got.distribution.scope == ()
            assert float(got.distribution.values) == 1.0


def test_no_factor_the_engine_multiplies_or_sums_holds_an_intervened_variable(
        multistate_corpus, asia, monkeypatch):
    # an intervention drops the variable's CPT and binds it in its children's
    # factors, so no intervened variable is ever multiplied or eliminated
    import bnexplain.factors as fa

    forced, hits, spied = set(), [], {"calls": 0}

    class Spied(ExactEngine):
        def query(self, net, targets=(), observed=None, do=None):
            forced.clear()
            forced.update(do or {})
            return super().query(net, targets, observed, do)

    def spy(op):
        def wrapped(*args):
            spied["calls"] += bool(forced)
            hits.extend(v for f in args if isinstance(f, fa.Factor) for v in f.scope if v in forced)
            return op(*args)
        return wrapped

    monkeypatch.setattr(fa, "multiply", spy(fa.multiply))
    monkeypatch.setattr(fa, "marginalize", spy(fa.marginalize))

    for net in multistate_corpus:
        eng = CheckedEngine(Spied())
        names = [v.name for v in net.variables]
        for v in names:
            rest = [u for u in names if u != v]
            for s in net.domain(v):
                eng.query(net, (rest[-1],), {rest[0]: net.domain(rest[0])[0]}, {v: s})
                eng.query(net, tuple(rest[-2:]), {}, {v: s})
    causal_explanation_tree(asia, ["Smoker", "VisitAsia", "Tuberculosis", "LungCancer", "Bronchitis"],
                            {"Smoker": "yes"}, {"Dyspnea": "yes"}, engine=Spied())
    assert spied["calls"] > 0
    assert hits == []


def test_query_cost_near_the_root_does_not_grow_with_chain_length(chain_factory, monkeypatch):
    import bnexplain.factors as fa

    counted = {"n": 0}
    multiply = fa.multiply

    def counting(f, g, net):
        counted["n"] += 1
        return multiply(f, g, net)

    monkeypatch.setattr(fa, "multiply", counting)

    def cost(length):
        net = chain_factory(np.random.default_rng(5), length)
        counted["n"] = 0
        ExactEngine().query(net, ("V1",), {"V0": "t"})
        ExactEngine().query(net, ("V2",), {}, {"V1": "f"})
        ExactEngine().probability(net, {"V1": "t"}, {"V0": "f"})
        return counted["n"]

    assert cost(80) == cost(10) > 0


def test_cached_factors_are_read_only(drug):
    ExactEngine().query(drug, ("Recovery",))
    for f in drug._factors.values():
        with pytest.raises(ValueError, match="read-only"):
            f.values[(0,) * f.values.ndim] = 0.5
    assert event_probability(drug, {"Recovery": "rec"}) == pytest.approx(0.45, abs=1e-12)


def test_cold_cache_filled_by_four_threads_matches_serial_results():
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from conftest import make_random_network

    def fresh():
        return make_random_network(np.random.default_rng(606), 12, name="threads", max_states=3)

    rng = np.random.default_rng(9)
    names = [f"V{i}" for i in range(12)]
    queries = []
    for _ in range(24):
        picked = [str(v) for v in rng.choice(names, size=3, replace=False)]
        queries.append(((picked[0],), {picked[1]: "s0"}, {picked[2]: "s1"}))

    def run_all(net, start=None):
        if start is not None:
            start.wait(timeout=10)
        eng = ExactEngine()
        return [eng.query(net, *q) for q in queries]

    serial_net = fresh()
    serial = run_all(serial_net)
    net = fresh()  # compiled at construction; four threads share it from their first query
    start = threading.Barrier(4)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_all, net, start) for _ in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert net._elimination_rank == serial_net._elimination_rank
    for threaded in results:
        for got, want in zip(threaded, serial):
            assert got.evidence_probability == want.evidence_probability
            assert got.distribution.scope == want.distribution.scope
            assert np.array_equal(got.distribution.values, want.distribution.values)


def _ladder(n):
    """2 x n binary ladder declared row by row: A(i) -> A(i+1), B(i) -> B(i+1), A(i) -> B(i)."""
    from bnexplain import Cpt, Network, Variable

    rng = np.random.default_rng(24)
    variables = [Variable(f"{row}{i}", ("f", "t")) for row in "AB" for i in range(n)]
    parents = {f"A{i}": (f"A{i - 1}",) * (i > 0) for i in range(n)}
    parents.update({f"B{i}": (f"A{i}",) + (f"B{i - 1}",) * (i > 0) for i in range(n)})
    cpts = {}
    for var, pa in parents.items():
        rows = tuple((p, 1.0 - p) for p in rng.uniform(0.1, 0.9, size=2 ** len(pa)).tolist())
        cpts[var] = Cpt(var, pa, rows)
    return Network(variables, cpts, name="ladder")


def test_ladder_probabilities_build_no_factor_wider_than_three(monkeypatch):
    # eliminating in declaration or reverse declaration order builds factors
    # of 24 or 25 variables here; the min-degree order keeps them at 3
    import bnexplain.factors as fa

    widest = {"n": 0}
    multiply = fa.multiply

    def spying(f, g, net):
        prod = multiply(f, g, net)
        widest["n"] = max(widest["n"], len(prod.scope))
        return prod

    monkeypatch.setattr(fa, "multiply", spying)
    net = _ladder(24)
    eng = ExactEngine()
    for event, observed, do in [
        ({"B23": "t"}, {"A23": "t"}, None),
        ({"B23": "t"}, {"A23": "f"}, {"B0": "t"}),
        ({"B23": "t"}, {}, {"A12": "t"}),
        ({"A0": "t"}, {"B23": "t"}, {"B11": "f"}),
    ]:
        assert 0.0 < eng.probability(net, event, observed, do) < 1.0
    assert 2 <= widest["n"] <= 3


def _min_scan_rank(net):
    """Min-degree order of the moral graph by an O(n^2) rescan, declaration order breaking ties."""
    scopes = [set(cpt.parents) | {child} for child, cpt in net.cpts.items()]
    nbrs = {v.name: set().union(*(s for s in scopes if v.name in s)) for v in net.variables}
    rank = {}
    while nbrs:
        var = min(nbrs, key=lambda u: (len(nbrs[u]), net.index(u)))
        joined = nbrs.pop(var)
        for u in joined - {var}:
            nbrs[u] = (nbrs[u] | joined) - {var}
        rank[var] = len(rank)
    return rank


def _compiled_rank(net):
    return net._elimination_rank


def test_compiled_order_is_the_min_scan_order_on_ladder_and_chain(chain_factory):
    for net in (_ladder(24), chain_factory(np.random.default_rng(0), 300)):
        assert _compiled_rank(net) == _min_scan_rank(net)


@settings(derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(1, 30),
       max_parents=st.integers(0, 5), shuffled=st.booleans())
def test_compiled_order_is_the_min_scan_order_on_drawn_networks(seed, n_vars, max_parents, shuffled):
    from conftest import _draw_network

    net = _draw_network(np.random.default_rng(seed), n_vars, max_parents, "drawn",
                        max_states=3, shuffled=shuffled)
    assert _compiled_rank(net) == _min_scan_rank(net)
