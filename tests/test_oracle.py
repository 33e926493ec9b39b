import itertools

import numpy as np
import pytest

from bnexplain import (
    CheckedEngine,
    Cpt,
    ExactEngine,
    Factor,
    ImpossibleEvidenceError,
    Network,
    OracleDivergenceError,
    OracleEngine,
    StateSpaceError,
    Variable,
    enumerate_joint,
    oracle_mpe,
    oracle_query,
)
from bnexplain.network import topological_order

from conftest import make_random_network


def test_enumerate_joint_drug(drug):
    table = enumerate_joint(drug)
    assert table.scope == topological_order(drug)
    assert table.values.size == 8
    assert float(table.values.sum()) == pytest.approx(1.0, abs=1e-12)
    ix = (drug.state_index("Sex", "m"), drug.state_index("Drug", "yes"),
          drug.state_index("Recovery", "rec"))
    assert float(table.values[ix]) == pytest.approx(0.225, abs=1e-15)


def test_enumerate_joint_truncates_on_intervention(drug):
    table = enumerate_joint(drug, {"Drug": "yes"})
    no_ix = drug.state_index("Drug", "no")
    axis = table.scope.index("Drug")
    assert np.all(table.values.take(no_ix, axis=axis) == 0.0)
    assert float(table.values.sum()) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_joint_asia_normalization(asia):
    table = enumerate_joint(asia)
    assert table.values.size == 256
    assert float(table.values.sum()) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_joint_multiplies_the_compiled_factors(drug, asia, academe, monkeypatch):
    # bit for bit the product of fresh from_cpt terms in declaration order,
    # without building a single one
    import bnexplain.factors as fa

    rng = np.random.default_rng(3)
    nets = [drug, asia, academe] + [make_random_network(rng, 5, max_states=3) for _ in range(20)]
    cases = [(net, do) for net in nets
             for do in ({}, {net.variables[1].name: net.domain(net.variables[1].name)[1]})]
    want = []
    for net, do in cases:
        scope = tuple(v.name for v in net.variables)
        joint = np.ones(tuple(len(net.domain(v)) for v in scope))
        for v in scope:
            term = (fa.Factor((v,), np.eye(len(net.domain(v)))[net.state_index(v, do[v])])
                    if v in do else fa.from_cpt(net, v))
            joint = joint * term.values[tuple(slice(None) if u in term.scope else None
                                              for u in scope)]
        want.append(joint)

    def refuse(net, var):
        raise AssertionError("enumerate_joint built a CPT factor")

    monkeypatch.setattr(fa, "from_cpt", refuse)
    for (net, do), joint in zip(cases, want):
        assert np.array_equal(enumerate_joint(net, do).values, joint)


def test_state_space_cap():
    rng = np.random.default_rng(5)
    net = make_random_network(rng, 6)
    with pytest.raises(StateSpaceError):
        enumerate_joint(net, cap=2**5)


def test_oracle_query_basics(drug):
    table = enumerate_joint(drug)
    assert oracle_query(table, drug, {"Recovery": "rec"}) == pytest.approx(0.45, abs=1e-12)
    full = {"Sex": "m", "Drug": "yes", "Recovery": "rec"}
    assert oracle_query(table, drug, {"Drug": "yes"}, full) == 1.0
    assert oracle_query(table, drug, {"Drug": "no"}, full) == 0.0
    forced = enumerate_joint(drug, {"Drug": "yes"})
    assert oracle_query(forced, drug, {"Recovery": "rec"}) == pytest.approx(0.4, abs=1e-12)


def _reversed(net):
    from bnexplain import Network

    return Network(tuple(reversed(net.variables)), net.cpts, name=f"{net.name}-reversed")


def test_oracle_engine_agrees_with_exact_engine(asia):
    exact, oracle = ExactEngine(), OracleEngine()
    for net, (targets, observed, do) in itertools.product((asia, _reversed(asia)), [
        (("LungCancer",), {"Dyspnea": "yes"}, None),
        (("Bronchitis", "Tuberculosis"), {"X-ray": "abnormal"}, None),
        (("Dyspnea",), {"Smoker": "yes"}, {"Bronchitis": "no"}),
        (("Tuberculosis", "Smoker"), {"Dyspnea": "yes"}, {"VisitAsia": "yes"}),
    ]):
        a = exact.query(net, targets, observed, do)
        b = oracle.query(net, targets, observed, do)
        assert a.distribution.scope == b.distribution.scope
        assert np.allclose(a.distribution.values, b.distribution.values, rtol=0.0, atol=1e-12)
        assert a.evidence_probability == pytest.approx(b.evidence_probability, rel=0.0, abs=1e-12)


def test_checked_engine_passes_on_agreement(drug):
    eng = CheckedEngine()
    assert eng.probability(drug, {"Recovery": "rec"}, {"Drug": "yes"}) == \
        pytest.approx(0.5, abs=1e-12)
    qr = eng.query(drug, ("Recovery",), {"Sex": "m"})
    assert float(qr.distribution.values.sum()) == pytest.approx(1.0, abs=1e-12)


def test_checked_engine_raises_on_divergence(drug):
    class RiggedEngine(ExactEngine):
        def probability(self, net, event, observed=None, do=None):
            return super().probability(net, event, observed, do) + 1e-6

    eng = CheckedEngine(primary=RiggedEngine())
    with pytest.raises(OracleDivergenceError):
        eng.probability(drug, {"Recovery": "rec"})


def test_checked_engine_rejects_a_joint_with_its_axes_in_another_order(drug):
    class TransposingEngine(ExactEngine):
        def _joint(self, net, targets, observed=None, do=None, sources=(), *, reduced=None):
            joint = super()._joint(net, targets, observed, do, sources, reduced=reduced)
            return Factor(joint.scope[::-1], np.transpose(joint.values))

    eng = CheckedEngine(primary=TransposingEngine())
    with pytest.raises(OracleDivergenceError) as raised:
        eng._joint(drug, ("Sex", "Drug"))
    assert str(raised.value) == "joint scopes differ: ('Drug', 'Sex') vs ('Sex', 'Drug')"


def test_checked_queries_never_compare_networks(asia, monkeypatch):
    # the oracle's joint tables are found by network identity, not by value
    from bnexplain import Network

    compared = {"n": 0}
    eq = Network.__eq__

    def counting(self, other):
        compared["n"] += 1
        return eq(self, other)

    monkeypatch.setattr(Network, "__eq__", counting)
    eng = CheckedEngine()
    for _ in range(3):
        eng.probability(asia, {"Dyspnea": "yes"}, {"Smoker": "yes"})
        eng.query(asia, ("Dyspnea",), {"Smoker": "yes"}, {"Bronchitis": "no"})
    assert compared["n"] == 0


def test_joint_of_reverse_declared_network_is_a_declaration_ordered_factor(asia):
    import bnexplain
    from bnexplain import joint_probability

    assert bnexplain.JointTable is bnexplain.Factor
    net = _reversed(asia)
    table = enumerate_joint(net)
    assert table.scope == tuple(v.name for v in net.variables)
    assert table.scope != topological_order(net)
    for states in itertools.product(*(net.domain(v) for v in table.scope)):
        full = dict(zip(table.scope, states))
        coords = tuple(net.state_index(v, s) for v, s in full.items())
        assert float(table.values[coords]) == pytest.approx(joint_probability(net, full),
                                                            rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kind", ["et", "bf"])
def test_checked_engine_rejects_a_perturbed_answer_from_a_factor_set(asia, monkeypatch, kind):
    """The oracle answers each question of a factor set unreduced, so a
    primary that adds 1e-6 to one cell of every answer it reads off the set
    is caught; its plain answers are left alone."""
    from bnexplain import ExplainerConfig, bayes_factor_search, explanation_tree, inference

    class Perturbed(ExactEngine):
        def _joint(self, net, targets, observed=None, do=None, sources=(), *, reduced=None):
            joint = super()._joint(net, targets, observed, do, sources, reduced=reduced)
            if reduced is None:
                return joint
            values = joint.values.copy()
            values.flat[0] += 1e-6
            return Factor(joint.scope, values)

    monkeypatch.setattr(inference, "_REDUCTION_RATIO", 0)  # asia is too small to reach the rule
    hyp, e = ["Smoker", "LungCancer", "Bronchitis"], {"Dyspnea": "yes"}

    def explain(eng):
        if kind == "et":
            return explanation_tree(asia, hyp, e, ExplainerConfig(alpha=0.0), engine=eng)
        return bayes_factor_search(asia, hyp, e, engine=eng)

    explain(CheckedEngine())
    with pytest.raises(OracleDivergenceError):
        explain(CheckedEngine(Perturbed()))


def _mpe_by_loop(net, evidence):
    """Every completion in declaration-lex order; the first strictly largest wins."""
    table = enumerate_joint(net)
    block = table.values[tuple(net.state_index(v, evidence[v]) if v in evidence else slice(None)
                               for v in table.scope)]
    p_evidence = float(block.sum()) if evidence else 1.0
    if p_evidence <= 0.0:
        return None
    free = [v.name for v in net.variables if v.name not in evidence]
    best, best_p = None, -1.0
    for combo in itertools.product(*(net.domain(v) for v in free)):
        full = {**evidence, **dict(zip(free, combo))}
        p = float(table.values[tuple(net.state_index(v, full[v]) for v in table.scope)])
        if p > best_p:
            best, best_p = dict(zip(free, combo)), p
    return best, best_p / p_evidence


def test_oracle_mpe_is_the_first_maximiser_of_the_completion_loop(asia, academe):
    rng = np.random.default_rng(17)
    nets = [asia, academe, _reversed(academe)]
    nets += [make_random_network(rng, 2 + i % 6, max_states=3, name=f"mpe{i}") for i in range(24)]
    for net in nets:
        names = [v.name for v in net.variables]
        for size in range(len(names) + 1):
            evidence = {v: net.domain(v)[int(rng.integers(len(net.domain(v))))]
                        for v in rng.permutation(names)[:size]}
            want = _mpe_by_loop(net, evidence)
            if want is None:
                with pytest.raises(ImpossibleEvidenceError):
                    oracle_mpe(net, evidence)
                continue
            got = oracle_mpe(net, evidence)
            assert got == want
            assert list(got[0]) == [v for v in names if v not in evidence]


def test_oracle_mpe_returns_the_first_states_when_every_completion_ties():
    variables = [Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1", "b2")),
                 Variable("C", ("c0", "c1"))]
    cpts = {"A": Cpt("A", (), ((0.5, 0.5),)),
            "B": Cpt("B", ("A",), ((1 / 3,) * 3,) * 2),
            "C": Cpt("C", ("A", "B"), ((0.5, 0.5),) * 6)}
    net = Network(variables, cpts)
    completion, score = oracle_mpe(net, {})
    assert completion == {"A": "a0", "B": "b0", "C": "c0"}
    assert score == pytest.approx(1 / 12, rel=1e-12)
    completion, score = oracle_mpe(net, {"C": "c1"})
    assert completion == {"A": "a0", "B": "b0"}
    assert score == pytest.approx(1 / 6, rel=1e-12)


def test_oracle_mpe_of_academe_tie_is_the_declaration_first_maximiser(academe):
    # Theory=good, Practice=average ties with this completion; Theory comes first
    completion, score = oracle_mpe(academe, {"FinalMark": "pass", "Other": "negative"})
    assert completion == {"Theory": "average", "Practice": "good", "Extra": "no",
                          "TPMark": "pass", "GlobalMark": "pass"}
    assert score == pytest.approx(0.11440779810388568, rel=1e-12)


def test_engine_counters_count_every_concurrent_query(asia):
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    engines = (ExactEngine(), OracleEngine(), CheckedEngine())
    start = threading.Barrier(4)

    def work():
        start.wait()
        for _ in range(250):
            for eng in engines:
                eng.query(asia, ("LungCancer",), {"Dyspnea": "yes"})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(work) for _ in range(4)]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert [eng.calls for eng in engines] == [1000, 1000, 1000]
    assert engines[2].reference.calls == 1000
