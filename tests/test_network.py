import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnexplain import (
    Cpt,
    ExactEngine,
    ExplainerConfig,
    Network,
    NetworkFormatError,
    NetworkValidationError,
    Variable,
    mutilate,
    parse_network,
    reachable,
    serialize_network,
    topological_order,
)
from bnexplain import inference
from bnexplain.datasets import network_path
from bnexplain.explain import _scored
from bnexplain.network import _upstream


def test_parse_drug_preserves_declaration_and_topology(drug):
    assert [v.name for v in drug.variables] == ["Sex", "Drug", "Recovery"]
    assert topological_order(drug) == ("Sex", "Drug", "Recovery")
    assert drug.edges == {("Sex", "Drug"), ("Sex", "Recovery"), ("Drug", "Recovery")}


def test_topological_order_oracle(asia, academe, random_corpus):
    # independent check: every parent strictly precedes each of its children
    for net in [asia, academe] + random_corpus[:10]:
        order = topological_order(net)
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == sorted(v.name for v in net.variables)
        for parent, child in net.edges:
            assert pos[parent] < pos[child]


def test_asia_topological_expectations(asia):
    order = topological_order(asia)
    pos = {v: i for i, v in enumerate(order)}
    assert pos["VisitAsia"] < pos["Tuberculosis"] < pos["TbOrCa"] < pos["X-ray"]


def test_edgeless_topological_order_is_declaration_order():
    variables = [Variable(n, ("t", "f")) for n in ("C", "A", "B")]
    cpts = {n: Cpt(n, (), ((0.5, 0.5),)) for n in ("C", "A", "B")}
    net = Network(variables, cpts)
    assert topological_order(net) == ("C", "A", "B")


def test_cycle_detected():
    text = """
    {"variables": [{"name": "A", "states": ["t", "f"]},
                   {"name": "B", "states": ["t", "f"]}],
     "cpts": {"A": {"parents": ["B"], "table": [[0.5, 0.5], [0.5, 0.5]]},
              "B": {"parents": ["A"], "table": [[0.5, 0.5], [0.5, 0.5]]}}}
    """
    with pytest.raises(NetworkValidationError, match="cycle"):
        parse_network(text)


def test_cycle_message_names_every_unplaced_variable_sorted():
    variables = [Variable(n, ("t", "f")) for n in ("D", "C", "B", "A")]
    half = ((0.5, 0.5), (0.5, 0.5))
    cpts = {"D": Cpt("D", (), ((0.5, 0.5),)), "C": Cpt("C", ("A",), half),
            "B": Cpt("B", ("A",), half), "A": Cpt("A", ("B",), half)}
    with pytest.raises(NetworkValidationError) as raised:
        Network(variables, cpts)
    assert str(raised.value) == "cycle detected among variables: A, B, C"


def _rescan_order(net):
    """Parents-before-children order by an O(n^2) rescan: always the first
    declared variable whose parents are all placed."""
    placed, pending = [], [v.name for v in net.variables]
    while pending:
        name = next(v for v in pending if set(net.parents(v)) <= set(placed))
        placed.append(name)
        pending.remove(name)
    return tuple(placed)


@settings(derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(1, 30), max_parents=st.integers(0, 5))
def test_topological_order_is_the_rescan_order_on_shuffled_networks(seed, n_vars, max_parents):
    from conftest import _draw_network

    net = _draw_network(np.random.default_rng(seed), n_vars, max_parents, "drawn",
                        max_states=3, shuffled=True)
    assert topological_order(net) == _rescan_order(net)


def test_cycle_detected_when_drug_gains_back_edge():
    import json

    from bnexplain.datasets import network_path

    doc = json.loads(network_path("drug").read_text())
    doc["cpts"]["Sex"] = {"parents": ["Recovery"], "table": [[0.5, 0.5], [0.5, 0.5]]}
    with pytest.raises(NetworkValidationError, match="cycle"):
        parse_network(json.dumps(doc))


def test_row_sum_violation():
    text = """
    {"variables": [{"name": "A", "states": ["t", "f"]}],
     "cpts": {"A": {"parents": [], "table": [[0.6, 0.5]]}}}
    """
    with pytest.raises(NetworkValidationError, match="sums to"):
        parse_network(text)


def test_cpt_shape_mismatch():
    text = """
    {"variables": [{"name": "A", "states": ["t", "f"]},
                   {"name": "B", "states": ["t", "f"]}],
     "cpts": {"A": {"parents": [], "table": [[0.5, 0.5]]},
              "B": {"parents": ["A"], "table": [[0.5, 0.5]]}}}
    """
    with pytest.raises(NetworkValidationError, match="rows"):
        parse_network(text)


def test_unknown_parent():
    text = """
    {"variables": [{"name": "A", "states": ["t", "f"]}],
     "cpts": {"A": {"parents": ["Ghost"], "table": [[0.5, 0.5], [0.5, 0.5]]}}}
    """
    with pytest.raises(NetworkValidationError, match="unknown parent"):
        parse_network(text)


def test_syntax_error_reports_position():
    with pytest.raises(NetworkFormatError, match=r"line \d+, column \d+"):
        parse_network('{"variables": [}')


@pytest.mark.parametrize("bad", [
    [{"name": "A", "states": ["t"]}],              # single state
    [{"name": "A", "states": ["t", "t"]}],         # duplicate state
    [{"name": "A", "states": ["t", "f"]}] * 2,     # duplicate variable
])
def test_bad_variable_declarations(bad):
    import json
    doc = {"variables": bad, "cpts": {"A": {"parents": [], "table": [[0.5, 0.5]]}}}
    with pytest.raises(NetworkValidationError):
        parse_network(json.dumps(doc))


def test_missing_and_extra_cpts():
    import json
    doc = {"variables": [{"name": "A", "states": ["t", "f"]}], "cpts": {}}
    with pytest.raises(NetworkValidationError, match="missing CPT"):
        parse_network(json.dumps(doc))
    doc["cpts"] = {"A": {"parents": [], "table": [[0.5, 0.5]]},
                   "B": {"parents": [], "table": [[0.5, 0.5]]}}
    with pytest.raises(NetworkValidationError, match="unknown variable"):
        parse_network(json.dumps(doc))


@pytest.mark.parametrize("name", ["drug", "asia", "academe"])
def test_round_trip(name):
    original = parse_network(network_path(name).read_text())
    reparsed = parse_network(serialize_network(original))
    assert reparsed == original
    assert reparsed.variables == original.variables
    assert reparsed.edges == original.edges
    for var in original.cpts:
        assert reparsed.cpts[var].table == original.cpts[var].table


def test_row_order_last_parent_fastest(drug):
    # Recovery rows are (m,yes), (m,no), (f,yes), (f,no)
    table = drug.cpts["Recovery"].table
    assert [row[0] for row in table] == [0.6, 0.7, 0.2, 0.3]


def test_reachable_cases(asia, drug):
    assert reachable(asia, "Smoker", "Dyspnea")
    assert not reachable(asia, "Smoker", "X-ray", {"TbOrCa"})
    assert not reachable(drug, "Recovery", "Sex")
    # path-enumeration oracle for the blocked case: every directed path from
    # Smoker to X-ray must pass TbOrCa
    def directed_paths(net, src, dst, prefix):
        if src == dst:
            yield prefix
            return
        for child in net.children(src):
            yield from directed_paths(net, child, dst, prefix + (child,))
    paths = list(directed_paths(asia, "Smoker", "X-ray", ("Smoker",)))
    assert paths and all("TbOrCa" in p for p in paths)


def test_reachable_monotone(random_corpus):
    rng = np.random.default_rng(7)
    for net in random_corpus[:8]:
        names = [v.name for v in net.variables]
        for src, dst in itertools.permutations(names, 2):
            others = [v for v in names if v not in (src, dst)]
            rng.shuffle(others)
            blocked: set[str] = set()
            state = reachable(net, src, dst, blocked)
            for v in others:
                blocked.add(v)
                new_state = reachable(net, src, dst, blocked)
                assert not (not state and new_state)  # enlarging never flips False -> True
                state = new_state


def _upstream_by_paths(net, start, stop):
    """``start`` and every variable from which some directed path, searched
    down the children, enters ``start`` with its interior outside ``stop``."""
    def enters(v):
        return any(c in start or (c not in stop and enters(c)) for c in net.children(v))
    return {v.name for v in net.variables if v.name in start or enters(v.name)}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(2, 9), max_parents=st.integers(0, 4),
       data=st.data())
def test_one_upstream_walk_decides_every_relevance_question(seed, n_vars, max_parents, data):
    # the walk, reachability, CET pruning and the variables an engine joint
    # eliminates all follow the one relation, checked against a path search
    from conftest import _draw_network

    net = _draw_network(np.random.default_rng(seed), n_vars, max_parents, "drawn", shuffled=True)
    names = [v.name for v in net.variables]
    start = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    stop = set(data.draw(st.lists(st.sampled_from(names), unique=True)))
    want = _upstream_by_paths(net, set(start), stop)
    assert _upstream(net, start, stop) == want

    for source, target in itertools.permutations(names, 2):
        assert reachable(net, source, target, stop) == (
            source in _upstream_by_paths(net, {target}, stop))

    e = {v: net.domain(v)[0] for v in start}
    candidates = [v for v in names if v not in e]
    assert _scored(net, candidates, e, stop, ExplainerConfig()) == [
        x for x in candidates if x in want]

    # a joint's roles are disjoint: the start splits into targets and
    # observations, the rest of the stop set into sources and interventions
    observed = data.draw(st.lists(st.sampled_from(start), unique=True))
    targets = [v for v in start if v not in observed]
    cut = sorted(stop - set(start), key=net.index)
    sources = data.draw(st.lists(st.sampled_from(cut), unique=True)) if cut else []
    do = {v: net.domain(v)[-1] for v in cut if v not in sources}
    eliminated, eliminate = [], inference._eliminate

    def spy(work, variables, net):
        eliminated.append(set(variables))
        return eliminate(work, variables, net)

    with mock.patch.object(inference, "_eliminate", spy):
        ExactEngine()._joint(net, targets, {v: net.domain(v)[0] for v in observed}, do, sources)
    assert eliminated == [_upstream_by_paths(net, set(start), set(cut)) - set(cut) - set(start)]


def test_validity_invariants(random_corpus):
    for net in random_corpus:
        for cpt in net.cpts.values():
            for row in cpt.table:
                assert abs(sum(row) - 1.0) <= 1e-9
        topological_order(net)  # raises if a cycle slipped through


def test_mutilate_never_mutates_input(drug):
    before = serialize_network(drug)
    mutilate(drug, {"Drug": "yes"})
    assert serialize_network(drug) == before


def test_no_operation_sets_an_attribute_on_a_network():
    from conftest import _draw_network

    from bnexplain import (
        CheckedEngine,
        bayes_factor_search,
        causal_explanation_tree,
        datasets,
        enumerate_joint,
        explanation_tree,
        joint_probability,
        mpe,
        mpe_explanation,
    )

    nets = [datasets.asia(), datasets.academe(),
            _draw_network(np.random.default_rng(11), 7, 3, "drawn", max_states=3)]
    snapshots = [dict(vars(net)) for net in nets]
    for net in nets:
        order = topological_order(net)
        e = {order[-1]: net.domain(order[-1])[0]}
        observed = {order[-2]: net.domain(order[-2])[1]}
        hyp = order[:3]
        eng = CheckedEngine()
        causal_explanation_tree(net, hyp, observed, e, engine=eng)
        explanation_tree(net, hyp, e, engine=eng)
        mpe_explanation(net, e, engine=eng)
        bayes_factor_search(net, hyp, e, engine=eng)
        completion, _ = mpe(net, e, engine=eng)
        joint_probability(net, {**completion, **e})
        eng.query(net, (order[0],), e, {order[1]: net.domain(order[1])[0]})
        eng.probability(net, e, observed)
        enumerate_joint(net)
        enumerate_joint(net, {order[0]: net.domain(order[0])[1]})
    for net, before in zip(nets, snapshots):
        after = vars(net)
        assert list(after) == list(before)
        assert all(after[k] is v for k, v in before.items())
