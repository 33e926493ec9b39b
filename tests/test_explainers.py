import collections
import itertools
import math

import numpy as np
import pytest

from bnexplain import (
    Branch,
    Cpt,
    ExactEngine,
    ExplainerConfig,
    ExplanationTree,
    ImpossibleEvidenceError,
    Network,
    Variable,
    bayes_factor_search,
    best_explanation,
    causal_explanation_tree,
    conditional_mutual_information,
    count_nodes,
    event_probability,
    explanation_tree,
    flow_to_state,
    iter_paths,
    mpe_explanation,
    oracle_event_probability,
    oracle_interventional_probability,
    reachable,
)
from bnexplain.render import tree_to_json_obj, to_json_text

REC = {"Recovery": "rec"}
ASIA_HYP = ["VisitAsia", "Tuberculosis", "LungCancer", "Smoker", "Bronchitis", "TbOrCa"]
ACADEME_HYP = ["Theory", "Practice", "Extra", "Other"]


def drug_cet(drug, **kwargs):
    return causal_explanation_tree(drug, ["Sex", "Drug"], {}, REC,
                                   ExplainerConfig(**kwargs))


def copies_net():
    # B and X are exact copies of A, E is a noisy child of X. With B observed,
    # p(X=x1 | B=b0) = 0 although do(X=x1) is possible, while do(A=a1)
    # contradicts B=b0.
    variables = [Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1")),
                 Variable("X", ("x0", "x1")), Variable("E", ("e0", "e1"))]
    cpts = {
        "A": Cpt("A", (), ((0.5, 0.5),)),
        "B": Cpt("B", ("A",), ((1.0, 0.0), (0.0, 1.0))),
        "X": Cpt("X", ("A",), ((1.0, 0.0), (0.0, 1.0))),
        "E": Cpt("E", ("X",), ((0.8, 0.2), (0.3, 0.7))),
    }
    return Network(variables, cpts, name="copies")


# (network, hypothesis, observed, explanandum) per oracle case; ET and BF, which
# have no observation set, explain the observations together with the explanandum
ORACLE_CASES = {
    "drug": ("drug", ["Sex", "Drug"], {}, REC),
    "asia-observed-hypothesis": ("asia", ASIA_HYP, {"Smoker": "yes"}, {"Dyspnea": "yes"}),
    "academe": ("academe", ACADEME_HYP, {}, {"FinalMark": "fail"}),
    "copies": ("copies", ["A", "X"], {"B": "b0"}, {"E": "e0"}),
}


def oracle_case(request, name):
    key, hyp, observed, explanandum = ORACLE_CASES[name]
    net = copies_net() if key == "copies" else request.getfixturevalue(key)
    return net, hyp, observed, explanandum


def noncausal_case(request, name):
    net, hyp, observed, explanandum = oracle_case(request, name)
    return net, [v for v in hyp if v not in observed], {**observed, **explanandum}


# -- causal explanation trees ------------------------------------------------------


def test_cet_drug_structure_and_labels(drug):
    tree = drug_cet(drug, alpha=0.0)
    assert tree.variable == "Sex"
    assert [b.state for b in tree.branches] == ["m", "f"]
    assert all(b.subtree.variable == "Drug" for b in tree.branches)

    prior = 0.45
    want = {
        ("m", "no"): math.log2(0.7 / prior),
        ("m", "yes"): math.log2(0.6 / prior),
        ("f", "no"): math.log2(0.3 / prior),
        ("f", "yes"): math.log2(0.2 / prior),
    }
    got = {}
    for pairs, label, pruned in iter_paths(tree):
        assert not pruned
        got[(dict(pairs)["Sex"], dict(pairs)["Drug"])] = label
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-6)
    ordering = sorted(got, key=got.get, reverse=True)
    assert ordering == [("m", "no"), ("m", "yes"), ("f", "no"), ("f", "yes")]
    assert got[("m", "yes")] > 0.0 > got[("f", "no")]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_cet_label_consistency_via_independent_recompute(request, name):
    net, hyp, observed, e = oracle_case(request, name)
    tree = causal_explanation_tree(net, hyp, observed, e, ExplainerConfig(alpha=0.0))
    prior = oracle_event_probability(net, e, observed)
    seen = collections.Counter()

    def walk(node, o, path):
        if node.is_leaf():
            return
        o_rest = {k: v for k, v in o.items() if k != node.variable}
        for b in node.branches:
            forced = {**path, node.variable: b.state}
            if node.variable not in o and oracle_interventional_probability(
                    net, {node.variable: b.state}, o, path) == 0.0:
                seen["pruned" if b.pruned else "zero posterior, possible"] += 1
            if b.pruned:  # the intervention contradicts the remaining observations
                assert b.label is None and b.subtree.is_leaf()
                with pytest.raises(ImpossibleEvidenceError):
                    oracle_interventional_probability(net, e, o_rest, forced)
                continue
            p = oracle_interventional_probability(net, e, o_rest, forced)
            want = math.log2(p / prior) if p > 0.0 else float("-inf")
            assert b.label == pytest.approx(want, abs=1e-9)
            walk(b.subtree, o_rest, forced)

    walk(tree, observed, {})
    assert count_nodes(tree) > 1
    if name == "copies":
        assert seen == {"pruned": 1, "zero posterior, possible": 1}


def test_cet_high_alpha_gives_empty_tree(drug):
    tree = drug_cet(drug, alpha=10.0)
    assert tree.is_leaf()
    assert best_explanation(tree, "cet") == ({}, 0.0)


def test_nan_alpha_is_rejected():
    # NaN fails every comparison, so an `alpha < 0` check let it through and it
    # grew the full tree
    with pytest.raises(ValueError, match="alpha"):
        ExplainerConfig(alpha=math.nan)


def test_infinite_alpha_stops_both_trees_at_the_root(drug):
    # inf - 1e-12 * inf is nan; no finite score may reach an infinite alpha
    assert drug_cet(drug, alpha=math.inf).is_leaf()
    assert explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=math.inf)).is_leaf()


def test_cet_impossible_explanandum(asia):
    with pytest.raises(ImpossibleEvidenceError):
        causal_explanation_tree(
            asia, ["Smoker"], {"Tuberculosis": "no", "LungCancer": "no"},
            {"TbOrCa": "yes"})


def test_cet_asia_xray(asia):
    hyp = [v.name for v in asia.variables if v.name not in ("X-ray", "TbOrCa")]
    tree = causal_explanation_tree(asia, hyp, {}, {"X-ray": "abnormal"},
                                   ExplainerConfig(alpha=0.01))
    assert tree.variable == "LungCancer"
    under = {b.state: b.subtree for b in tree.branches}
    assert under["no"].variable == "Tuberculosis"


def test_cet_observed_variable_selected_by_pointwise_flow(asia):
    # Smoker is observed; when explicitly offered it outranks Bronchitis and
    # branches only on its known state.
    tree = causal_explanation_tree(
        asia, ["Smoker", "Bronchitis"], {"Smoker": "yes"}, {"Dyspnea": "yes"},
        ExplainerConfig(alpha=0.0))
    assert tree.variable == "Smoker"
    assert [b.state for b in tree.branches] == ["yes"]
    assert tree.branches[0].subtree.variable == "Bronchitis"


def test_cet_pruned_branch_kept_with_marker():
    # B is a deterministic copy of A and is observed; forcing A to the other
    # state contradicts that observation. Reachability pruning scores A zero,
    # since A reaches C only past B, but A reaches the observed B, so it still
    # asks its joint for its labels.
    variables = [Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1")),
                 Variable("C", ("c0", "c1"))]
    cpts = {
        "A": Cpt("A", (), ((0.5, 0.5),)),
        "B": Cpt("B", ("A",), ((1.0, 0.0), (0.0, 1.0))),
        "C": Cpt("C", ("B",), ((0.8, 0.2), (0.3, 0.7))),
    }
    net = Network(variables, cpts)
    for prune in (False, True):
        tree = causal_explanation_tree(net, ["A"], {"B": "b0"}, {"C": "c0"},
                                       ExplainerConfig(alpha=0.0, prune_unreachable=prune))
        assert tree.variable == "A"
        by_state = {b.state: b for b in tree.branches}
        assert not by_state["a0"].pruned
        assert by_state["a1"].pruned
        assert by_state["a1"].label is None
        assert by_state["a1"].subtree.is_leaf()
        # the impossible branch is excluded from the best explanation
        best, _ = best_explanation(tree, "cet")
        assert best == {"A": "a0"}


ASKING_PICKS = {
    # VisitAsia reaches Dyspnea only past the observed TbOrCa, but forcing it
    # moves Tuberculosis, which TbOrCa=yes trades off against LungCancer
    "collider": (["VisitAsia", "Tuberculosis"], {"TbOrCa": "yes"}, {"Dyspnea": "yes"}),
    # the explanandum is no descendant of VisitAsia at all
    "explained-away": (["VisitAsia"], {"TbOrCa": "yes"}, {"LungCancer": "yes"}),
    # an observed pick's labels drop its own observation, which p_e keeps
    "observed-sink": (["Dyspnea"], {"Dyspnea": "yes"}, {"X-ray": "abnormal"}),
}


@pytest.mark.parametrize("case", ASKING_PICKS)
def test_cet_zero_scored_pick_that_moves_e_or_o_keeps_its_labels(asia, case):
    """Each root pick is scored zero by reachability pruning, yet its labels
    are not log2(p_e / prior) = 0: they are those of the oracle."""
    hyp, observed, e = ASKING_PICKS[case]
    tree = causal_explanation_tree(asia, hyp, observed, e, ExplainerConfig(alpha=0.0))
    assert tree.variable == hyp[0]
    prior = oracle_event_probability(asia, e, observed)
    rest = {k: v for k, v in observed.items() if k != tree.variable}
    for b in tree.branches:
        p = oracle_interventional_probability(asia, e, rest, {tree.variable: b.state})
        assert abs(b.label) > 1e-12
        assert b.label == pytest.approx(math.log2(p / prior), abs=1e-9)


def test_cet_selects_only_causal_ancestors(asia):
    hyp = [v.name for v in asia.variables if v.name != "Dyspnea"]
    tree = causal_explanation_tree(asia, hyp, {}, {"Dyspnea": "yes"},
                                   ExplainerConfig(alpha=0.01))

    def walk(node, path_vars):
        if node.is_leaf():
            return
        assert reachable(asia, node.variable, "Dyspnea", set(path_vars) - {node.variable})
        for b in node.branches:
            walk(b.subtree, path_vars + [node.variable])

    walk(tree, [])


def test_cet_reachability_pruning_changes_nothing(drug, asia):
    # no candidate here reaches the explanandum only through an observed
    # collider, so scoring unreachable candidates zero alters no tree
    cases = [
        (drug, ["Sex", "Drug"], {}, REC, 0.0),
        (asia, [v.name for v in asia.variables if v.name not in ("X-ray", "TbOrCa")],
         {}, {"X-ray": "abnormal"}, 0.01),
        (asia, [v.name for v in asia.variables if v.name not in ("Dyspnea", "Smoker")],
         {"Smoker": "yes"}, {"Dyspnea": "yes"}, 0.01),
    ]
    for net, hyp, obs, e, alpha in cases:
        pruned = causal_explanation_tree(net, hyp, obs, e,
                                         ExplainerConfig(alpha=alpha, prune_unreachable=True))
        full = causal_explanation_tree(net, hyp, obs, e,
                                       ExplainerConfig(alpha=alpha, prune_unreachable=False))
        assert pruned == full


def test_cet_pruning_scores_zero_past_an_observed_collider(asia):
    # With TbOrCa observed, forcing Tuberculosis explains LungCancer away, which
    # moves Smoker, Bronchitis and so Dyspnea: nonzero flow without a directed
    # path that avoids the observation. Pruning scores it zero, so trees differ:
    # the full tree picks Tuberculosis, the pruned one ties it with VisitAsia
    # at zero and picks VisitAsia by declaration order.
    assert flow_to_state(asia, "Tuberculosis", {"Dyspnea": "yes"}, {"TbOrCa": "yes"}) > 1e-5
    assert not reachable(asia, "Tuberculosis", "Dyspnea", {"TbOrCa"})
    hyp = ["VisitAsia", "Tuberculosis"]
    pruned, full = (causal_explanation_tree(asia, hyp, {"TbOrCa": "yes"}, {"Dyspnea": "yes"},
                                            ExplainerConfig(alpha=0.0, prune_unreachable=p))
                    for p in (True, False))
    assert (pruned.variable, full.variable) == ("VisitAsia", "Tuberculosis")


def test_cet_scores_within_rounding_noise_of_alpha_reach_it(asia):
    # Given LungCancer, every candidate left under a Bronchitis branch has zero
    # flow to Dyspnea up to rounding noise of either sign. Noise at alpha counts
    # as reaching it, so both branches grow alike; the sign used to stop one.
    hyp = ["Tuberculosis", "LungCancer", "Bronchitis", "TbOrCa", "X-ray"]
    tree = causal_explanation_tree(asia, hyp, {"LungCancer": "yes"}, {"Dyspnea": "yes"},
                                   ExplainerConfig(alpha=0.0))

    def shape(node):
        return node.variable, tuple((b.state, shape(b.subtree)) for b in node.branches)

    bronchitis = tree.branches[0].subtree
    assert bronchitis.variable == "Bronchitis"
    yes, no = (b.subtree for b in bronchitis.branches)
    assert shape(yes) == shape(no)
    assert count_nodes(yes) == 7  # Tuberculosis, then TbOrCa, then X-ray, on every branch
    stopped = causal_explanation_tree(asia, hyp, {"LungCancer": "yes"}, {"Dyspnea": "yes"},
                                      ExplainerConfig(alpha=1e-9))
    assert all(b.subtree.is_leaf() for b in stopped.branches[0].subtree.branches)


def test_cet_deterministic(drug):
    a = drug_cet(drug, alpha=0.0)
    b = drug_cet(drug, alpha=0.0)
    assert a == b
    assert to_json_text(tree_to_json_obj(a)) == to_json_text(tree_to_json_obj(b))


def test_cet_tie_break_by_declaration_order():
    variables = [Variable(n, ("t", "f")) for n in ("P", "Q", "E")]
    cpts = {
        "P": Cpt("P", (), ((0.5, 0.5),)),
        "Q": Cpt("Q", (), ((0.5, 0.5),)),
        "E": Cpt("E", ("P", "Q"), ((0.8, 0.2), (0.5, 0.5), (0.5, 0.5), (0.2, 0.8))),
    }
    net = Network(variables, cpts)  # symmetric in P and Q
    tree = causal_explanation_tree(net, ["P", "Q"], {}, {"E": "t"},
                                   ExplainerConfig(alpha=0.0))
    assert tree.variable == "P"


# -- noncausal explanation trees ------------------------------------------------------


def test_et_drug_alpha_002(drug):
    tree = explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=0.02))
    assert tree.variable == "Sex"
    # the singleton child hypothesis set has empty-sum score 0 < alpha: leaves
    labels = {b.state: b.label for b in tree.branches}
    assert all(b.subtree.is_leaf() for b in tree.branches)
    assert labels["m"] == pytest.approx(0.6944444444, abs=1e-9)
    assert labels["f"] == pytest.approx(0.3055555556, abs=1e-9)
    assert best_explanation(tree, "et") == ({"Sex": "m"}, pytest.approx(0.6944444444, abs=1e-9))


def test_et_drug_alpha_zero_expands_fully(drug):
    tree = explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=0.0))
    assert tree.variable == "Sex"
    got = {pairs: label for pairs, label, _ in iter_paths(tree)}
    deepest = got[(("Sex", "m"), ("Drug", "yes"))]
    assert deepest == pytest.approx(0.5, abs=1e-9)
    best, score = best_explanation(tree, "et")
    assert best == {"Sex": "m", "Drug": "yes"}
    assert score == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_et_label_consistency_and_sibling_sums(request, name):
    net, hyp, e = noncausal_case(request, name)
    tree = explanation_tree(net, hyp, e, ExplainerConfig(alpha=0.0))
    zero_branches = 0

    def walk(node, path, parent_label):
        nonlocal zero_branches
        if node.is_leaf():
            return
        sibling_sum = 0.0
        for b in node.branches:
            extended = {**path, node.variable: b.state}
            assert b.label == pytest.approx(
                oracle_event_probability(net, extended, e), abs=1e-9)
            zero_branches += b.label == 0.0
            sibling_sum += b.label
            walk(b.subtree, extended, b.label)
        assert sibling_sum == pytest.approx(parent_label, abs=1e-9)

    walk(tree, {}, 1.0)
    assert count_nodes(tree) > 1
    if name == "copies":
        assert zero_branches == 2  # A=a1, and X=x1 below A=a0


# every case at max_subset_size 1, 2 and, with three or more hypothesis
# variables, 3: the smaller subsets are summed out of the largest ones' tables
BF_ORACLE_CASES = [
    pytest.param(name, size, id=name if size == 2 else f"{name}-size{size}")
    for name, (_, hyp, observed, _) in ORACLE_CASES.items()
    for size in (1, 2, 3) if size <= len([v for v in hyp if v not in observed])
]


@pytest.mark.parametrize("name, size", BF_ORACLE_CASES)
def test_bf_scores_match_oracle_bayes_factors(request, name, size):
    net, hyp, e = noncausal_case(request, name)
    cfg = ExplainerConfig(max_subset_size=size, top_k=10**6, best_per_subset=False)
    ranking = bayes_factor_search(net, hyp, e, cfg)
    assignments = sum(math.prod(len(net.domain(v)) for v in subset)
                      for size in range(1, cfg.max_subset_size + 1)
                      for subset in itertools.combinations(hyp, size))
    assert len(ranking.entries) + ranking.skipped_degenerate == assignments
    for entry in ranking.entries:
        h = entry.as_dict()
        prior = oracle_event_probability(net, h)
        posterior = oracle_event_probability(net, h, e)
        if posterior >= 1.0 - 1e-12:
            want = float("inf")
        else:
            want = (posterior / (1.0 - posterior)) * ((1.0 - prior) / prior)
        assert entry.score == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_et_singleton_hypothesis(drug):
    tree = explanation_tree(drug, ["Drug"], REC, ExplainerConfig(alpha=0.0))
    assert tree.variable == "Drug"
    labels = {b.state: b.label for b in tree.branches}
    assert labels["yes"] == pytest.approx(event_probability(drug, {"Drug": "yes"}, REC), abs=1e-12)
    assert all(b.subtree.is_leaf() for b in tree.branches)
    # any alpha above rounding noise stops a singleton immediately (empty-sum convention)
    assert explanation_tree(drug, ["Drug"], REC, ExplainerConfig(alpha=0.01)).is_leaf()


def test_et_beta_one_gives_empty_tree(drug):
    assert explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(beta=1.0)).is_leaf()


def test_et_zero_probability_branch_not_expanded():
    # B copies A deterministically, so p(A=a1 | B=b0) = 0; that branch keeps
    # label 0 and no subtree even though C could still be expanded below it.
    variables = [Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1")),
                 Variable("C", ("c0", "c1"))]
    cpts = {
        "A": Cpt("A", (), ((0.5, 0.5),)),
        "B": Cpt("B", ("A",), ((1.0, 0.0), (0.0, 1.0))),
        "C": Cpt("C", ("A",), ((0.9, 0.1), (0.2, 0.8))),
    }
    net = Network(variables, cpts)
    tree = explanation_tree(net, ["A", "C"], {"B": "b0"}, ExplainerConfig(alpha=0.0))
    assert tree.variable == "A"
    by_state = {b.state: b for b in tree.branches}
    assert by_state["a1"].label == 0.0
    assert by_state["a1"].subtree.is_leaf()
    assert not by_state["a0"].subtree.is_leaf()


def test_et_tie_break_by_declaration_order():
    variables = [Variable(n, ("t", "f")) for n in ("P", "Q", "E")]
    cpts = {n: Cpt(n, (), ((0.5, 0.5),)) for n in ("P", "Q", "E")}
    net = Network(variables, cpts)  # everything independent: all scores 0
    tree = explanation_tree(net, ["P", "Q"], {"E": "t"}, ExplainerConfig(alpha=0.0))
    assert tree.variable == "P"


def test_et_rounding_noise_neither_stops_nor_decides():
    # A, B and C are exactly independent given E (E depends on A alone), so
    # every pairwise CMI is zero up to rounding noise of either sign (about
    # -2e-16 for I(A;B|E) here); the noise may neither stop an alpha=0 tree
    # nor pick the variable
    variables = [Variable(n, (n.lower() + "0", n.lower() + "1")) for n in ("A", "B", "C", "E")]
    cpts = {n: Cpt(n, (), ((0.1, 0.9),)) for n in ("A", "B", "C")}
    cpts["E"] = Cpt("E", ("A",), ((0.2, 0.8), (0.1, 0.9)))
    net = Network(variables, cpts)
    e = {"E": "e0"}
    for x, y in (("A", "B"), ("A", "C"), ("B", "C")):
        assert conditional_mutual_information(net, x, y, e) >= 0.0
    tree = explanation_tree(net, ["A", "B", "C"], e, ExplainerConfig(alpha=0.0))
    assert tree.variable == "A"
    assert all(b.subtree.variable == "B" for b in tree.branches)


def test_et_alpha_above_the_best_cmi_by_rounding_noise_still_grows(drug):
    # the pick's best pairwise information reaches an alpha above it by no
    # more than 1e-12 * max(1, alpha), as a causal tree's best flow does
    cmi = conditional_mutual_information(drug, "Sex", "Drug", REC)
    alpha = cmi + 1e-15
    assert cmi > 0.02 and alpha > cmi
    tree = explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=alpha))
    assert tree.variable == "Sex"
    assert explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=cmi + 2e-12)).is_leaf()


def test_argmax_treats_rounding_noise_as_a_tie():
    from bnexplain.explain import _argmax

    assert _argmax(["P", "Q", "R"], {"P": 0.5, "Q": 0.5 + 1e-16, "R": 0.4}) == "P"
    assert _argmax(["P", "Q"], {"P": 0.5, "Q": 0.5 + 1e-9}) == "Q"
    assert _argmax(["P", "Q"], {"P": 1e6, "Q": 1e6 + 1e-7}) == "P"  # relative slack
    assert _argmax(["P", "Q"], {"P": float("-inf"), "Q": float("-inf")}) == "P"
    assert _argmax(["P", "Q"], {"P": float("-inf"), "Q": -3.0}) == "Q"


def test_et_deterministic(drug):
    a = explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=0.0))
    b = explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=0.0))
    assert a == b


# -- MPE ----------------------------------------------------------------------------


def test_mpe_explanation_drug(drug):
    ranking = mpe_explanation(drug, REC)
    assert ranking.score_kind == "posterior_probability"
    (entry,) = ranking.entries
    assert entry.as_dict() == {"Sex": "m", "Drug": "yes"}
    assert entry.score == pytest.approx(0.5, abs=1e-9)


def test_mpe_runner_up_by_enumeration(drug):
    completions = {}
    for s in ("m", "f"):
        for d in ("yes", "no"):
            completions[(s, d)] = oracle_event_probability(drug, {"Sex": s, "Drug": d}, REC)
    ordered = sorted(completions.items(), key=lambda kv: -kv[1])
    assert ordered[0][0] == ("m", "yes")
    assert ordered[1][0] == ("f", "no")
    assert ordered[1][1] == pytest.approx(0.25, abs=1e-9)


def test_mpe_explanation_all_bound(drug):
    ranking = mpe_explanation(drug, {"Sex": "m", "Drug": "no", "Recovery": "rec"})
    (entry,) = ranking.entries
    assert entry.assignment == ()
    assert entry.score == 1.0


# -- Bayes-factor search ----------------------------------------------------------------


def test_bf_drug_default_ranking(drug):
    ranking = bayes_factor_search(drug, ["Sex", "Drug"], REC,
                                  ExplainerConfig(max_subset_size=2, top_k=3))
    assert ranking.score_kind == "bayes_factor"
    got = [(e.as_dict(), e.score) for e in ranking.entries]
    assert got[0][0] == {"Sex": "m"}
    assert got[0][1] == pytest.approx(2.27, abs=0.01)
    assert got[1][0] == {"Sex": "m", "Drug": "no"}
    assert got[1][1] == pytest.approx(1.69, abs=0.01)
    assert got[2][0] == {"Drug": "yes"}
    assert got[2][1] == pytest.approx(1.25, abs=0.01)


def test_bf_flat_ranking_differs(drug):
    ranking = bayes_factor_search(
        drug, ["Sex", "Drug"], REC,
        ExplainerConfig(max_subset_size=2, top_k=3, best_per_subset=False))
    got = [(e.as_dict(), e.score) for e in ranking.entries]
    assert got[2][0] == {"Sex": "m", "Drug": "yes"}
    assert got[2][1] == pytest.approx(1.6667, abs=1e-3)


def test_bf_raw_odds_form(drug):
    ranking = bayes_factor_search(
        drug, ["Sex", "Drug"], REC,
        ExplainerConfig(max_subset_size=2, top_k=4, raw_odds=True, best_per_subset=False))
    scores = {tuple(sorted(e.as_dict().items())): e.score for e in ranking.entries}
    assert scores[(("Sex", "m"),)] == pytest.approx(2.2727, abs=1e-3)
    assert scores[(("Drug", "yes"),)] == pytest.approx(1.25, abs=1e-9)


def test_bf_independent_hypothesis_scores_one():
    variables = [Variable("H", ("t", "f")), Variable("E", ("t", "f"))]
    cpts = {"H": Cpt("H", (), ((0.3, 0.7),)), "E": Cpt("E", (), ((0.6, 0.4),))}
    net = Network(variables, cpts)
    ranking = bayes_factor_search(net, ["H"], {"E": "t"},
                                  ExplainerConfig(max_subset_size=1, top_k=2))
    for entry in ranking.entries:
        assert entry.score == pytest.approx(1.0, abs=1e-9)


def test_bf_supportive_hypothesis_above_one(drug):
    ranking = bayes_factor_search(drug, ["Sex"], REC, ExplainerConfig(max_subset_size=1, top_k=1))
    assert ranking.entries[0].as_dict() == {"Sex": "m"}
    assert ranking.entries[0].score > 1.0


def test_bf_degenerate_hypotheses_skipped():
    variables = [Variable("A", ("t", "f")), Variable("E", ("t", "f"))]
    cpts = {"A": Cpt("A", (), ((1.0, 0.0),)),
            "E": Cpt("E", ("A",), ((0.7, 0.3), (0.2, 0.8)))}
    net = Network(variables, cpts)
    ranking = bayes_factor_search(net, ["A"], {"E": "t"},
                                  ExplainerConfig(max_subset_size=1, top_k=3))
    assert ranking.skipped_degenerate == 2  # p(A=t)=1 and p(A=f)=0
    assert ranking.entries == ()


@pytest.mark.parametrize("size, skipped", [(1, 2), (2, 4)])
def test_bf_certain_prior_read_from_a_wider_table_stays_skipped(size, skipped):
    """p(A=f) is exactly one, but A's prior is summed out of a table that also
    holds E (and B), whose cells sum to one only up to rounding. Divided by the
    table's total, the prior of A=f comes out one ulp off one, so A=f is scored
    infinite instead of skipped; divided by the marginal's own sum it is one."""
    variables = [Variable("A", ("t", "f")), Variable("B", ("t", "f")), Variable("E", ("y", "n"))]
    cpts = {"A": Cpt("A", (), ((0.0, 1.0),)),
            "B": Cpt("B", (), ((0.1, 0.9),)),
            "E": Cpt("E", ("A", "B"), ((0.5, 0.5), (0.5, 0.5), (0.6, 0.4), (0.2, 0.8)))}
    net = Network(variables, cpts)
    cfg = ExplainerConfig(max_subset_size=size, top_k=10, best_per_subset=False)
    ranking = bayes_factor_search(net, ["A", "B"], {"E": "y"}, cfg)
    assert ranking.skipped_degenerate == skipped  # A=t and A=f, and at size 2 A=t with B
    assert all(math.isfinite(entry.score) for entry in ranking.entries)
    assert (("A", "f"),) not in [entry.assignment for entry in ranking.entries]


def test_bf_certain_posterior_scores_infinity_despite_rounding(asia):
    # LungCancer=yes implies TbOrCa=yes (deterministic OR), but the engine's
    # ratio of evidence masses comes out a few ulps below one
    ranking = bayes_factor_search(asia, ["Tuberculosis", "TbOrCa"], {"LungCancer": "yes"},
                                  ExplainerConfig(max_subset_size=1, top_k=4))
    scores = {entry.assignment: entry.score for entry in ranking.entries}
    assert scores[(("TbOrCa", "yes"),)] == float("inf")
    assert ranking.entries[0].assignment == (("TbOrCa", "yes"),)


def test_bf_equivalent_hypotheses_keep_enumeration_order(asia):
    # TbOrCa=no implies LungCancer=no, so both hypotheses are the same event
    ranking = bayes_factor_search(
        asia, ["VisitAsia", "Smoker", "LungCancer", "Bronchitis", "TbOrCa", "Dyspnea"],
        {"X-ray": "normal"})
    first, second = ranking.entries[:2]
    assert first.assignment == (("TbOrCa", "no"),)
    assert second.assignment == (("LungCancer", "no"), ("TbOrCa", "no"))
    assert second.score == pytest.approx(first.score, rel=1e-12)


def test_bf_max_subset_size_validated(drug):
    with pytest.raises(ValueError, match="max_subset_size"):
        bayes_factor_search(drug, ["Sex"], REC, ExplainerConfig(max_subset_size=2))


# -- best explanation ---------------------------------------------------------------------


def test_best_explanation_cet_drug(drug):
    tree = drug_cet(drug, alpha=0.0)
    best, score = best_explanation(tree, "cet")
    assert best == {"Sex": "m", "Drug": "no"}
    assert score == pytest.approx(math.log2(0.7 / 0.45), abs=1e-9)


def test_best_explanation_rejects_unknown_method(drug):
    with pytest.raises(ValueError):
        best_explanation(drug_cet(drug, alpha=0.0), "mpe")


def test_count_nodes(drug):
    assert count_nodes(drug_cet(drug, alpha=0.0)) == 3  # Sex + Drug under each branch
    assert count_nodes(drug_cet(drug, alpha=10.0)) == 0


def test_no_variable_repeats_on_any_path(asia):
    hyp = [v.name for v in asia.variables if v.name != "Dyspnea"]
    tree = causal_explanation_tree(asia, hyp, {}, {"Dyspnea": "yes"},
                                   ExplainerConfig(alpha=0.0))
    for pairs, _, _ in iter_paths(tree):
        names = [v for v, _ in pairs]
        assert len(names) == len(set(names))


def test_explainer_config_validation():
    with pytest.raises(ValueError):
        ExplainerConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        ExplainerConfig(beta=1.5)
    with pytest.raises(ValueError):
        ExplainerConfig(max_subset_size=0)
    with pytest.raises(ValueError):
        ExplainerConfig(top_k=0)


def test_et_and_bf_reject_impossible_explanandum(asia):
    impossible = {"TbOrCa": "yes", "Tuberculosis": "no", "LungCancer": "no"}
    with pytest.raises(ImpossibleEvidenceError):
        explanation_tree(asia, ["Smoker"], impossible)
    with pytest.raises(ImpossibleEvidenceError):
        bayes_factor_search(asia, ["Smoker"], impossible,
                            ExplainerConfig(max_subset_size=1))


def test_best_explanation_empty_et_tree(drug):
    tree = explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(beta=1.0))
    assert best_explanation(tree, "et") == ({}, 1.0)


def test_best_explanation_of_the_quick_start_tree_keeps_state_order(asia):
    """The README's quick start: {LungCancer: yes} and {LungCancer: no,
    Tuberculosis: yes} both score 3.1514792383657464. The first path in state
    order wins, although "no" sorts before "yes" as a string."""
    hyp = [v.name for v in asia.variables if v.name not in ("X-ray", "TbOrCa")]
    tree = causal_explanation_tree(asia, hyp, {}, {"X-ray": "abnormal"},
                                   ExplainerConfig(alpha=0.01))
    labels = {pairs: label for pairs, label, _ in iter_paths(tree)}
    tied = (("LungCancer", "no"), ("Tuberculosis", "yes"))
    assert labels[(("LungCancer", "yes"),)] == labels[tied]
    assert best_explanation(tree, "cet") == ({"LungCancer": "yes"}, 3.1514792383657464)


def test_best_explanation_ties_go_to_the_first_path_in_state_order():
    """States "z" then "a": string order is the reverse of domain order. A
    label one part in 1e13 above another ties with it; a pruned branch, even
    with a higher label, never wins."""
    def leaf(state, label, pruned=False):
        return Branch(state, label, ExplanationTree(), pruned)

    exact = ExplanationTree("A", (leaf("z", 0.5), leaf("a", 0.5)))
    assert best_explanation(exact, "et") == ({"A": "z"}, 0.5)
    near = ExplanationTree("A", (leaf("z", 0.5), leaf("a", 0.5 + 5e-14)))
    assert best_explanation(near, "cet") == ({"A": "z"}, 0.5)
    apart = ExplanationTree("A", (leaf("z", 0.5), leaf("a", 0.5 + 1e-9)))
    assert best_explanation(apart, "cet") == ({"A": "a"}, 0.5 + 1e-9)
    nested = ExplanationTree("A", (
        Branch("z", 0.1, ExplanationTree("B", (leaf("y", -2.0), leaf("x", 3.0)))),
        leaf("a", 3.0),
        leaf("c", 9.0, pruned=True),
    ))
    assert best_explanation(nested, "cet") == ({"A": "z", "B": "x"}, 3.0)
    infinite = ExplanationTree("A", (leaf("z", 3.0), leaf("a", math.inf), leaf("b", math.inf)))
    assert best_explanation(infinite, "cet") == ({"A": "a"}, math.inf)


def test_cet_on_multistate_network(academe):
    # Theory and Practice play symmetric roles in the marks network, so their
    # flows tie exactly and declaration order decides the root; the causal
    # tree still offers Practice under every Theory branch.
    from bnexplain import flow_to_state

    fail = {"FinalMark": "fail"}
    hyp = ["Theory", "Practice", "Extra", "Other"]
    flow_theory = flow_to_state(academe, "Theory", fail)
    flow_practice = flow_to_state(academe, "Practice", fail)
    assert flow_theory == pytest.approx(flow_practice, abs=1e-12)

    tree = causal_explanation_tree(academe, hyp, {}, fail, ExplainerConfig(alpha=0.01))
    assert tree.variable == "Theory"
    assert [b.state for b in tree.branches] == ["bad", "average", "good"]
    assert all(b.subtree.variable == "Practice" for b in tree.branches)

    prior = oracle_event_probability(academe, fail)
    for pairs, label, pruned in iter_paths(tree):
        assert not pruned
        p = oracle_interventional_probability(academe, fail, do=dict(pairs))
        assert label == pytest.approx(math.log2(p / prior), abs=1e-9)
    best, _ = best_explanation(tree, "cet")
    assert best["Theory"] == "bad" and best["Practice"] == "bad"


# -- each explainer call asks each query once -------------------------------------------


class RecordingEngine(ExactEngine):
    """Records every elimination by (sources, targets, sorted observed items,
    sorted do items): each query, with no sources, and each forced joint; and,
    in ``reduced``, the factor set that each one was given."""

    def __init__(self):
        super().__init__()
        self.keys = []
        self.reduced = []

    def _joint(self, net, targets, observed=None, do=None, sources=(), *, reduced=None):
        self.keys.append((tuple(sources), tuple(targets), tuple(sorted((observed or {}).items())),
                          tuple(sorted((do or {}).items()))))
        self.reduced.append(reduced)
        return super()._joint(net, targets, observed, do, sources, reduced=reduced)


def _assert_causal_sequence(keys, net, tree, hyp, observed, e):
    """The exact elimination sequence of a causal tree. After the prior's
    queries, the root asks p(x | o') and then the joint with x free, per
    candidate x that reachability does not prune. A pick with a live branch
    and candidates left asks, for each candidate that is not pruned at its
    children, the joints over (pick, x) and over (pick, x, e) with the pick
    free; its children ask nothing for their terms. A pick that pruning
    scored zero asks its own joint only when it is observed, or when a
    directed path from it reaches e or the other observations avoiding the
    path's variables; otherwise no intervention on it moves its labels."""
    hyp = [v.name for v in net.variables if v.name in hyp]
    events = tuple(v.name for v in net.variables if v.name in e)
    o = {k: v for k, v in observed.items() if k not in e}
    want = [((), (), tuple(sorted({**e, **o}.items())), ())]
    if o:
        want.append(((), (), tuple(sorted(o.items())), ()))

    def without(bound, x):
        return tuple(sorted((k, v) for k, v in bound.items() if k != x))

    def scored(left, blocked):
        return [x for x in left if any(reachable(net, x, t, blocked) for t in e)]

    def walk(node, left, o, path):
        do = tuple(sorted(path.items()))
        if node.is_leaf():
            return
        pick = node.variable
        o_rest = {k: v for k, v in o.items() if k != pick}
        moves = pick in o or any(reachable(net, pick, t, set(path)) for t in {**e, **o_rest})
        if pick not in scored(left, set(o) | set(path)) and moves:
            want.append(((pick,), events, tuple(sorted(o_rest.items())), do))
        remaining = [v for v in left if v != pick]
        live = [b for b in node.branches if not b.pruned and b.label != float("-inf")]
        if remaining and live:
            for x in scored(remaining, set(o) | set(path) | {pick}):
                rest = without(o_rest, x)
                want.extend([((pick,), (x,), rest, do), ((pick, x), events, rest, do)])
            for b in live:
                walk(b.subtree, remaining, o_rest, {**path, pick: b.state})

    for x in scored(hyp, set(o)):
        want.extend([((), (x,), without(o, x), ()), ((x,), events, without(o, x), ())])
    walk(tree, hyp, o, {})
    assert keys == want


def _assert_pairs_at_the_root_then_triples(keys, net, tree, hyp, e, beta):
    """The root asks one query per pair of hypothesis variables (one marginal
    for a single variable), and no p(e): its first query raises on impossible
    evidence. Every later query is
    p(pick, y, z | e, P), one per pair (y, z) of the variables left below a
    pick at path P, asked in the pick's node before its children's and only
    when one of its branches has label > beta. Returns the number of nodes
    that asked nothing because every branch stopped by beta."""
    hyp = [v.name for v in net.variables if v.name in hyp]
    at_e = tuple(sorted(e.items()))
    root = list(itertools.combinations(hyp, 2)) or [tuple(hyp)]
    want = [((), pair, at_e, ()) for pair in root]
    stopped = 0

    def walk(node, path):
        nonlocal stopped
        if node.is_leaf():
            return
        left = [v for v in hyp if v != node.variable and v not in path]
        if len(left) > 1 and any(b.label > beta for b in node.branches):
            context = tuple(sorted({**e, **path}.items()))
            want.extend(((), (node.variable, y, z), context, ())
                        for y, z in itertools.combinations(left, 2))
        elif len(left) > 1:
            stopped += 1
        for b in node.branches:
            walk(b.subtree, {**path, node.variable: b.state})

    walk(tree, {})
    assert keys == want
    return stopped


RANDOM_HYP = ["V0", "V1", "V2", "V3", "V4"]
NO_REPEAT_CASES = {
    # Smoker is observed, so the causal tree scores it by pointwise flow
    "asia-cet": ("cet", "asia", ASIA_HYP, {"Smoker": "yes"}, {"Dyspnea": "yes"}),
    "asia-et": ("et", "asia", ASIA_HYP, {}, {"Dyspnea": "yes"}),
    "asia-bf": ("bf", "asia", ASIA_HYP, {}, {"Dyspnea": "yes"}),
    "academe-cet": ("cet", "academe", ACADEME_HYP, {}, {"FinalMark": "fail"}),
    "academe-et": ("et", "academe", ACADEME_HYP, {}, {"FinalMark": "fail"}),
    "random-cet": ("cet", "random", RANDOM_HYP, {"V3": "s0"}, {"V7": "s1"}),
    "random-et": ("et", "random", RANDOM_HYP, {}, {"V7": "s1"}),
    "random-bf": ("bf", "random", RANDOM_HYP, {}, {"V7": "s1"}),
    "asia-et-beta": ("et", "asia", ASIA_HYP, {}, {"Dyspnea": "yes"}),
    # do(A=a1) contradicts B=b0, so the root's pick has one live branch, and
    # its child still gets its terms from the pick's batch
    "copies-cet": ("cet", "copies", ["A", "X"], {"B": "b0"}, {"E": "e1"}),
    # with TbOrCa observed, VisitAsia reaches no explanandum past it and is
    # scored zero, but forcing it moves TbOrCa's other cause: it asks its joint
    "asia-collider-cet": ("cet", "asia", ["VisitAsia", "Tuberculosis"], {"TbOrCa": "yes"},
                          {"Dyspnea": "yes"}),
}
# at beta 0.1, one asia node below the root has every branch at or below beta
NO_REPEAT_CONFIGS = {"asia-et-beta": ExplainerConfig(beta=0.1)}


@pytest.mark.parametrize("name", NO_REPEAT_CASES)
def test_no_explainer_call_repeats_an_engine_query(request, net_factory, name):
    kind, key, hyp, observed, e = NO_REPEAT_CASES[name]
    if key == "random":
        net = net_factory(np.random.default_rng(7), 8, max_states=3)
    elif key == "copies":
        net = copies_net()
    else:
        net = request.getfixturevalue(key)
    eng = RecordingEngine()
    cfg = NO_REPEAT_CONFIGS.get(name, ExplainerConfig(alpha=0.0))
    if kind == "cet":
        tree = causal_explanation_tree(net, hyp, observed, e, cfg, engine=eng)
        _assert_causal_sequence(eng.keys, net, tree, hyp, observed, e)
    elif kind == "et":
        tree = explanation_tree(net, hyp, e, cfg, engine=eng)
        stopped = _assert_pairs_at_the_root_then_triples(eng.keys, net, tree, hyp, e, cfg.beta)
        assert stopped == (cfg.beta > 0.0)
    else:
        bayes_factor_search(net, hyp, e, cfg, engine=eng)
        # one table p(S, E) per largest subset S, with no observations and no p(e)
        events = tuple(v.name for v in net.variables if v.name in e)
        ordered = [v.name for v in net.variables if v.name in hyp]
        assert eng.keys == [((), (*subset, *events), (), ())
                            for subset in itertools.combinations(ordered, cfg.max_subset_size)]
    repeats = {k: n for k, n in collections.Counter(eng.keys).items() if n > 1}
    assert not repeats


# -- ET and Bayes-factor search answer from one factor set per call --------------------


def forty_variables():
    """A seeded 40-variable network, the explanandum V27=s0 and, as the
    hypothesis, the last five of V27's 14 ancestors. Nine relevant variables
    lie outside the hypothesis and e, at least the six inside, so each ET or
    BF call builds a factor set."""
    from conftest import make_random_network

    net = make_random_network(np.random.default_rng(40), 40)
    return net, ["V14", "V15", "V16", "V23", "V25"], {"V27": "s0"}


@pytest.mark.parametrize("kind", ["et", "bf"])
def test_et_and_bf_build_one_factor_set_and_eliminate_at_most_h_per_question(
        monkeypatch, kind):
    from bnexplain import inference

    net, hyp, e = forty_variables()
    builds, eliminated = [], []
    build, eliminate = ExactEngine._factor_set, inference._eliminate

    def spy_build(self, *args, **kwargs):
        builds.append(build(self, *args, **kwargs))
        return builds[-1]

    def spy_eliminate(work, variables, net):
        eliminated.append(len(variables))
        return eliminate(work, variables, net)

    monkeypatch.setattr(ExactEngine, "_factor_set", spy_build)
    monkeypatch.setattr(inference, "_eliminate", spy_eliminate)
    eng = RecordingEngine()
    if kind == "et":
        tree = explanation_tree(net, hyp, e, ExplainerConfig(alpha=0.0), engine=eng)
        assert count_nodes(tree) > 1
    else:
        bayes_factor_search(net, hyp, e, engine=eng)
    [reduced] = builds
    assert reduced is not None and all(r is reduced for r in eng.reduced)
    # one elimination builds the set, one answers each question
    assert eng.calls == 1 + len(eng.keys) and len(eng.keys) > 1
    assert eliminated[0] == 9
    assert len(eliminated) == eng.calls and max(eliminated[1:]) <= len(hyp)


def test_et_and_bf_from_four_threads_on_one_engine_match_a_serial_run():
    """Each call's factor set is its own, so four threads sharing an engine
    get the serial outputs, and the engine counts every elimination."""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    net, hyp, _ = forty_variables()

    def run_all(eng, start=None):
        if start is not None:
            start.wait(timeout=10)
        out = []
        for state in net.domain("V27"):
            e = {"V27": state}
            out.append(explanation_tree(net, hyp, e, ExplainerConfig(alpha=0.0), engine=eng))
            out.append(bayes_factor_search(net, hyp, e, engine=eng))
        return out

    serial_engine = ExactEngine()
    serial = run_all(serial_engine)
    eng, start = ExactEngine(), threading.Barrier(4)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_all, eng, start) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(threaded == serial for threaded in results)
    assert eng.calls == 4 * serial_engine.calls


def test_a_full_binary_causal_tree_asks_63_eliminations():
    """Five binary root causes of E grow the full tree of 31 nodes at alpha 0:
    a root's flow is a divergence, never negative. p(e) is one query; the
    root asks two eliminations for each of its 5 candidates; every pick has
    two live branches and asks two for each candidate left, for both children
    at once: 1 + 10 + 8 + 2*6 + 4*4 + 8*2 = 63. Two eliminations per candidate
    at every node would be 1 + 2 * (5 + 2*4 + 4*3 + 8*2 + 16*1) = 115."""
    rng = np.random.default_rng(3)
    causes = [f"H{i}" for i in range(5)]
    variables = [Variable(v, ("t", "f")) for v in [*causes, "E"]]
    priors = rng.uniform(0.2, 0.8, 5).tolist()
    cpts = {v: Cpt(v, (), ((p, 1.0 - p),)) for v, p in zip(causes, priors)}
    rows = tuple((p, 1.0 - p) for p in rng.uniform(0.05, 0.95, 32).tolist())
    cpts["E"] = Cpt("E", tuple(causes), rows)
    net = Network(variables, cpts, name="causes")
    eng = ExactEngine()
    tree = causal_explanation_tree(net, causes, {}, {"E": "t"}, ExplainerConfig(), engine=eng)
    assert count_nodes(tree) == 31
    assert eng.calls == 63


def test_picks_that_no_intervention_moves_ask_no_joint(asia):
    """asia at alpha 0, explaining X-ray=abnormal by the six variables of
    ASIA_HYP. p(e) is one query; the root asks two eliminations for each of
    the five candidates that reach X-ray, Bronchitis aside, and picks TbOrCa,
    which blocks every other path to X-ray. The 62 nodes below it are picks
    that pruning scored zero and that reach neither e nor an observation, so
    their labels are their node's p_e: 1 + 2*5 = 11 eliminations, where each
    of those picks asking its own joint took 11 + 62 = 73."""
    eng = ExactEngine()
    tree = causal_explanation_tree(asia, ASIA_HYP, {}, {"X-ray": "abnormal"},
                                   ExplainerConfig(alpha=0.0), engine=eng)
    assert tree.variable == "TbOrCa" and count_nodes(tree) == 63
    assert eng.calls == 11


def test_bayes_factor_scores_one_ulp_apart_keep_enumeration_order():
    """A and B are exchangeable causes of E up to one ulp in one CPT entry, so
    B=t outscores A=t by a few ulps, within rounding noise; the two tie and
    keep enumeration order."""
    q = 0.61
    variables = [Variable("A", ("t", "f")), Variable("B", ("t", "f")), Variable("E", ("y", "n"))]
    ft = math.nextafter(q, 1.0)
    cpts = {
        "A": Cpt("A", (), ((0.2, 0.8),)),
        "B": Cpt("B", (), ((0.2, 0.8),)),
        "E": Cpt("E", ("A", "B"), ((0.43, 0.57), (q, 1.0 - q), (ft, 1.0 - ft), (0.39, 0.61))),
    }
    net = Network(variables, cpts, name="exchangeable")
    cfg = ExplainerConfig(max_subset_size=1, top_k=4, best_per_subset=False)
    ranking = bayes_factor_search(net, ["A", "B"], {"E": "y"}, cfg)
    scores = {e.assignment: e.score for e in ranking.entries}
    a, b = scores[(("A", "t"),)], scores[(("B", "t"),)]
    assert a < b <= a + 1e-12 * max(1.0, a)
    assert [e.assignment for e in ranking.entries[:2]] == [(("A", "t"),), (("B", "t"),)]
    assert ranking.entries[2].score < ranking.entries[1].score - 1e-6


def test_infinite_bayes_factors_tie_only_with_each_other():
    from bnexplain.explain import Explanation, _rank

    scores = [5.0, math.inf, math.nextafter(5.0, math.inf), math.inf, 4.0]
    scored = [(frozenset({f"V{i}"}), Explanation(((f"V{i}", "t"),), s))
              for i, s in enumerate(scores)]
    assert [scored.index(item) for item in _rank(scored)] == [1, 3, 0, 2, 4]
