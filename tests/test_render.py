import json
import re

import pytest

from bnexplain import (
    Branch,
    Cpt,
    ExplainerConfig,
    ExplanationTree,
    Network,
    Variable,
    bayes_factor_search,
    causal_explanation_tree,
    explanation_tree,
    mpe_explanation,
)
from bnexplain.render import (
    ranking_to_json_obj,
    ranking_to_text,
    to_json_text,
    tree_from_json_obj,
    tree_to_dot,
    tree_to_json_obj,
    tree_to_text,
)

REC = {"Recovery": "rec"}


@pytest.fixture
def drug_tree(drug):
    return causal_explanation_tree(drug, ["Sex", "Drug"], {}, REC, ExplainerConfig(alpha=0.0))


@pytest.fixture
def pruned_tree():
    variables = [Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1")),
                 Variable("C", ("c0", "c1"))]
    cpts = {
        "A": Cpt("A", (), ((0.5, 0.5),)),
        "B": Cpt("B", ("A",), ((1.0, 0.0), (0.0, 1.0))),
        "C": Cpt("C", ("B",), ((0.8, 0.2), (0.3, 0.7))),
    }
    net = Network(variables, cpts)
    return causal_explanation_tree(net, ["A"], {"B": "b0"}, {"C": "c0"},
                                   ExplainerConfig(alpha=0.0, prune_unreachable=False))


def test_json_round_trip(drug, drug_tree, pruned_tree):
    for tree in (drug_tree, pruned_tree,
                 explanation_tree(drug, ["Sex", "Drug"], REC, ExplainerConfig(alpha=0.0))):
        text = to_json_text(tree_to_json_obj(tree))
        assert tree_from_json_obj(json.loads(text)) == tree


def test_json_keeps_full_precision(drug_tree):
    obj = tree_to_json_obj(drug_tree)
    text = to_json_text(obj)
    reparsed = tree_from_json_obj(json.loads(text))
    for a, b in zip(drug_tree.branches, reparsed.branches):
        assert a.label == b.label  # bit-identical through the round trip


_NODE = re.compile(r'^  n\d+ \[(shape=point, )?label="[^"]*"\];$')
_EDGE = re.compile(r'^  n\d+ -> n\d+ \[label="[^"]+: (-?\d+\.\d{4}|-inf|inf|pruned)"\];$')


def test_dot_is_structurally_valid(drug_tree, pruned_tree):
    for tree in (drug_tree, pruned_tree):
        dot = tree_to_dot(tree)
        lines = dot.strip().split("\n")
        assert lines[0] == "digraph explanation_tree {"
        assert lines[-1] == "}"
        nodes = edges = 0
        for line in lines[1:-1]:
            if _NODE.match(line):
                nodes += 1
            elif _EDGE.match(line):
                edges += 1
            else:
                raise AssertionError(f"unexpected DOT line: {line!r}")
        # a tree: one node statement per tree node (internal + leaves), one
        # labeled edge per branch, and #nodes = #edges + 1
        assert nodes == edges + 1


def test_dot_labels_have_four_decimals(drug_tree):
    dot = tree_to_dot(drug_tree)
    assert 'label="m: 0.4739"' in dot
    assert 'label="no: 0.6374"' in dot


def test_dot_escapes_quotes_and_backslashes_in_labels():
    # names may hold '"' and '\\' (only '=' and ',' are refused); DOT quoted
    # strings need both escaped
    variables = [Variable('Rain"fall', ("heavy", "li\\ght")), Variable("Flood", ("yes", "no"))]
    cpts = {
        'Rain"fall': Cpt('Rain"fall', (), ((0.3, 0.7),)),
        "Flood": Cpt("Flood", ('Rain"fall',), ((0.9, 0.1), (0.2, 0.8))),
    }
    tree = causal_explanation_tree(Network(variables, cpts), ['Rain"fall'], {}, {"Flood": "yes"},
                                   ExplainerConfig(alpha=0.0))
    lines = tree_to_dot(tree).splitlines()
    assert lines[1] == '  n0 [label="Rain\\"fall"];'
    assert lines[5] == '  n0 -> n2 [label="li\\\\ght: -1.0356"];'
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')  # a DOT quoted string
    for line in lines[1:-1]:
        assert quoted.sub("", line).count('"') == 0, line


def test_text_tree_snapshot(drug_tree):
    assert tree_to_text(drug_tree) == (
        "Sex\n"
        "+- Sex=m: 0.4739\n"
        "|  Drug\n"
        "|  +- Drug=yes: 0.4150\n"
        "|  `- Drug=no: 0.6374\n"
        "`- Sex=f: -0.7105\n"
        "   Drug\n"
        "   +- Drug=yes: -1.1699\n"
        "   `- Drug=no: -0.5850\n"
    )


def test_labels_within_rounding_noise_of_zero_print_unsigned():
    # a forced state without effect can give p(e | do) one ulp below the
    # prior, so a causal-tree label of -3.2e-16; JSON keeps it exactly
    leaf = ExplanationTree()
    tree = ExplanationTree("A", (Branch("a0", -3.2e-16, leaf), Branch("a1", 1e-12, leaf),
                                 Branch("a2", -2e-12, leaf)))
    assert tree_to_text(tree) == "A\n+- A=a0: 0.0000\n+- A=a1: 0.0000\n`- A=a2: -0.0000\n"
    assert 'label="a0: 0.0000"' in tree_to_dot(tree)
    assert tree_to_json_obj(tree)["branches"][0]["label"] == -3.2e-16


def test_text_tree_marks_pruned_branches(pruned_tree):
    text = tree_to_text(pruned_tree)
    assert "A=a1: pruned" in text


def test_empty_tree_text(drug):
    tree = causal_explanation_tree(drug, ["Sex", "Drug"], {}, REC, ExplainerConfig(alpha=10.0))
    assert tree_to_text(tree) == "(empty explanation tree)\n"


def test_ranking_renderers(drug):
    ranking = mpe_explanation(drug, REC)
    assert ranking_to_text(ranking) == "1. Sex=m Drug=yes  p=0.5000\n"
    obj = ranking_to_json_obj(ranking)
    assert obj["score_kind"] == "posterior_probability"
    assert obj["entries"][0]["assignment"] == {"Sex": "m", "Drug": "yes"}
    assert obj["entries"][0]["score"] == pytest.approx(0.5, abs=1e-12)


def test_ranking_text_counts_skipped_degenerate_hypotheses():
    variables = [Variable("A", ("t", "f")), Variable("E", ("t", "f"))]
    cpts = {"A": Cpt("A", (), ((1.0, 0.0),)),
            "E": Cpt("E", ("A",), ((0.7, 0.3), (0.2, 0.8)))}
    ranking = bayes_factor_search(Network(variables, cpts), ["A"], {"E": "t"},
                                  ExplainerConfig(max_subset_size=1))
    assert ranking_to_text(ranking) == "(skipped 2 degenerate hypotheses)\n"
