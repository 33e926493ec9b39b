"""Every input rule of the public entry points, one row per rejected input.

Each row names an entry point, an invalid input and the exception it must
raise. The rules live in one place per layer (engine query arguments,
probability roles, flow roles, explainer roles); this table pins what each
public caller sees.
"""

import pytest

from bnexplain import (
    CheckedEngine,
    Cpt,
    ExactEngine,
    Network,
    NetworkValidationError,
    OracleEngine,
    Variable,
    bayes_factor_search,
    causal_explanation_tree,
    conditional_mutual_information,
    explanation_tree,
    flow_to_state,
    information_flow,
    interventional_probability,
    mpe,
    oracle_event_probability,
    pointwise_flow,
)

DYS = {"Dyspnea": "yes"}

REJECTIONS = [
    # unknown variable or state
    ("query-unknown-target", lambda n: ExactEngine().query(n, ("Ghost",)),
     NetworkValidationError),
    ("query-unknown-state", lambda n: ExactEngine().query(n, (), {"Smoker": "maybe"}),
     NetworkValidationError),
    ("oracle-query-unknown-do", lambda n: OracleEngine().query(n, ("Dyspnea",), None, {"Ghost": "x"}),
     NetworkValidationError),
    ("probability-unknown-event", lambda n: ExactEngine().probability(n, {"Ghost": "x"}),
     NetworkValidationError),
    ("mpe-unknown-state", lambda n: mpe(n, {"Smoker": "maybe"}), NetworkValidationError),
    ("cmi-unknown-context",
     lambda n: conditional_mutual_information(n, "Smoker", "Bronchitis", {"Ghost": "x"}),
     NetworkValidationError),
    ("cet-unknown-hypothesis", lambda n: causal_explanation_tree(n, ["Ghost"], {}, DYS),
     NetworkValidationError),
    ("flow-unknown-source", lambda n: flow_to_state(n, "Ghost", DYS), NetworkValidationError),
    ("pointwise-unknown-state", lambda n: pointwise_flow(n, "Smoker", "maybe", DYS),
     NetworkValidationError),
    # a target that is already observed
    ("query-target-observed", lambda n: ExactEngine().query(n, ("Smoker",), {"Smoker": "yes"}),
     ValueError),
    ("oracle-query-target-observed",
     lambda n: OracleEngine().query(n, ("Smoker",), {"Smoker": "yes"}), ValueError),
    ("checked-query-target-observed",
     lambda n: CheckedEngine().query(n, ("Smoker",), {"Smoker": "yes"}), ValueError),
    # a target that is intervened on, or do overlapping the observations, on every engine
    ("query-target-intervened", lambda n: ExactEngine().query(n, ("Smoker",), None, {"Smoker": "yes"}),
     ValueError),
    ("oracle-query-target-intervened",
     lambda n: OracleEngine().query(n, ("Smoker",), None, {"Smoker": "yes"}), ValueError),
    ("checked-query-target-intervened",
     lambda n: CheckedEngine().query(n, ("Smoker",), None, {"Smoker": "yes"}), ValueError),
    ("query-do-observed", lambda n: ExactEngine().query(n, (), {"Smoker": "yes"}, {"Smoker": "yes"}),
     ValueError),
    ("oracle-query-do-observed",
     lambda n: OracleEngine().query(n, (), {"Smoker": "yes"}, {"Smoker": "yes"}), ValueError),
    ("checked-query-do-observed",
     lambda n: CheckedEngine().query(n, (), {"Smoker": "yes"}, {"Smoker": "yes"}), ValueError),
    # do overlapping the event or the observations
    ("probability-do-event", lambda n: ExactEngine().probability(n, {"Smoker": "yes"}, None,
                                                                  {"Smoker": "yes"}), ValueError),
    ("probability-do-observed", lambda n: ExactEngine().probability(n, DYS, {"Smoker": "yes"},
                                                                     {"Smoker": "yes"}), ValueError),
    ("oracle-probability-do-event", lambda n: OracleEngine().probability(n, {"Smoker": "yes"}, None,
                                                                          {"Smoker": "yes"}), ValueError),
    ("interventional-do-observed",
     lambda n: interventional_probability(n, DYS, {"Smoker": "yes"}, {"Smoker": "yes"}), ValueError),
    # a variable bound in two roles
    ("interventional-event-observed",
     lambda n: interventional_probability(n, DYS, {"Dyspnea": "yes"}), ValueError),
    ("information-flow-source-intervened",
     lambda n: information_flow(n, "Smoker", "Dyspnea", {"Smoker": "yes"}), ValueError),
    ("flow-explanandum-observed",
     lambda n: flow_to_state(n, "Smoker", DYS, {"Dyspnea": "yes"}), ValueError),
    ("cet-explanandum-conflicts-observed",
     lambda n: causal_explanation_tree(n, ["Smoker"], {"Dyspnea": "no"}, DYS), ValueError),
    # an empty explanandum
    ("cet-empty-explanandum", lambda n: causal_explanation_tree(n, ["Smoker"], {}, {}), ValueError),
    ("et-empty-explanandum", lambda n: explanation_tree(n, ["Smoker"], {}), ValueError),
    ("bf-empty-explanandum", lambda n: bayes_factor_search(n, ["Smoker"], {}), ValueError),
    ("flow-empty-explanandum", lambda n: flow_to_state(n, "Smoker", {}), ValueError),
    ("pointwise-empty-explanandum", lambda n: pointwise_flow(n, "Smoker", "yes", {}), ValueError),
    # a hypothesis set overlapping the explanandum
    ("cet-hypothesis-overlap", lambda n: causal_explanation_tree(n, ["Smoker", "Dyspnea"], {}, DYS),
     ValueError),
    ("et-hypothesis-overlap", lambda n: explanation_tree(n, ["Smoker", "Dyspnea"], DYS), ValueError),
    ("bf-hypothesis-overlap", lambda n: bayes_factor_search(n, ["Smoker", "Dyspnea"], DYS),
     ValueError),
    # a source that is already bound, or equal to the target
    ("flow-source-observed", lambda n: flow_to_state(n, "Smoker", DYS, {"Smoker": "yes"}),
     ValueError),
    ("pointwise-source-intervened",
     lambda n: pointwise_flow(n, "Smoker", "yes", DYS, None, {"Smoker": "yes"}), ValueError),
    ("information-flow-source-is-target",
     lambda n: information_flow(n, "Smoker", "Smoker"), ValueError),
    # conditional mutual information needs two distinct, unobserved variables
    ("cmi-same-variable", lambda n: conditional_mutual_information(n, "Smoker", "Smoker"), ValueError),
    ("cmi-variable-in-context",
     lambda n: conditional_mutual_information(n, "Smoker", "Bronchitis", {"Smoker": "yes"}),
     ValueError),
    # a conflicting event/observed pair, on every engine
    ("exact-conflicting-event-observed",
     lambda n: ExactEngine().probability(n, {"Smoker": "yes"}, {"Smoker": "no"}), ValueError),
    ("oracle-conflicting-event-observed",
     lambda n: OracleEngine().probability(n, {"Smoker": "yes"}, {"Smoker": "no"}), ValueError),
    ("checked-conflicting-event-observed",
     lambda n: CheckedEngine().probability(n, {"Smoker": "yes"}, {"Smoker": "no"}), ValueError),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in REJECTIONS],
                         ids=[row[0] for row in REJECTIONS])
def test_rejected_input(asia, call, error):
    with pytest.raises(error):
        call(asia)


def _certain_given_z() -> Network:
    # Y = yes whenever Z = yes, so p(Y=yes | Z=yes) = 1; the numerator also sums
    # p(x) p(w | x) over X and W, which rounds to one ulp above one
    cpts = {
        "X": Cpt("X", (), ((0.2, 0.24, 0.56),)),
        "W": Cpt("W", ("X",), ((0.09, 0.91), (0.37, 0.63), (0.56, 0.44))),
        "Z": Cpt("Z", (), ((0.76, 0.24),)),
        "Y": Cpt("Y", ("W", "Z"), ((1.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.5, 0.5))),
    }
    variables = [Variable("X", ("a", "b", "c")), Variable("W", ("u", "v")),
                 Variable("Z", ("yes", "no")), Variable("Y", ("yes", "no"))]
    return Network(variables, cpts)


def test_certain_conditional_probability_is_capped_at_one(asia):
    # TbOrCa is the deterministic OR of Tuberculosis and LungCancer
    event, given = {"TbOrCa": "yes"}, {"LungCancer": "yes"}
    assert oracle_event_probability(asia, event, given) == 1.0
    assert OracleEngine().probability(asia, event, given) == 1.0
    exact = ExactEngine().probability(asia, event, given)
    assert exact <= 1.0 and exact == pytest.approx(1.0, abs=1e-15)
    net = _certain_given_z()
    for engine in (ExactEngine(), OracleEngine(), CheckedEngine()):
        assert engine.probability(net, {"Y": "yes"}, {"Z": "yes"}) == 1.0
