"""Causal explanation trees for discrete Bayesian networks.

Answers "why was this state observed?" over a causal Bayesian network by
growing explanation trees from causal information flow, next to three
baseline explainers (noncausal explanation trees, most probable explanation,
Bayes-factor subset search) for side-by-side comparison. Exact inference is
variable elimination; a full-joint enumeration oracle ships alongside so
every number the package produces can be re-derived by brute force.
"""

from .causal import (
    flow_to_state,
    information_flow,
    interventional_probability,
    pointwise_flow,
)
from .errors import (
    ImpossibleEvidenceError,
    NetworkFormatError,
    NetworkValidationError,
    OracleDivergenceError,
    StateSpaceError,
)
from .explain import (
    Branch,
    Explanation,
    ExplainerConfig,
    ExplanationTree,
    RankedExplanations,
    bayes_factor_search,
    best_explanation,
    causal_explanation_tree,
    count_nodes,
    explanation_tree,
    iter_paths,
    mpe_explanation,
)
from .factors import Factor
from .fileformat import load_network, parse_network, serialize_network
from .inference import (
    ExactEngine,
    QueryResult,
    conditional_mutual_information,
    event_probability,
    joint_probability,
    mpe,
    query_distribution,
)
from .network import (
    Cpt,
    Network,
    Variable,
    check_assignment,
    merge_assignments,
    mutilate,
    reachable,
    topological_order,
)
from .oracle import (
    CheckedEngine,
    JointTable,
    OracleEngine,
    enumerate_joint,
    oracle_conditional_mutual_information,
    oracle_event_probability,
    oracle_flow_to_state,
    oracle_information_flow,
    oracle_interventional_probability,
    oracle_mpe,
    oracle_pointwise_flow,
    oracle_query,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CheckedEngine",
    "Cpt",
    "ExactEngine",
    "Explanation",
    "ExplainerConfig",
    "ExplanationTree",
    "Factor",
    "ImpossibleEvidenceError",
    "JointTable",
    "Network",
    "NetworkFormatError",
    "NetworkValidationError",
    "OracleDivergenceError",
    "OracleEngine",
    "QueryResult",
    "RankedExplanations",
    "StateSpaceError",
    "Variable",
    "bayes_factor_search",
    "best_explanation",
    "causal_explanation_tree",
    "check_assignment",
    "conditional_mutual_information",
    "count_nodes",
    "enumerate_joint",
    "event_probability",
    "explanation_tree",
    "flow_to_state",
    "information_flow",
    "interventional_probability",
    "iter_paths",
    "joint_probability",
    "load_network",
    "merge_assignments",
    "mpe",
    "mpe_explanation",
    "mutilate",
    "oracle_conditional_mutual_information",
    "oracle_event_probability",
    "oracle_flow_to_state",
    "oracle_information_flow",
    "oracle_interventional_probability",
    "oracle_mpe",
    "oracle_pointwise_flow",
    "oracle_query",
    "parse_network",
    "pointwise_flow",
    "query_distribution",
    "reachable",
    "serialize_network",
    "topological_order",
]
