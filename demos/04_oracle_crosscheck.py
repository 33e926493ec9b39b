"""Every number is reproducible by brute force.

The enumeration oracle materializes the full joint table and answers the
same queries by masked summation, with no factor elimination and no graph
surgery. This script re-derives the headline drug-network numbers from the
raw table, then shows the cross-checking engine that backs the CLI's
--oracle-check flag.
"""

from bnexplain import (
    CheckedEngine,
    ExactEngine,
    ExplainerConfig,
    causal_explanation_tree,
    enumerate_joint,
    event_probability,
    mutilate,
    oracle_query,
)
from bnexplain.datasets import drug
from bnexplain.render import tree_to_text

net = drug()
rec = {"Recovery": "rec"}

print("=== The full joint, spelled out ===")
table = enumerate_joint(net)
print("cell order:", " x ".join(table.scope))
for sex in ("m", "f"):
    for d in ("yes", "no"):
        for r in ("rec", "norec"):
            ix = (net.state_index("Sex", sex), net.state_index("Drug", d),
                  net.state_index("Recovery", r))
            print(f"  p(Sex={sex}, Drug={d}, Recovery={r}) = {table.values[ix]:.4f}")
print(f"sum = {float(table.values.sum()):.12f}\n")

print("=== Headline numbers, twice ===")
pairs = [
    ("p(rec)", event_probability(net, rec), oracle_query(table, net, rec)),
    ("p(rec | Drug=yes)", event_probability(net, rec, {"Drug": "yes"}),
     oracle_query(table, net, rec, {"Drug": "yes"})),
    ("p(rec | do(Drug=yes))",
     event_probability(mutilate(net, {"Drug": "yes"}), rec),
     oracle_query(enumerate_joint(net, {"Drug": "yes"}), net, rec)),
]
for label, engine_value, oracle_value in pairs:
    print(f"  {label:24s} engine {engine_value:.10f}   oracle {oracle_value:.10f}   "
          f"gap {abs(engine_value - oracle_value):.2e}")
print()

print("=== Cross-checking engine ===")
checked = CheckedEngine(primary=ExactEngine())
tree = causal_explanation_tree(net, ["Sex", "Drug"], {}, rec,
                               ExplainerConfig(alpha=0.0), engine=checked)
print("every probability behind this tree was recomputed by enumeration:")
print(tree_to_text(tree))
print(f"elimination queries checked: {checked.calls}")
