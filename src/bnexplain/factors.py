"""Dense nonnegative factors over discrete variables.

A factor's ``values`` array has one axis per scope variable, in network
declaration order. Keeping every scope sorted that way makes products a pure
broadcast (no transposes) and makes all results bit-deterministic: a product
reshapes each operand to the merged scope, with a length-one axis for every
variable it lacks, and multiplies the two. The tables are tiny, so numpy's
per-call cost dominates; the kernels keep their numpy calls few.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # network.py builds its factors with from_cpt, so it imports this module
    from .network import Network


@dataclass(frozen=True, eq=False)
class Factor:
    scope: tuple[str, ...]
    values: np.ndarray  # shape = domain sizes along scope


def unit_factor() -> Factor:
    return Factor((), np.array(1.0))


def from_cpt(net: Network, var: str) -> Factor:
    """CPT as a factor over parents + child, axes in declaration order."""
    cpt = net.cpts[var]
    scope = cpt.parents + (var,)
    values = np.asarray(cpt.table, dtype=float).reshape([len(net._domains[v]) for v in scope])
    position = [net._index[v] for v in scope]
    order = sorted(range(len(scope)), key=position.__getitem__)
    return Factor(tuple(scope[i] for i in order), values.transpose(order))


def multiply(f: Factor, g: Factor, net: Network) -> Factor:
    """Pointwise product over the union of the scopes, in declaration order.

    Each operand is reshaped to the union's axes, with length one where its
    scope lacks the variable, and the two broadcast.
    """
    domains = net._domains
    scope = tuple(sorted({*f.scope, *g.scope}, key=net._index.__getitem__))
    f_shape = [len(domains[v]) if v in f.scope else 1 for v in scope]
    g_shape = [len(domains[v]) if v in g.scope else 1 for v in scope]
    return Factor(scope, f.values.reshape(f_shape) * g.values.reshape(g_shape))


def marginalize(f: Factor, var: str) -> Factor:
    axis = f.scope.index(var)
    return Factor(f.scope[:axis] + f.scope[axis + 1 :], f.values.sum(axis=axis))


def reduce_var(f: Factor, var: str, state_index: int) -> Factor:
    axis = f.scope.index(var)
    return Factor(f.scope[:axis] + f.scope[axis + 1 :], f.values.take(state_index, axis=axis))


def max_out(f: Factor, var: str) -> tuple[Factor, np.ndarray]:
    """Maximize out ``var``; also return the argmax table over the reduced scope.

    ``argmax`` picks the lowest state index on ties, which is what gives
    max-product tracebacks their deterministic state-order tie-breaking.
    """
    axis = f.scope.index(var)
    reduced = Factor(f.scope[:axis] + f.scope[axis + 1 :], f.values.max(axis=axis))
    return reduced, f.values.argmax(axis=axis)
