"""Dense nonnegative factors over discrete variables.

A factor's ``values`` array has one axis per scope variable, in network
declaration order. Keeping every scope sorted that way makes products a pure
broadcast (no transposes) and makes all results bit-deterministic.
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
    shape = tuple(len(net.domain(p)) for p in cpt.parents) + (len(net.domain(var)),)
    values = np.asarray(cpt.table, dtype=float).reshape(shape)
    scope = cpt.parents + (var,)
    order = sorted(range(len(scope)), key=lambda i: net.index(scope[i]))
    return Factor(tuple(scope[i] for i in order), values.transpose(order))


def _expand(f: Factor, out_scope: tuple[str, ...]) -> np.ndarray:
    # f.scope must be a subsequence of out_scope (both declaration-sorted)
    idx: list[object] = []
    j = 0
    for v in out_scope:
        if j < len(f.scope) and f.scope[j] == v:
            idx.append(slice(None))
            j += 1
        else:
            idx.append(None)
    return f.values[tuple(idx)]


def multiply(f: Factor, g: Factor, net: Network) -> Factor:
    scope = tuple(sorted(set(f.scope) | set(g.scope), key=net.index))
    return Factor(scope, _expand(f, scope) * _expand(g, scope))


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
