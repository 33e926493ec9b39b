"""Discrete causal Bayesian network data model.

A :class:`Network` is an immutable DAG of discrete variables, each carrying a
conditional probability table (CPT) given its graph parents. All invariants
(shapes, row sums, acyclicity) are checked at construction time, so query code
downstream can rely on them without re-validating. Construction also compiles
the network once for inference: its read-only CPT factors and its elimination
order are built there and never change afterwards.

Variable declaration order is significant: it is preserved verbatim and used
as the deterministic tie-breaker by every argmax in the package.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import factors as fa
from .errors import NetworkValidationError

ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered domain of state labels."""

    name: str
    states: tuple[str, ...]


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table p(child | parents).

    Rows enumerate parent-state combinations in lexicographic order over the
    declared parent order with the LAST parent varying fastest; columns
    enumerate child states in domain order. Every row sums to one.
    """

    child: str
    parents: tuple[str, ...]
    table: tuple[tuple[float, ...], ...]


def _check_label(kind: str, label: object) -> str:
    if not isinstance(label, str) or not label:
        raise NetworkValidationError(f"{kind} must be a nonempty string, got {label!r}")
    if label.strip() != label:
        raise NetworkValidationError(f"{kind} {label!r} has leading/trailing whitespace")
    if "=" in label or "," in label:
        raise NetworkValidationError(f"{kind} {label!r} may not contain '=' or ','")
    if not label.isprintable():  # a newline or tab would break the rendered trees
        raise NetworkValidationError(f"{kind} {label!r} has a non-printable character")
    return label


class Network:
    """Validated, immutable causal Bayesian network.

    After validation, construction compiles the network for inference: each
    variable's CPT as a read-only factor (``_factors``) and the position of
    each variable in one min-degree elimination order (``_elimination_rank``).
    Nothing sets an attribute after ``__init__`` returns.

    Args:
        variables: variables in declaration order.
        cpts: one :class:`Cpt` per variable, keyed by variable name. Edges of
            the graph are implied by the CPT parent lists.
        name: optional display name carried through serialization.

    Raises:
        NetworkValidationError: on any structural violation (unknown parents,
            bad table shape, row sums off by more than ``ROW_SUM_TOLERANCE``,
            or a directed cycle).
    """

    def __init__(self, variables: Sequence[Variable], cpts: Mapping[str, Cpt], name: str = ""):
        self.name = name
        self.variables: tuple[Variable, ...] = tuple(variables)
        self._index: dict[str, int] = {}
        self._domains: dict[str, tuple[str, ...]] = {}
        for pos, var in enumerate(self.variables):
            _check_label("variable name", var.name)
            if var.name in self._index:
                raise NetworkValidationError(f"duplicate variable {var.name!r}")
            states = tuple(var.states)
            if len(states) < 2:
                raise NetworkValidationError(f"variable {var.name!r} needs at least 2 states")
            seen = set()
            for s in states:
                _check_label(f"state of {var.name!r}", s)
                if s in seen:
                    raise NetworkValidationError(f"duplicate state {s!r} in variable {var.name!r}")
                seen.add(s)
            self._index[var.name] = pos
            self._domains[var.name] = states

        self.cpts: dict[str, Cpt] = {}
        for var in self.variables:
            if var.name not in cpts:
                raise NetworkValidationError(f"missing CPT for variable {var.name!r}")
            self.cpts[var.name] = self._check_cpt(cpts[var.name])
        for extra in set(cpts) - set(self._index):
            raise NetworkValidationError(f"CPT given for unknown variable {extra!r}")

        self._parents = {v: self.cpts[v].parents for v in self._index}
        kids: dict[str, list[str]] = {v: [] for v in self._index}
        for child, parents in self._parents.items():  # declaration order keeps kids sorted
            for p in parents:
                kids[p].append(child)
        self._children = {v: tuple(c) for v, c in kids.items()}

        self._topological = self._toposort()

        self._factors: dict[str, fa.Factor] = {v.name: fa.from_cpt(self, v.name) for v in self.variables}
        for f in self._factors.values():
            f.values.flags.writeable = False
        self._elimination_rank = self._min_degree_rank()

    def _check_cpt(self, cpt: Cpt) -> Cpt:
        var = cpt.child
        seen_parents = set()
        for p in cpt.parents:
            if p not in self._index:
                raise NetworkValidationError(f"CPT of {var!r} names unknown parent {p!r}")
            if p == var or p in seen_parents:
                raise NetworkValidationError(f"CPT of {var!r} repeats parent {p!r}")
            seen_parents.add(p)
        n_rows = math.prod(len(self._domains[p]) for p in cpt.parents)
        n_cols = len(self._domains[var])
        if len(cpt.table) != n_rows:
            raise NetworkValidationError(
                f"CPT of {var!r} has {len(cpt.table)} rows, expected {n_rows}"
            )
        for i, row in enumerate(cpt.table):
            if len(row) != n_cols:
                raise NetworkValidationError(
                    f"CPT of {var!r}, row {i}: {len(row)} entries, expected {n_cols}"
                )
            for p in row:
                if not (0.0 <= p <= 1.0):
                    raise NetworkValidationError(f"CPT of {var!r}, row {i}: entry {p!r} not in [0,1]")
            if abs(sum(row) - 1.0) > ROW_SUM_TOLERANCE:
                raise NetworkValidationError(
                    f"CPT of {var!r}, row {i} sums to {sum(row)!r}, expected 1"
                )
        return cpt

    def _toposort(self) -> tuple[str, ...]:
        """Kahn's algorithm, always placing the earliest-declared ready variable."""
        waiting = {v: len(ps) for v, ps in self._parents.items()}
        ready = [self._index[v] for v, n in waiting.items() if not n]  # ascending: a heap
        placed: list[str] = []
        while ready:
            name = self.variables[heapq.heappop(ready)].name
            placed.append(name)
            for child in self._children[name]:
                waiting[child] -= 1
                if not waiting[child]:
                    heapq.heappush(ready, self._index[child])
        if len(placed) < len(self.variables):
            raise NetworkValidationError(
                "cycle detected among variables: " + ", ".join(sorted(set(self._index) - set(placed)))
            )
        return tuple(placed)

    def _min_degree_rank(self) -> dict[str, int]:
        """Position of each variable in one min-degree elimination order of the moral graph.

        Declaration order breaks ties. The neighbour sets are built in one
        pass over the factor scopes and each next variable is popped from a
        heap of (degree, declaration index) with stale entries skipped, so the
        order of a sparse network is near-linear in its size.
        """
        nbrs: dict[str, set[str]] = {v: set() for v in self._factors}
        for f in self._factors.values():
            for v in f.scope:
                nbrs[v].update(f.scope)
        heap = [(len(nbrs[v]), self._index[v], v) for v in nbrs]
        heapq.heapify(heap)
        rank: dict[str, int] = {}
        while heap:
            degree, _, var = heapq.heappop(heap)
            if var in rank or degree != len(nbrs[var]):
                continue  # stale: eliminated, or its degree changed since the push
            joined = nbrs.pop(var)
            for u in joined - {var}:
                nbrs[u] |= joined
                nbrs[u].discard(var)
                heapq.heappush(heap, (len(nbrs[u]), self._index[u], u))
            rank[var] = len(rank)
        return rank

    # -- read-only structure --------------------------------------------------

    def __contains__(self, var: str) -> bool:
        return var in self._index

    def index(self, var: str) -> int:
        """Declaration position of a variable (also the tie-break key)."""
        try:
            return self._index[var]
        except KeyError:
            raise NetworkValidationError(f"unknown variable {var!r}") from None

    def domain(self, var: str) -> tuple[str, ...]:
        self.index(var)
        return self._domains[var]

    def state_index(self, var: str, state: str) -> int:
        try:
            return self._domains[var].index(state)
        except (KeyError, ValueError):
            raise NetworkValidationError(f"unknown state {state!r} for variable {var!r}") from None

    def parents(self, var: str) -> tuple[str, ...]:
        self.index(var)
        return self._parents[var]

    def children(self, var: str) -> tuple[str, ...]:
        self.index(var)
        return self._children[var]

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((p, c) for c in self._index for p in self._parents[c])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.name == other.name
            and self.variables == other.variables
            and self.cpts == other.cpts
        )

    # equality is by value, hashing stays by identity (used for per-object caches)
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Network({self.name!r}, {len(self.variables)} variables, {len(self.edges)} edges)"


# -- assignments ---------------------------------------------------------------
#
# Assignments (evidence, explananda, interventions) are plain mappings from
# variable name to state label. The helpers below validate them against a
# network and merge role sets, rejecting conflicting bindings.


def check_assignment(net: Network, assignment: Mapping[str, str]) -> dict[str, str]:
    """Validate bindings against the network, returned in declaration order."""
    for var, state in assignment.items():
        net.state_index(var, state)
    return {v.name: assignment[v.name] for v in net.variables if v.name in assignment}


def merge_assignments(*assignments: Mapping[str, str]) -> dict[str, str]:
    """Union of bindings; a variable bound to two different states is an error."""
    merged: dict[str, str] = {}
    for a in assignments:
        for var, state in a.items():
            if merged.get(var, state) != state:
                raise ValueError(
                    f"conflicting bindings for {var!r}: {merged[var]!r} vs {state!r}"
                )
            merged[var] = state
    return merged


# -- graph operations ------------------------------------------------------------


def topological_order(net: Network) -> tuple[str, ...]:
    """Parents-before-children order, ties broken by declaration order."""
    return net._topological


def reachable(net: Network, source: str, target: str, blocked: Iterable[str] = ()) -> bool:
    """True iff a directed path source -> ... -> target avoids ``blocked`` interior nodes."""
    net.index(source)
    net.index(target)
    if source == target:
        raise ValueError("source and target must differ")
    blocked = set(blocked)
    for v in blocked:
        net.index(v)
    return source in _upstream(net, (target,), blocked)


def _upstream(net: Network, start, stop=()) -> set[str]:
    """``start`` and every variable with a directed path into it whose
    interior avoids ``stop``. The walk goes up the parents; it includes a
    ``stop`` variable it reaches but goes no further, and always walks the
    start. By the truncated factorisation these are the variables that take
    part in a question on ``start`` with ``stop`` intervened. The names are
    not validated."""
    parents = net._parents
    found = set(start)
    stack = list(found)
    while stack:
        for parent in parents[stack.pop()]:
            if parent not in found:
                found.add(parent)
                if parent not in stop:
                    stack.append(parent)
    return found


def mutilate(net: Network, do: Mapping[str, str]) -> Network:
    """Network after interventions: truncated factorization.

    Every intervened variable loses its incoming edges and its CPT becomes a
    point mass on the forced state; all other CPTs are untouched. The input
    network is never modified.
    """
    do = check_assignment(net, do)
    if not do:
        return net
    cpts = dict(net.cpts)
    for var, state in do.items():
        hit = net.state_index(var, state)
        row = tuple(1.0 if i == hit else 0.0 for i in range(len(net.domain(var))))
        cpts[var] = Cpt(child=var, parents=(), table=(row,))
    return Network(net.variables, cpts, name=net.name)
