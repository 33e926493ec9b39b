"""Brute-force reference implementations by full-joint enumeration.

Everything here recomputes probabilistic and information-theoretic quantities
from an explicitly materialized joint table, so it can serve as an independent
check of the query engine at desk scale. The table is a
:class:`~bnexplain.factors.Factor` over every variable with axes in declaration
order, the one layout of every table in the package. The oracle multiplies the
CPT factors each network compiles at construction, with its own intervention
surgery; it shares no elimination or cache with
:class:`~bnexplain.inference.ExactEngine`. It ships with the package (not only
the tests) and backs the CLI's ``--oracle-check`` flag through
:class:`CheckedEngine`.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Mapping

import numpy as np

from . import factors as fa
from .errors import ImpossibleEvidenceError, OracleDivergenceError, StateSpaceError
from .inference import ExactEngine, QueryResult, _check_roles
from .network import Network, check_assignment, merge_assignments

Assignment = Mapping[str, str]

DEFAULT_CELL_CAP = 2**20
_TOLERANCE = 1e-9  # largest engine-vs-oracle gap CheckedEngine accepts


JointTable = fa.Factor  # the joint is a Factor over every variable, axes in declaration order


def enumerate_joint(
    net: Network, do: Assignment | None = None, cap: int = DEFAULT_CELL_CAP
) -> fa.Factor:
    """Materialize the (post-intervention) joint by truncated factorization.

    Returns a :class:`~bnexplain.factors.Factor` whose scope is every network
    variable in declaration order, one axis each, like every other table in
    the package. Each cell is the product, taken in declaration order, of the
    CPT entries of non-intervened variables, zeroed wherever an intervened
    variable deviates from its forced value. The terms are the network's CPT
    factors, compiled at construction, and one-hot rows on the forced states,
    broadcast directly; no elimination, engine surgery or engine cache is used.

    Raises:
        StateSpaceError: the table would exceed ``cap`` cells.
    """
    do = check_assignment(net, do or {})
    scope = tuple(v.name for v in net.variables)
    cards = tuple(len(net.domain(v)) for v in scope)
    cells = math.prod(cards)
    if cells > cap:
        raise StateSpaceError(f"joint table would need {cells} cells (cap {cap})")

    joint = np.ones(cards)
    for v in scope:
        if v in do:
            term = fa.Factor((v,), np.eye(len(net.domain(v)))[net.state_index(v, do[v])])
        else:
            term = net._factors[v]
        joint = joint * term.values[tuple(slice(None) if u in term.scope else None for u in scope)]
    return fa.Factor(scope, joint)


def _slicer(table: fa.Factor, net: Network, bound: Assignment) -> tuple:
    return tuple(
        net.state_index(v, bound[v]) if v in bound else slice(None) for v in table.scope
    )


def _masked_sum(table: fa.Factor, net: Network, targets, observed: Assignment) -> fa.Factor:
    """The table's cells that agree with ``observed``, summed over all but ``targets``."""
    block = table.values[_slicer(table, net, observed)]
    if not targets:
        return fa.Factor((), block.sum())
    kept = [v for v in table.scope if v not in observed]
    drop = tuple(i for i, v in enumerate(kept) if v not in targets)
    return fa.Factor(tuple(v for v in kept if v in targets), block.sum(axis=drop))


def oracle_query(
    table: fa.Factor, net: Network, event: Assignment, given: Assignment | None = None
) -> float:
    """p(event | given) by masked summation over the joint table.

    Pure summation semantics: an event that contradicts the conditioning has
    an empty match set and probability zero (point conditioning therefore
    yields only 0 or 1). The numerator's cells are a subset of the
    denominator's, so it is capped there against rounding.
    """
    event = check_assignment(net, event)
    given = check_assignment(net, given or {})
    denom = float(table.values[_slicer(table, net, given)].sum()) if given else 1.0
    if denom <= 0.0:
        raise ImpossibleEvidenceError("conditioning event has probability zero")
    try:
        joint = merge_assignments(event, given)
    except ValueError:
        return 0.0
    return min(float(table.values[_slicer(table, net, joint)].sum()), denom) / denom


class OracleEngine:
    """Enumeration-backed engine with the query contract of ExactEngine.

    The contract is borrowed, not rewritten: :meth:`query` and
    :meth:`probability` are :class:`~bnexplain.inference.ExactEngine`'s own
    functions, bound in this class body, and read this engine's
    :meth:`_joint`. That joint is its own: it slices the observed states out
    of the joint table of :func:`enumerate_joint` and sums the non-target
    axes; the table's declaration order is already the answer's axis order.
    A forced joint takes one such sum per joint forced state of its sources,
    each over its own one-hot table, so it shares no mechanism with the
    engine's elimination. Joint tables are cached per (network, intervention
    set), so repeated queries against the same post-intervention distribution
    stay cheap. The cache is this engine's own, keyed by network identity,
    and holds the network, so its id cannot be reused while the entry lives.
    The ``calls`` counter is incremented under a lock.
    """

    # Bound, not inherited: bench/tracer.py replaces the methods in
    # ExactEngine's class dict, and these bindings keep the originals, so
    # oracle queries are not counted as engine queries.
    query = ExactEngine.query
    probability = ExactEngine.probability

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()
        self._tables: dict[tuple[int, tuple], tuple[Network, fa.Factor]] = {}

    def _table(self, net: Network, do: dict[str, str]) -> fa.Factor:
        key = (id(net), frozenset(do.items()))
        if key not in self._tables:
            self._tables[key] = (net, enumerate_joint(net, do))
        return self._tables[key][1]

    def _factor_set(self, net, keep, observed=None) -> None:
        """None: the oracle has no elimination to share between questions."""
        return None

    def _joint(self, net, targets, observed=None, do=None, sources=(), *,
               reduced=None) -> fa.Factor:
        """:meth:`ExactEngine._joint <bnexplain.inference.ExactEngine._joint>` by
        masked summation: one sum over the joint table of each joint forced
        state of the sources, stacked along their axes (with no sources, the
        one table of the intervention). A factor set ``reduced`` is ignored:
        the answer is that of the plain question."""
        with self._lock:
            self.calls += 1
        observed, do = _check_roles(net, (*sources, *targets), observed=observed,
                                    do=do).values()
        free = tuple(sorted(sources, key=net.index))
        rows = [_masked_sum(self._table(net, {**do, **dict(zip(free, states))}), net, targets,
                            observed)
                for states in itertools.product(*(net.domain(v) for v in free))]
        shape = tuple(len(net.domain(v)) for v in free) + rows[0].values.shape
        stacked = fa.Factor(free + rows[0].scope, np.reshape([r.values for r in rows], shape))
        scope = tuple(sorted(stacked.scope, key=net.index))
        return fa.Factor(scope, stacked.values.transpose([stacked.scope.index(v) for v in scope]))


class CheckedEngine:
    """Runs every query and forced joint on two engines and insists they agree.

    Wraps a primary engine (normally :class:`ExactEngine`) and an
    :class:`OracleEngine`; any probability differing by more than 1e-9 raises
    :class:`OracleDivergenceError`. Results returned are always the primary's.
    An explainer's factor set is the primary's, and only the primary answers
    from it; the oracle answers the plain question.
    """

    def __init__(self, primary=None) -> None:
        self.primary = primary if primary is not None else ExactEngine()
        self.reference = OracleEngine()

    @property
    def calls(self) -> int:
        return self.primary.calls

    def _agree(self, kind: str, a: float, b: float) -> None:
        if abs(a - b) > _TOLERANCE:
            raise OracleDivergenceError(
                f"{kind} diverges from the enumeration oracle: {a!r} vs {b!r}"
            )

    def _agree_table(self, kind: str, got: fa.Factor, want: fa.Factor) -> None:
        if got.scope != want.scope:
            raise OracleDivergenceError(f"{kind} scopes differ: {got.scope} vs {want.scope}")
        gap = float(np.max(np.abs(got.values - want.values)))
        if gap > _TOLERANCE:
            raise OracleDivergenceError(f"{kind} diverges from the enumeration oracle by {gap!r}")

    def query(self, net, targets=(), observed=None, do=None, *, _reduced=None) -> QueryResult:
        got = self.primary.query(net, targets, observed, do, _reduced=_reduced)
        want = self.reference.query(net, targets, observed, do)
        self._agree("evidence probability", got.evidence_probability, want.evidence_probability)
        self._agree_table("distribution", got.distribution, want.distribution)
        return got

    def _factor_set(self, net, keep, observed=None):
        return self.primary._factor_set(net, keep, observed)

    def _joint(self, net, targets, observed=None, do=None, sources=(), *,
               reduced=None) -> fa.Factor:
        got = self.primary._joint(net, targets, observed, do, sources, reduced=reduced)
        self._agree_table("joint", got, self.reference._joint(net, targets, observed, do, sources))
        return got

    def probability(self, net, event, observed=None, do=None) -> float:
        got = self.primary.probability(net, event, observed, do)
        want = self.reference.probability(net, event, observed, do)
        self._agree("probability", got, want)
        return got


# -- direct formula expansions over the enumerated joint ---------------------------
#
# These mirror the engine-side measures term by term but draw every probability
# from oracle_query, giving the test suite a second, independent route.


def oracle_event_probability(
    net: Network, event: Assignment, given: Assignment | None = None
) -> float:
    return oracle_query(enumerate_joint(net), net, event, given)


def oracle_interventional_probability(
    net: Network,
    event: Assignment,
    observed: Assignment | None = None,
    do: Assignment | None = None,
) -> float:
    return oracle_query(enumerate_joint(net, do), net, event, observed)


def oracle_conditional_mutual_information(
    net: Network, x: str, y: str, context: Assignment | None = None
) -> float:
    """Literal expansion: sum_x p(x|z) sum_y p(y|x,z) log2 p(y|x,z)/p(y|z)."""
    context = dict(context or {})
    table = enumerate_joint(net)
    total = 0.0
    for xs in net.domain(x):
        p_x = oracle_query(table, net, {x: xs}, context)
        if p_x <= 0.0:
            continue
        for ys in net.domain(y):
            p_y_given_x = oracle_query(table, net, {y: ys}, {**context, x: xs})
            p_y = oracle_query(table, net, {y: ys}, context)
            if p_y_given_x > 0.0:
                total += p_x * p_y_given_x * math.log2(p_y_given_x / p_y)
    return total


def _oracle_forced(net, source, observed, do, measure):
    """p(source | observed, do), then ``measure`` of the joint table under
    do(do, source=s) keyed by the index of every state s of positive posterior,
    and their posterior-weighted mixture."""
    base = enumerate_joint(net, do)
    p_source = [oracle_query(base, net, {source: s}, observed) for s in net.domain(source)]
    forced = {i: measure(enumerate_joint(net, {**(do or {}), source: s}))
              for i, s in enumerate(net.domain(source)) if p_source[i] > 0.0}
    return p_source, forced, sum(p_source[i] * forced[i] for i in forced)


def oracle_information_flow(
    net: Network,
    source: str,
    target: str,
    do: Assignment | None = None,
    observed: Assignment | None = None,
) -> float:
    p_source, dists, mixture = _oracle_forced(
        net, source, observed, do,
        lambda table: np.array([oracle_query(table, net, {target: t}, observed)
                                for t in net.domain(target)]),
    )
    total = 0.0
    for j in range(len(net.domain(target))):
        for i in dists:
            if dists[i][j] > 0.0:
                total += p_source[i] * dists[i][j] * math.log2(dists[i][j] / mixture[j])
    return total


def oracle_flow_to_state(
    net: Network,
    source: str,
    explanandum: Assignment,
    observed: Assignment | None = None,
    do: Assignment | None = None,
) -> float:
    p_e = oracle_query(enumerate_joint(net, do), net, explanandum, observed)
    if p_e <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero in this context")
    p_source, p_event, mixture = _oracle_forced(
        net, source, observed, do, lambda table: oracle_query(table, net, explanandum, observed)
    )
    total = 0.0
    for i, v in p_event.items():
        if v > 0.0:
            total += (p_source[i] * v / p_e) * math.log2(v / mixture)
    return total


def oracle_pointwise_flow(
    net: Network,
    source: str,
    state: str,
    explanandum: Assignment,
    observed_rest: Assignment | None = None,
    do: Assignment | None = None,
) -> float:
    def p_event_in(table):
        return oracle_query(table, net, explanandum, observed_rest)

    _, p_event, mixture = _oracle_forced(net, source, observed_rest, do, p_event_in)
    if mixture <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero in this context")
    numer = p_event.get(net.state_index(source, state))
    if numer is None:  # the known state has posterior zero
        numer = p_event_in(enumerate_joint(net, {**(do or {}), source: state}))
    if numer <= 0.0:
        return float("-inf")
    return math.log2(numer / mixture)


def oracle_mpe(net: Network, evidence: Assignment) -> tuple[dict[str, str], float]:
    """Argmax over all completions, first maximum in declaration-lex order."""
    evidence = check_assignment(net, evidence)
    table = enumerate_joint(net)
    # the block's axes are the other variables in declaration order, so its
    # first maximum in C order is the declaration-lex first maximiser
    block = table.values[_slicer(table, net, evidence)]
    p_evidence = float(block.sum()) if evidence else 1.0
    if p_evidence <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    best = np.unravel_index(np.argmax(block), block.shape)
    free = [v.name for v in net.variables if v.name not in evidence]
    return {v: net.domain(v)[i] for v, i in zip(free, best)}, float(block[best]) / p_evidence
