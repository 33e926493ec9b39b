"""Explanation methods: causal explanation trees, noncausal explanation
trees, single most-probable-explanation output, and Bayes-factor subset
search.

All four answer the same question ("why was this state observed?") with
different machinery, which is the point: they are meant to be run side by
side and compared. Trees are immutable and bit-deterministic; every argmax
breaks ties by variable declaration order, then state order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .causal import _pointwise, _state_flow, _state_terms
from .errors import ImpossibleEvidenceError
from .inference import ExactEngine, _engine, conditional_mutual_information, mpe
from .network import Network, check_assignment, merge_assignments, reachable

Assignment = Mapping[str, str]

_ROUNDING_SLACK = 1e-12  # differences this small (relative beyond 1) are rounding noise


@dataclass(frozen=True)
class ExplainerConfig:
    """Knobs shared by the explainers; each method reads the fields it uses.

    alpha:
        Minimum score a variable must reach to be added to a tree. Causal
        trees compare information flow against it, noncausal trees compare
        conditional mutual information.
    beta:
        Minimum posterior probability a noncausal-tree path must keep to be
        expanded further. Zero-probability branches therefore always stop,
        and ``beta=1`` stops everything (the root's empty path has posterior
        exactly one).
    max_subset_size, top_k:
        Bayes-factor search: largest variable-subset size to enumerate and
        how many ranked entries to return.
    raw_odds:
        Score the Bayes-factor search with plain posterior odds
        p(h|e)/(1-p(h|e)) instead of the default odds ratio normalized by
        prior odds.
    best_per_subset:
        Keep only the best-scoring assignment of each variable subset in the
        Bayes-factor ranking (the default). Disable to rank every partial
        assignment individually.
    prune_unreachable:
        Score zero, without touching the inference engine, every causal-tree
        candidate that has no directed path to the explanandum avoiding the
        currently observed and intervened variables. This is a rule, not only
        a shortcut: through an observed collider such a candidate can still
        have nonzero flow (forcing Tuberculosis in asia with TbOrCa observed
        explains LungCancer away and moves Dyspnea), so the two settings can
        grow different trees.
    """

    alpha: float = 0.0
    beta: float = 0.0
    max_subset_size: int = 2
    top_k: int = 3
    raw_odds: bool = False
    best_per_subset: bool = True
    prune_unreachable: bool = True

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        if self.max_subset_size < 1 or self.top_k < 1:
            raise ValueError("max_subset_size and top_k must be positive")


@dataclass(frozen=True)
class Branch:
    """One state branch out of a tree node.

    ``label`` is the branch score (log2 probability ratio for causal trees,
    path posterior for noncausal trees). A ``pruned`` branch is one whose
    intervention made the remaining observations impossible; it is kept in
    the tree, with ``label`` None, rather than silently dropped.
    """

    state: str
    label: float | None
    subtree: "ExplanationTree"
    pruned: bool = False


@dataclass(frozen=True)
class ExplanationTree:
    """Tree of explanatory variables; ``variable`` None marks a leaf."""

    variable: str | None = None
    branches: tuple[Branch, ...] = ()

    def is_leaf(self) -> bool:
        return self.variable is None


LEAF = ExplanationTree()


def iter_paths(tree: ExplanationTree) -> Iterator[tuple[tuple[tuple[str, str], ...], float | None, bool]]:
    """Yield (assignment pairs, final branch label, final branch pruned) per root-to-leaf path."""

    def walk(node, prefix):
        if node.is_leaf():
            return
        for branch in node.branches:
            path = prefix + ((node.variable, branch.state),)
            if branch.subtree.is_leaf():
                yield path, branch.label, branch.pruned
            else:
                yield from walk(branch.subtree, path)

    yield from walk(tree, ())


def count_nodes(tree: ExplanationTree) -> int:
    """Number of internal (variable) nodes."""
    if tree.is_leaf():
        return 0
    return 1 + sum(count_nodes(b.subtree) for b in tree.branches)


@dataclass(frozen=True)
class Explanation:
    """A partial assignment with its score, stored in declaration order."""

    assignment: tuple[tuple[str, str], ...]
    score: float

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


@dataclass(frozen=True)
class RankedExplanations:
    """Scored explanations, best first; ties keep assignment-lexicographic order.

    ``skipped_degenerate`` counts hypotheses whose prior was 0 or 1, for which
    a Bayes factor is undefined.
    """

    score_kind: str  # "posterior_probability" | "bayes_factor"
    entries: tuple[Explanation, ...]
    skipped_degenerate: int = 0


def _explainer_roles(
    net: Network, hypothesis: Iterable[str], explanandum: Assignment
) -> tuple[tuple[str, ...], dict[str, str]]:
    """Hypothesis variables in declaration order and the validated explanandum.

    The explanandum binds at least one variable; every hypothesis variable is
    declared and none is part of the explanandum.
    """
    e = check_assignment(net, explanandum)
    if not e:
        raise ValueError("explanandum must bind at least one variable")
    names = set(hypothesis)
    for v in names:
        net.index(v)
    clash = names & set(e)
    if clash:
        raise ValueError(f"hypothesis variables overlap the explanandum: {', '.join(sorted(clash))}")
    return tuple(v.name for v in net.variables if v.name in names), e


def _argmax(candidates: Iterable[str], scores: Mapping[str, float]) -> str:
    """Earliest candidate (declaration order) whose score ties the maximum.

    Scores within 1e-12 * max(1, |max|) of the maximum count as tied, so that
    rounding noise from the elimination order cannot decide between them.
    """
    candidates = list(candidates)
    best = max(scores[v] for v in candidates)
    slack = _ROUNDING_SLACK * max(1.0, abs(best))
    return next(v for v in candidates if scores[v] >= best - slack)


# -- causal explanation trees -----------------------------------------------------


def causal_explanation_tree(
    net: Network,
    hypothesis: Iterable[str],
    observed: Assignment | None,
    explanandum: Assignment,
    config: ExplainerConfig | None = None,
    *,
    engine: ExactEngine | None = None,
) -> ExplanationTree:
    """Grow an explanation tree driven by causal information flow.

    At every node the hypothesis variable with the largest flow to the
    explanandum state is selected, each of its states becomes a branch whose
    intervention extends the path, and recursion continues on the remaining
    variables until none is left or the best flow drops below ``alpha``.
    Observed hypothesis variables are scored by their pointwise flow and
    branch only on their known state. Branch labels are
    log2(p(e | o, do(path)) / p(e | o)), with intervened variables dropped
    from the observation set; positive labels mean the path makes the
    explanandum more likely than its prior.

    Raises:
        ImpossibleEvidenceError: p(explanandum | observed) is zero.
    """
    cfg = config or ExplainerConfig()
    eng = _engine(engine)
    hyp, e = _explainer_roles(net, hypothesis, explanandum)
    o = check_assignment(net, observed or {})
    merge_assignments(e, o)  # conflicting re-bindings are an error
    # the explanandum is conditioned on separately; a consistent re-binding in
    # the observation set would only degenerate the prior to one
    o = {k: v for k, v in o.items() if k not in e}

    prior = eng.probability(net, e, o)
    if prior <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero given the observations")
    return _grow_causal(net, hyp, o, e, {}, prior, prior, cfg, eng)


def _grow_causal(net, hyp, o, e, path, p_e, prior, cfg, eng) -> ExplanationTree:
    """Causal-tree node at ``path``, where p(e | o, do(path)) = ``p_e`` > 0.

    Every reachable candidate x gets its :func:`~bnexplain.causal._state_terms`
    p(x | o', do(path)), p(e | o', do(path, x=s)) and their mixture, with o'
    the observations other than x; the flow to the state, or the pointwise
    flow of an observed x, is computed from them as in the public flows. The
    pick's terms are its branch labels and its children's p_e; only a pick
    state of zero posterior is asked of the engine, and only there can the
    intervention contradict the observations and prune the branch.
    """
    if not hyp:
        return LEAF
    scores, terms = {}, {}
    blocked = set(o) | set(path)
    for x in hyp:
        if cfg.prune_unreachable and not any(reachable(net, x, t, blocked) for t in e):
            scores[x] = 0.0
            continue
        rest = {k: v for k, v in o.items() if k != x}
        terms[x] = _state_terms(eng, net, x, e, rest, path)
        scores[x] = (_pointwise(eng, net, x, o[x], e, rest, path, terms[x]) if x in o
                     else _state_flow(terms[x], p_e))
    pick = _argmax(hyp, scores)
    if scores[pick] < cfg.alpha:
        return LEAF

    states = (o[pick],) if pick in o else net.domain(pick)
    known = {net.domain(pick)[i]: p for i, p in terms[pick][1].items()} if pick in terms else {}
    o_rest = {k: v for k, v in o.items() if k != pick}
    remaining = tuple(v for v in hyp if v != pick)
    branches = []
    for state in states:
        forced = {**path, pick: state}
        try:  # only a state of zero posterior, or of an unscored pick, is asked
            p_forced = known[state] if state in known else eng.probability(net, e, o_rest, forced)
        except ImpossibleEvidenceError:
            # the intervention contradicts the remaining observations
            branches.append(Branch(state, None, LEAF, pruned=True))
            continue
        if p_forced > 0.0:
            label = math.log2(p_forced / prior)
            sub = _grow_causal(net, remaining, o_rest, e, forced, p_forced, prior, cfg, eng)
        else:
            label = float("-inf")
            sub = LEAF
        branches.append(Branch(state, label, sub))
    return ExplanationTree(pick, tuple(branches))


# -- noncausal explanation trees ----------------------------------------------------


def explanation_tree(
    net: Network,
    hypothesis: Iterable[str],
    explanandum: Assignment,
    config: ExplainerConfig | None = None,
    *,
    engine: ExactEngine | None = None,
) -> ExplanationTree:
    """Grow a noncausal explanation tree scored by conditional mutual information.

    At every node the hypothesis variable sharing the most information with
    the rest of the hypothesis set (conditioned on explanandum and path so
    far, summed over the other variables) is selected. Expansion stops when
    the chosen variable's best pairwise information falls below ``alpha`` or
    the path posterior does not exceed ``beta``; a singleton hypothesis set
    has an empty sum, scores zero, and therefore stops under any positive
    ``alpha``. Branch labels are the path posterior p(path, state | e).

    Raises:
        ImpossibleEvidenceError: p(explanandum) is zero.
    """
    cfg = config or ExplainerConfig()
    eng = _engine(engine)
    hyp, e = _explainer_roles(net, hypothesis, explanandum)

    if eng.probability(net, e) <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero")
    if cfg.beta >= 1.0:
        return LEAF  # the empty path has posterior exactly 1
    return _grow_noncausal(net, hyp, e, {}, 1.0, cfg, eng)


def _grow_noncausal(net, hyp, e, path, p_path, cfg, eng) -> ExplanationTree:
    """Noncausal-tree node at ``path``, where p(path | e) = ``p_path`` > beta.

    A branch label p(path, s | e) is ``p_path`` times p(s | e, path), one
    query over the pick per node.
    """
    if not hyp:
        return LEAF
    context = merge_assignments(e, path)
    pairwise = {}
    for x, y in itertools.combinations(hyp, 2):
        pairwise[(x, y)] = conditional_mutual_information(net, x, y, context, engine=eng)

    def around(v):
        return [val for (x, y), val in pairwise.items() if v in (x, y)]

    scores = {v: sum(around(v)) for v in hyp}
    pick = _argmax(hyp, scores)
    stop_stat = max(around(pick), default=0.0)
    if stop_stat < cfg.alpha:
        return LEAF

    remaining = tuple(v for v in hyp if v != pick)
    p_pick = eng.query(net, (pick,), context).distribution.values
    branches = []
    for state, p_state in zip(net.domain(pick), p_pick.tolist()):
        extended = {**path, pick: state}
        label = p_path * p_state
        if label > cfg.beta:
            sub = _grow_noncausal(net, remaining, e, extended, label, cfg, eng)
        else:
            sub = LEAF
        branches.append(Branch(state, label, sub))
    return ExplanationTree(pick, tuple(branches))


# -- most probable explanation -------------------------------------------------------


def mpe_explanation(
    net: Network,
    evidence: Assignment,
    *,
    engine: ExactEngine | None = None,
) -> RankedExplanations:
    """The single most probable completion of the unobserved variables."""
    completion, score = mpe(net, evidence, engine=engine)
    pairs = tuple((v.name, completion[v.name]) for v in net.variables if v.name in completion)
    return RankedExplanations(
        score_kind="posterior_probability",
        entries=(Explanation(pairs, score),),
    )


# -- Bayes-factor subset search --------------------------------------------------------


def bayes_factor_search(
    net: Network,
    hypothesis: Iterable[str],
    explanandum: Assignment,
    config: ExplainerConfig | None = None,
    *,
    engine: ExactEngine | None = None,
) -> RankedExplanations:
    """Exhaustively score partial assignments over hypothesis subsets.

    Every assignment h over subsets of sizes 1..max_subset_size is scored
    with the Bayes factor (posterior odds over prior odds by default, plain
    posterior odds with ``raw_odds``). Hypotheses with prior 0 or 1 have no
    defined odds ratio; they are skipped and counted. A posterior within 1e-12
    of one scores infinity, as its odds are rounding noise. With
    ``best_per_subset`` (default), the ranking keeps one entry per variable
    subset, namely its best assignment, before the top_k cut.

    Raises:
        ImpossibleEvidenceError: p(explanandum) is zero.
    """
    cfg = config or ExplainerConfig()
    eng = _engine(engine)
    hyp, e = _explainer_roles(net, hypothesis, explanandum)
    if cfg.max_subset_size > len(hyp):
        raise ValueError(
            f"max_subset_size {cfg.max_subset_size} exceeds the {len(hyp)} hypothesis variables"
        )
    if eng.probability(net, e) <= 0.0:
        raise ImpossibleEvidenceError("explanandum has probability zero")

    scored: list[tuple[frozenset[str], Explanation]] = []
    skipped = 0
    for size in range(1, cfg.max_subset_size + 1):
        for subset in itertools.combinations(hyp, size):
            priors = eng.query(net, subset).distribution.values.ravel().tolist()
            posteriors = eng.query(net, subset, e).distribution.values.ravel().tolist()
            assignments = itertools.product(*(net.domain(v) for v in subset))  # C order, as ravel
            for states, prior, posterior in zip(assignments, priors, posteriors):
                if prior <= 0.0 or prior >= 1.0:
                    skipped += 1
                    continue
                if posterior >= 1.0 - _ROUNDING_SLACK:  # certain up to rounding noise
                    score = float("inf")
                elif cfg.raw_odds:
                    score = posterior / (1.0 - posterior)
                else:
                    score = (posterior / (1.0 - posterior)) * ((1.0 - prior) / prior)
                scored.append((frozenset(subset), Explanation(tuple(zip(subset, states)), score)))

    ranked = sorted(scored, key=lambda item: -item[1].score)  # stable: ties keep enum order
    if cfg.best_per_subset:
        seen: set[frozenset[str]] = set()
        deduped = []
        for subset, entry in ranked:
            if subset not in seen:
                seen.add(subset)
                deduped.append((subset, entry))
        ranked = deduped
    entries = tuple(entry for _, entry in ranked[: cfg.top_k])
    return RankedExplanations("bayes_factor", entries, skipped_degenerate=skipped)


# -- best explanation out of a tree ------------------------------------------------------


def best_explanation(tree: ExplanationTree, method: str) -> tuple[dict[str, str], float]:
    """Best root-to-leaf path of a tree built by the matching method.

    For ``"et"`` the winner maximizes the final branch's path posterior; for
    ``"cet"`` it maximizes the final branch's log-ratio contribution. Pruned
    paths are excluded. A bare leaf yields the empty explanation with the
    neutral score (posterior 1 for "et", contribution 0 for "cet"). Ties go
    to the lexicographically smallest assignment.
    """
    if method not in ("cet", "et"):
        raise ValueError(f"method must be 'cet' or 'et', got {method!r}")
    best: tuple[tuple[tuple[str, str], ...], float] | None = None
    for pairs, label, pruned in iter_paths(tree):
        if pruned or label is None:
            continue
        if best is None or label > best[1] or (label == best[1] and pairs < best[0]):
            best = (pairs, label)
    if best is None:
        return {}, (0.0 if method == "cet" else 1.0)
    return dict(best[0]), best[1]
