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

from . import factors as fa
from .causal import _forced_event, _pointwise, _state_flow, _terms
from .errors import ImpossibleEvidenceError
from .inference import ExactEngine, _check_roles, _engine, _mutual_information, _split, mpe
from .network import Network, _upstream, check_assignment, merge_assignments

Assignment = Mapping[str, str]

_ROUNDING_SLACK = 1e-12  # differences this small (relative beyond 1) are rounding noise


def _reaches(score: float, target: float) -> bool:
    """Whether ``score`` reaches ``target`` up to rounding noise: it may fall
    short by 1e-12 * max(1, |target|). The argmaxes, the tree stops, the
    Bayes-factor ranking and its certain-posterior test all ask this; an
    infinite target is reached only by itself (inf - inf would be nan)."""
    return score == target or score >= target - _ROUNDING_SLACK * (
        abs(target) if abs(target) > 1.0 else 1.0)  # max(1.0, abs(target)), without the call


@dataclass(frozen=True)
class ExplainerConfig:
    """Knobs shared by the explainers; each method reads the fields it uses.

    alpha:
        Minimum score a variable must reach to be added to a tree: causal
        trees compare information flow against it, noncausal trees
        conditional mutual information. A number >= 0 (NaN is rejected);
        ``inf`` stops a tree at its root, since no finite score reaches it.
        A score reaches alpha up to rounding noise; see :func:`_reaches`.
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
        if not 0.0 <= self.alpha:  # also rejects NaN
            raise ValueError("alpha must be a number >= 0")
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
    """Scored explanations, best first; scores tied up to rounding noise keep
    the order in which the search enumerates them.

    ``skipped_degenerate`` counts hypotheses whose prior was 0 or 1, for which
    a Bayes factor is undefined.
    """

    score_kind: str  # "posterior_probability" | "bayes_factor"
    entries: tuple[Explanation, ...]
    skipped_degenerate: int = 0


def _explainer_roles(
    net: Network, hypothesis: Iterable[str], explanandum: Assignment
) -> tuple[tuple[str, ...], dict[str, str]]:
    """Hypothesis variables in declaration order and the validated explanandum."""
    names = tuple(dict.fromkeys(hypothesis))
    e = _check_roles(net, names, explanandum=explanandum)["explanandum"]
    return tuple(v.name for v in net.variables if v.name in names), e


def _argmax(candidates: Iterable[str], scores: Mapping[str, float]) -> str:
    """Earliest candidate (declaration order) whose score :func:`_reaches` the
    maximum, so that rounding noise from the elimination order cannot decide
    between candidates."""
    candidates = list(candidates)
    best = max(scores[v] for v in candidates)
    return next(v for v in candidates if _reaches(scores[v], best))


def _marginals(names, *tables):
    """Per dict of ``tables``, all keyed alike by their axes' variables, its
    first table that holds all of ``names``, summed down to them; the axes
    keep the key's order. One key search serves every dict."""
    names = set(names)
    key = next(k for k in tables[0] if names.issubset(k))
    other = tuple(i for i, v in enumerate(key) if v not in names)
    return [t[key].sum(axis=other) for t in tables]


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
    variables until none is left or the best flow drops below ``alpha`` by
    more than rounding noise.
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
    terms = _terms(eng, net, (), [0], _scored(net, hyp, e, set(o), cfg), e, o, {})[0]
    return _grow_causal(net, hyp, o, e, {}, prior, prior, cfg, eng, terms)


def _grow_causal(net, hyp, o, e, path, p_e, prior, cfg, eng, terms) -> ExplanationTree:
    """Causal-tree node at ``path``, where p(e | o, do(path)) = ``p_e`` > 0.

    ``terms`` holds the :func:`~bnexplain.causal._terms` of every candidate x
    that reachability pruning leaves to score: p(x | o', do(path)) and
    p(e | o', do(path, x=s)) for every state s, with o' the observations
    other than x; the other candidates score zero. The node asks nothing for
    them: the root's come from :func:`causal_explanation_tree`, every other
    node's from its parent. The flow to the state, or the pointwise flow of
    an observed x, is computed from them as in the public flows.

    The pick's terms are its branch labels and its children's p_e. A pick
    that pruning scored zero asks for them in one joint, unless it is
    unobserved and not upstream of e and the other observations o' given
    the path (:func:`~bnexplain.network._upstream`): no directed path from it
    reaches them with its interior outside the path. That is the relation by
    which the engine chooses a joint's variables, so the pick takes no part
    in its own joint: by the truncated factorisation forcing it leaves every
    label at ``p_e``, and no branch is pruned. An observed pick's labels drop
    its own observation, and a pick that reaches an observation, say past an
    observed collider, can move e or contradict it, so both still ask. A state whose
    intervention contradicts the observations is a pruned branch; a branch
    with a finite label is live. When some branch is live and candidates are
    left, the node prunes them once for all its children and asks two
    eliminations per candidate that keep the pick free as well; each child
    gets the slices at its state as its ``terms``. Growth stops when the best
    score does not :func:`_reaches` ``alpha``.
    """
    if not hyp:
        return LEAF
    scores = {x: 0.0 for x in hyp}
    for x, t in terms.items():
        scores[x] = _pointwise(net, x, o[x], t) if x in o else _state_flow(t, p_e)
    pick = _argmax(hyp, scores)
    if not _reaches(scores[pick], cfg.alpha):
        return LEAF

    o_rest = {k: v for k, v in o.items() if k != pick}
    if pick in terms:
        p_forced = terms[pick][1]
    elif pick in o or pick in _upstream(net, {**e, **o_rest}, path):
        p_forced = _forced_event(eng, net, (pick,), e, o_rest, path)
    else:  # forcing the pick moves neither e nor o_rest: every label is p_e
        p_forced = [p_e] * len(net.domain(pick))
    remaining = tuple(v for v in hyp if v != pick)
    if pick in o:
        states = [(net.state_index(pick, o[pick]), o[pick])]
    else:
        states = list(enumerate(net.domain(pick)))
    live = [i for i, _ in states if p_forced[i] is not None and p_forced[i] > 0.0]
    below = {}
    if remaining and live:
        scored = _scored(net, remaining, e, set(o) | set(path) | {pick}, cfg)
        below = _terms(eng, net, (pick,), live, scored, e, o_rest, path)
    branches = []
    for i, state in states:
        p = p_forced[i]
        if p is None:  # the intervention contradicts the remaining observations
            branches.append(Branch(state, None, LEAF, pruned=True))
        elif p > 0.0:
            sub = _grow_causal(net, remaining, o_rest, e, {**path, pick: state}, p, prior, cfg,
                               eng, below.get(i))
            branches.append(Branch(state, math.log2(p / prior), sub))
        else:
            branches.append(Branch(state, float("-inf"), LEAF))
    return ExplanationTree(pick, tuple(branches))


def _scored(net, candidates, e, blocked, cfg) -> list[str]:
    """The candidates that reachability pruning leaves to score: all of them,
    or, with ``prune_unreachable``, those upstream of the explanandum given
    ``blocked``: with a directed path into it whose interior avoids
    ``blocked``. One :func:`~bnexplain.network._upstream` walk, the one by
    which the engine chooses a question's variables, serves every candidate."""
    if not cfg.prune_unreachable:
        return list(candidates)
    upstream = _upstream(net, e, blocked)
    return [x for x in candidates if x in upstream]


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
    the chosen variable's best pairwise information does not
    :func:`_reaches` ``alpha``, or the path posterior does not exceed
    ``beta``; a singleton hypothesis set has an empty sum, scores zero, and
    therefore stops under any ``alpha`` above rounding noise.
    Branch labels are the path posterior p(path, state | e). The root asks
    one query per pair of hypothesis variables (one marginal for a single
    variable), and every later table comes from its parent; see
    :func:`_grow_noncausal`. A bare leaf (``beta`` at one, or no hypothesis
    variable) asks p(explanandum) alone.

    Every query of the call binds e and hypothesis variables only, so the
    root first asks the engine for a factor set: e bound and every relevant
    variable outside the hypothesis summed out, once, with the factors kept
    unmultiplied. Each query then starts from it and eliminates at most the
    hypothesis variables that it leaves free. The engine builds the set only
    when enough variables lie outside (see ``ExactEngine._factor_set``); the
    set is dropped when the call returns.

    Raises:
        ImpossibleEvidenceError: p(explanandum) is zero; the root's first
            query, or the bare leaf's p(explanandum), finds it.
    """
    cfg = config or ExplainerConfig()
    eng = _engine(engine)
    hyp, e = _explainer_roles(net, hypothesis, explanandum)
    if cfg.beta >= 1.0 or not hyp:  # the empty path has posterior exactly 1
        if eng.probability(net, e) <= 0.0:
            raise ImpossibleEvidenceError("explanandum has probability zero")
        return LEAF
    reduced = eng._factor_set(net, hyp, e)
    keys = list(itertools.combinations(hyp, 2)) or [hyp]
    tables = {key: eng.query(net, key, e, _reduced=reduced).distribution.values for key in keys}
    return _grow_noncausal(net, hyp, e, 1.0, tables, cfg, eng, reduced)


def _grow_noncausal(net, hyp, context, p_path, tables, cfg, eng, reduced) -> ExplanationTree:
    """Noncausal-tree node at path P, where ``context`` is e and P together and
    p(P | e) = ``p_path`` > beta.

    ``tables`` holds p(x, y | e, P) for every pair of ``hyp`` in combination
    order, axes in declaration order, or p(x | e, P) when x is the only
    variable left. The node asks no query for itself: its scores come from the
    pair tables, and a branch label p(P, s | e) is ``p_path`` times
    p(s | e, P), summed out of the first table over the pick and divided by
    the sum, so that rounding cannot lift it above one. Its children's
    tables come from one query p(pick, y, z | e, P) per pair of the remaining
    variables, asked only when some branch expands; the child for state s gets
    the slices at pick = s, each divided by its mass. Such a query is the
    child's pair query with the pick left free: it has the same relevant set
    and eliminates the same variables. When one variable is left, the slice is
    of the pick's own pair table. A branch whose slices have no mass stops.
    Every query starts from the call's factor set ``reduced`` (None when the
    engine built none). It has e bound and only hypothesis variables left, so
    a query binds P in its factors and sums out the variables it leaves free.
    """
    pairwise = {key: _mutual_information(t) for key, t in tables.items() if len(key) == 2}

    def around(v):
        return [val for key, val in pairwise.items() if v in key]

    scores = {v: sum(around(v)) for v in hyp}
    pick = _argmax(hyp, scores)
    stop_stat = max(around(pick), default=0.0)
    if not _reaches(stop_stat, cfg.alpha):
        return LEAF

    [mass] = _marginals((pick,), tables)
    labels = [p_path * p for p in (mass / mass.sum()).tolist()]
    remaining = tuple(v for v in hyp if v != pick)
    rows = {}  # the children's tables: per key, one normalised slice per state of the pick
    if len(remaining) == 1:
        [(key, table)] = tables.items()  # the pair of the pick and the last variable
        rows[remaining] = _split(fa.Factor(key, table), (pick,))
    elif remaining and any(label > cfg.beta for label in labels):
        for yz in itertools.combinations(remaining, 2):
            joint = eng.query(net, (pick, *yz), context, _reduced=reduced).distribution
            rows[yz] = _split(joint, (pick,))

    branches = []
    for i, (state, label) in enumerate(zip(net.domain(pick), labels)):
        sub = LEAF
        child = {k: r[i] for k, r in rows.items()}
        if label > cfg.beta and child and all(t is not None for t in child.values()):
            extended = {**context, pick: state}
            sub = _grow_noncausal(net, remaining, extended, label, child, cfg, eng, reduced)
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
    defined odds ratio; they are skipped and counted. A posterior that
    :func:`_reaches` one scores infinity, as its odds are rounding noise.
    Scores within rounding noise of each other tie, and tied entries keep
    enumeration order (see :func:`_rank`). With ``best_per_subset``
    (default), the ranking then keeps one entry per variable subset, namely
    its best assignment, before the top_k cut.

    The engine is asked one table per subset S of size ``max_subset_size``,
    in combination order: the joint of S and the explanandum's variables,
    with no observations. Each subset, smaller ones included, is summed out
    of the first table that holds it. Its prior p(h) is that marginal over
    the subset divided by its own sum, so that a certain prior is exactly
    one; its posterior p(h | e) is the slice at the explanandum divided by
    the slice's mass.

    The tables start from one factor set of the call, in which every relevant
    variable outside the hypothesis and the explanandum's variables is summed
    out once, with the factors kept unmultiplied; each table then sums out
    only the hypothesis variables outside S. The engine builds the set only
    when enough variables lie outside (see ``ExactEngine._factor_set``), and
    the set is dropped when the call returns.

    Raises:
        ImpossibleEvidenceError: p(explanandum) is zero; the first table's
            slice at the explanandum has no mass.
    """
    cfg = config or ExplainerConfig()
    eng = _engine(engine)
    hyp, e = _explainer_roles(net, hypothesis, explanandum)
    if cfg.max_subset_size > len(hyp):
        raise ValueError(
            f"max_subset_size {cfg.max_subset_size} exceeds the {len(hyp)} hypothesis variables"
        )

    # one table p(S, E) per subset S of the largest size, E the explanandum's
    # variables, kept as p(S) and p(S, e) keyed by S, with axes in its order
    joint_h, joint_he = {}, {}
    reduced = eng._factor_set(net, (*hyp, *e))
    for big in itertools.combinations(hyp, cfg.max_subset_size):
        joint = eng.query(net, (*big, *e), _reduced=reduced).distribution
        axes = tuple(i for i, v in enumerate(joint.scope) if v in e)
        at_e = tuple(net.state_index(v, e[v]) if v in e else slice(None) for v in joint.scope)
        joint_h[big], joint_he[big] = joint.values.sum(axis=axes), joint.values[at_e]

    scored: list[tuple[frozenset[str], Explanation]] = []
    skipped = 0
    for size in range(1, cfg.max_subset_size + 1):
        for subset in itertools.combinations(hyp, size):
            p_h, p_he = _marginals(subset, joint_h, joint_he)
            mass = p_he.sum()
            if mass <= 0.0:
                raise ImpossibleEvidenceError("conditioning event has probability zero")
            # the prior is divided by its own sum, not the table's, so a certain one is exactly 1
            priors = (p_h / p_h.sum()).ravel().tolist()
            posteriors = (p_he / mass).ravel().tolist()
            assignments = itertools.product(*(net.domain(v) for v in subset))  # C order, as ravel
            for states, prior, posterior in zip(assignments, priors, posteriors):
                if prior <= 0.0 or prior >= 1.0:
                    skipped += 1
                    continue
                if _reaches(posterior, 1.0):  # certain up to rounding noise
                    score = float("inf")
                elif cfg.raw_odds:
                    score = posterior / (1.0 - posterior)
                else:
                    score = (posterior / (1.0 - posterior)) * ((1.0 - prior) / prior)
                scored.append((frozenset(subset), Explanation(tuple(zip(subset, states)), score)))

    ranked = _rank(scored)
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


def _rank(scored: list) -> list:
    """``(subset, explanation)`` pairs, given in enumeration order, best score
    first. Each maximal run of scores that :func:`_reaches` the run's first
    score, its lead, is a tie and keeps enumeration order, so that rounding
    noise cannot reorder equivalent hypotheses. Infinite scores tie only with
    each other."""
    scores = [entry.score for _, entry in scored]
    run_of, run, lead = [0] * len(scores), 0, math.inf  # run 0 holds the infinite scores
    for i in sorted(range(len(scores)), key=scores.__getitem__, reverse=True):  # stable
        if not _reaches(scores[i], lead):
            run, lead = run + 1, scores[i]
        run_of[i] = run
    return [scored[i] for i in sorted(range(len(scores)), key=run_of.__getitem__)]


# -- best explanation out of a tree ------------------------------------------------------


def best_explanation(tree: ExplanationTree, method: str) -> tuple[dict[str, str], float]:
    """Best root-to-leaf path of a tree built by the matching method.

    For ``"et"`` the winner maximizes the final branch's path posterior; for
    ``"cet"`` it maximizes the final branch's log-ratio contribution. Pruned
    paths are excluded. A bare leaf yields the empty explanation with the
    neutral score (posterior 1 for "et", contribution 0 for "cet"). Ties go
    to the first path in :func:`iter_paths` order, that is in branch state
    order, and every label that :func:`_reaches` the best ties with it, as in
    :func:`_argmax`.
    """
    if method not in ("cet", "et"):
        raise ValueError(f"method must be 'cet' or 'et', got {method!r}")
    paths = [(pairs, label) for pairs, label, pruned in iter_paths(tree)
             if not pruned and label is not None]
    if not paths:
        return {}, (0.0 if method == "cet" else 1.0)
    pairs, label = paths[_argmax(range(len(paths)), [label for _, label in paths])]
    return dict(pairs), label
