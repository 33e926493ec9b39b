"""Post-timing verifier: re-derives every distinct request with the oracle.

Every number is recomputed by full-joint enumeration through the
``oracle_*`` functions, on the ancestral sub-network of the request's
variables. That sub-network is exact for the marginal, interventional and
conditional-mutual-information queries the explainers make, and it keeps
the joint table small on the 40-variable workload.

Trees and rankings are checked decision by decision, not for identity:
scores that are exactly zero come out as +-1e-16 rounding noise, and any
legitimate change of elimination order can flip an argmax between such
candidates. A decision passes when its pick scores within ``TOL`` of the
oracle's best. ``near_ties`` counts decisions whose top two candidates lie
within ``TOL``; ``tie_flips`` counts those where the pick is not the first
near-maximiser in declaration (or enumeration) order.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import dataclass, field

import bnexplain as bx
import bnexplain.oracle
import bnexplain.render

from tracer import bind_everywhere, restore
from workloads import ORACLE_CELL_CAP, Request, ancestors, joint_cells

TOL = 1e-9


class Mismatch(Exception):
    """An output disagrees with the oracle."""


@dataclass
class Tally:
    verified: int = 0
    failures: dict[int, str] = field(default_factory=dict)
    near_ties: int = 0
    tie_flips: int = 0


def close(a: float, b: float) -> bool:
    """Equal within TOL; relative to the magnitude once it exceeds one."""
    return a == b or abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@contextlib.contextmanager
def memo_joint():
    """Let the oracle functions reuse joint tables per (network, intervention)."""
    original = bx.oracle.enumerate_joint
    tables = {}

    def enumerate_joint(net, do=None, cap=bx.oracle.DEFAULT_CELL_CAP):
        key = (id(net), tuple(sorted((do or {}).items())), cap)
        if key not in tables:
            tables[key] = (net, original(net, do, cap))
        return tables[key][1]

    records = bind_everywhere(original, enumerate_joint)
    try:
        yield
    finally:
        restore(records)


class Verifier:
    def __init__(self, networks: dict[str, bx.Network]) -> None:
        self.networks = networks
        self.tally = Tally()
        self._subnets: dict[tuple, bx.Network] = {}

    def subnetwork(self, net: bx.Network, names) -> bx.Network:
        keep = ancestors(net, names)
        key = (id(net), frozenset(keep))
        if key not in self._subnets:
            variables = [v for v in net.variables if v.name in keep]
            self._subnets[key] = bx.Network(
                variables, {v.name: net.cpts[v.name] for v in variables}, name=net.name)
        return self._subnets[key]

    def check(self, index: int, req: Request, output) -> None:
        self.tally.verified += 1
        try:
            self._check(req, _decode(req, output))
        except Exception as exc:  # any error while re-deriving is a failed verification
            self.tally.failures[index] = f"{req.kind} on {req.net}: {type(exc).__name__}: {exc}"

    def _check(self, req: Request, out) -> None:
        net = self.networks[req.net]
        names = [*req.explanandum, *req.hypothesis, *req.observed, *req.do]
        sub = self.subnetwork(net, names)
        if req.kind == "cet":
            self._cet(sub, req, out)
        elif req.kind == "et":
            self._et(sub, req, out)
        elif req.kind == "bf":
            self._bf(sub, req, out)
        elif req.kind == "mpe":
            self._mpe(net, req, out)
        else:
            want = bx.oracle_interventional_probability(sub, req.explanandum, req.observed, req.do)
            expect(close(out, want), f"probability {out!r} vs oracle {want!r}")

    # -- decisions -------------------------------------------------------------------

    def _decide(self, node, candidates, scores, alpha, stop_stat=None) -> str | None:
        """Check one argmax-and-stop decision; return the pick, None for a stop.

        ``stop_stat`` maps a candidate to the statistic compared with alpha
        (the score itself when None).
        """
        stop_stat = stop_stat or scores
        best = max(scores[c] for c in candidates)
        near = [c for c in candidates if close(scores[c], best)]
        if len(near) > 1:
            self.tally.near_ties += 1
        if node.is_leaf():
            expect(any(stop_stat[c] < alpha + TOL for c in near),
                   f"stopped although {near[0]} reaches alpha={alpha}")
            return None
        pick = node.variable
        expect(pick in scores, f"picked {pick!r} outside the candidates")
        expect(scores[pick] >= best - TOL,
               f"picked {pick!r} ({scores[pick]!r}) below the best {near[0]!r} ({best!r})")
        expect(stop_stat[pick] >= alpha - TOL, f"grew on {pick!r} below alpha={alpha}")
        if len(near) > 1 and pick != near[0]:
            self.tally.tie_flips += 1
        return pick

    # -- causal explanation trees -----------------------------------------------------

    def _cet(self, net, req, tree) -> None:
        e = dict(req.explanandum)
        o = {k: v for k, v in req.observed.items() if k not in e}
        prune = bx.ExplainerConfig().prune_unreachable
        prior = bx.oracle_event_probability(net, e, o)

        def scores(hyp, o, path):
            out = {}
            blocked = set(o) | set(path)
            for x in hyp:
                if prune and not any(bx.reachable(net, x, t, blocked - {x, t}) for t in e):
                    out[x] = 0.0  # the configured definition, not a flow: see ExplainerConfig
                elif x in o:
                    rest = {k: v for k, v in o.items() if k != x}
                    out[x] = bx.oracle_pointwise_flow(net, x, o[x], e, rest, path)
                else:
                    out[x] = bx.oracle_flow_to_state(net, x, e, o, path)
            return out

        def walk(node, hyp, o, path):
            if not hyp:
                expect(node.is_leaf(), "tree grows past the hypothesis set")
                return
            pick = self._decide(node, hyp, scores(hyp, o, path), req.alpha)
            if pick is None:
                return
            states = (o[pick],) if pick in o else net.domain(pick)
            expect(tuple(b.state for b in node.branches) == tuple(states),
                   f"branches of {pick!r} are not its states")
            o_rest = {k: v for k, v in o.items() if k != pick}
            remaining = tuple(v for v in hyp if v != pick)
            for b in node.branches:
                forced = {**path, pick: b.state}
                try:
                    p = bx.oracle_interventional_probability(net, e, o_rest, forced)
                except bx.ImpossibleEvidenceError:
                    expect(b.pruned and b.label is None and b.subtree.is_leaf(),
                           f"branch {forced} should be pruned")
                    continue
                expect(not b.pruned, f"branch {forced} pruned but possible")
                if p > 0.0:
                    want = math.log2(p / prior)
                    expect(b.label is not None and close(b.label, want),
                           f"label of {forced}: {b.label!r} vs oracle {want!r}")
                    walk(b.subtree, remaining, o_rest, forced)
                else:
                    expect(b.label == float("-inf") and b.subtree.is_leaf(),
                           f"branch {forced} has probability zero")

        walk(tree, _ordered(net, req.hypothesis), o, {})

    # -- noncausal explanation trees ----------------------------------------------------

    def _et(self, net, req, tree) -> None:
        e = dict(req.explanandum)
        beta = bx.ExplainerConfig().beta

        def walk(node, hyp, path):
            if not hyp:
                expect(node.is_leaf(), "tree grows past the hypothesis set")
                return
            context = {**e, **path}
            pair = {(x, y): bx.oracle_conditional_mutual_information(net, x, y, context)
                    for x, y in itertools.combinations(hyp, 2)}
            around = {v: [val for xy, val in pair.items() if v in xy] for v in hyp}
            scores = {v: sum(around[v]) for v in hyp}
            stop_stat = {v: max(around[v], default=0.0) for v in hyp}
            pick = self._decide(node, hyp, scores, req.alpha, stop_stat)
            if pick is None:
                return
            expect(tuple(b.state for b in node.branches) == net.domain(pick),
                   f"branches of {pick!r} are not its states")
            remaining = tuple(v for v in hyp if v != pick)
            for b in node.branches:
                extended = {**path, pick: b.state}
                p = bx.oracle_event_probability(net, extended, e)
                expect(b.label is not None and close(b.label, p),
                       f"posterior of {extended}: {b.label!r} vs oracle {p!r}")
                if not b.subtree.is_leaf():
                    expect(p > beta - TOL, f"grew below beta at {extended}")
                    walk(b.subtree, remaining, extended)
                elif p > beta + TOL:
                    walk(b.subtree, remaining, extended)  # the stop must be justified

        walk(tree, _ordered(net, req.hypothesis), {})

    # -- rankings -------------------------------------------------------------------------

    def _bf(self, net, req, ranking) -> None:
        cfg = bx.ExplainerConfig()
        e = dict(req.explanandum)
        hyp = _ordered(net, req.hypothesis)
        scored, skipped = [], 0
        for size in range(1, cfg.max_subset_size + 1):
            for subset in itertools.combinations(hyp, size):
                for states in itertools.product(*(net.domain(v) for v in subset)):
                    h = dict(zip(subset, states))
                    prior = bx.oracle_event_probability(net, h)
                    if prior <= 0.0 or prior >= 1.0:
                        skipped += 1
                        continue
                    post = bx.oracle_event_probability(net, h, e)
                    score = (float("inf") if post >= 1.0
                             else (post / (1.0 - post)) * ((1.0 - prior) / prior))
                    scored.append((frozenset(subset), tuple(zip(subset, states)), score))
        ranked = sorted(scored, key=lambda item: -item[2])
        if cfg.best_per_subset:
            seen = set()
            ranked = [r for r in ranked if not (r[0] in seen or seen.add(r[0]))]
        by_assignment = {a: s for _, a, s in scored}

        expect(ranking.score_kind == "bayes_factor", f"score kind {ranking.score_kind!r}")
        expect(ranking.skipped_degenerate == skipped,
               f"skipped {ranking.skipped_degenerate} degenerate hypotheses, oracle {skipped}")
        expect(len(ranking.entries) == min(cfg.top_k, len(ranked)), "ranking length")
        subsets = [frozenset(v for v, _ in entry.assignment) for entry in ranking.entries]
        expect(len(set(subsets)) == len(subsets), "a variable subset is ranked twice")
        for i, entry in enumerate(ranking.entries):
            want = by_assignment.get(entry.assignment)
            expect(want is not None and close(entry.score, want),
                   f"score of {entry.assignment}: {entry.score!r} vs oracle {want!r}")
            expect(close(entry.score, ranked[i][2]),
                   f"rank {i + 1}: {entry.assignment} ({entry.score!r}) "
                   f"vs oracle {ranked[i][1]} ({ranked[i][2]!r})")
            if i + 1 < len(ranked) and close(ranked[i][2], ranked[i + 1][2]):
                self.tally.near_ties += 1
                if entry.assignment != ranked[i][1]:
                    self.tally.tie_flips += 1

    def _mpe(self, net, req, ranking) -> None:
        evidence = {**req.explanandum, **req.observed}
        expect(len(ranking.entries) == 1, "mpe returns one entry")
        entry = ranking.entries[0]
        completion = entry.as_dict()
        free = [v.name for v in net.variables if v.name not in evidence]
        expect(list(completion) == free, "completion does not bind exactly the free variables")
        full = {**evidence, **completion}
        p_evidence = bx.oracle_event_probability(self.subnetwork(net, evidence), evidence)
        got = bx.joint_probability(net, full) / p_evidence
        expect(close(entry.score, got), f"score {entry.score!r} vs joint/p(evidence) {got!r}")
        if joint_cells(net, free) <= ORACLE_CELL_CAP:
            want, want_p = bx.oracle_mpe(net, evidence)
            expect(close(entry.score, want_p), f"score {entry.score!r} vs oracle mpe {want_p!r}")
            table = bx.enumerate_joint(net)
            block = table.values[tuple(net.state_index(v, evidence[v]) if v in evidence
                                       else slice(None) for v in table.scope)]
            if int((block / p_evidence >= want_p - TOL).sum()) > 1:
                self.tally.near_ties += 1
                if completion != want:
                    self.tally.tie_flips += 1
            return
        # too large to enumerate: the completion must be a local maximum
        tie_earlier = False
        tied = False
        for pos, var in enumerate(free):
            for state in net.domain(var):
                if state == completion[var]:
                    continue
                alt = _joint(net, {**full, var: state}) / p_evidence
                expect(alt <= entry.score + TOL, f"flipping {var} to {state} improves the mpe")
                if close(alt, entry.score):
                    tied = True
                    tie_earlier |= net.state_index(var, state) < net.state_index(var, completion[var])
        if tied:
            self.tally.near_ties += 1
            self.tally.tie_flips += tie_earlier


def _ordered(net, names) -> tuple[str, ...]:
    names = set(names)
    return tuple(v.name for v in net.variables if v.name in names)


def _joint(net, full) -> float:
    """Chain-rule product of CPT entries (rows run last parent fastest)."""
    p = 1.0
    for v in net.variables:
        cpt = net.cpts[v.name]
        row = 0
        for parent in cpt.parents:
            row = row * len(net.domain(parent)) + net.state_index(parent, full[parent])
        p *= cpt.table[row][net.state_index(v.name, full[v.name])]
    return p


def _decode(req: Request, output):
    """Library results pass through; CLI (exit code, stdout) pairs are parsed."""
    if not isinstance(output, tuple):
        return output
    code, text = output
    expect(code == 0, f"exit code {code}")
    doc = json.loads(text)
    if req.kind in ("cet", "et"):
        return bx.render.tree_from_json_obj(doc["tree"])
    if req.kind == "query":
        return doc["probability"]
    entries = tuple(bx.Explanation(tuple(e["assignment"].items()), e["score"])
                    for e in doc["entries"])
    return bx.RankedExplanations(doc["score_kind"], entries, doc["skipped_degenerate"])


def verify(networks, requests, outputs: dict[int, object]) -> Tally:
    """Check the first output of every distinct request that ran."""
    verifier = Verifier(networks)
    with memo_joint():
        for index in sorted(outputs):
            verifier.check(index, requests[index], outputs[index])
    return verifier.tally
