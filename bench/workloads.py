"""Seeded workload generators and request executors.

Each workload is a closed loop driven by one client (one process, one
thread, no think time) over a fixed list of requests. A request is one of
five kinds: ``cet``, ``et``, ``bf``, ``mpe`` or ``query`` (one
``interventional_probability`` call). Every generator takes the seed as an
argument; the library only ever receives the generated networks and
requests.

Why these three workloads:

``bundled-warm``
    asia, academe and drug are loaded once. On networks this small the
    per-query overhead dominates (every CPT factor is rebuilt and a full
    ``Network`` is revalidated per do-query) and sub-queries repeat within
    a request, so compile-once and memo changes show here, while relevance
    pruning has little to cut.
``random-n40``
    40-variable DAGs whose explananda have ancestral sets of 8 to 14
    variables, so about two thirds of the network is barren for every
    query and few queries repeat. Elimination-order selection is most of
    the time: pruning and order caching show here, a memo barely does.
``cli-oneshot``
    ``bnexplain.cli.main(argv)`` in-process. Every request reloads its
    network from a file, so it pays for parsing, validation, argparse and
    rendering and starts with cold caches; work moved into per-network
    construction loses here while it wins on ``bundled-warm``.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import bnexplain as bx
import bnexplain.cli
import bnexplain.datasets

KINDS = ("cet", "et", "bf", "mpe", "query")
BUNDLED = ("asia", "academe", "drug")
WORKLOADS = ("bundled-warm", "random-n40", "cli-oneshot")


@dataclass(frozen=True)
class Request:
    """One request; ``net`` keys into :attr:`Workload.networks`.

    ``explanandum`` is the state to explain (the event for ``query``); for
    ``mpe`` the evidence is explanandum plus observed. ``alpha`` is the tree
    stop threshold; the other explainer settings are ExplainerConfig's
    defaults. ``checked`` adds ``--oracle-check`` on the CLI.
    """

    kind: str
    net: str
    explanandum: dict[str, str]
    hypothesis: tuple[str, ...] = ()
    observed: dict[str, str] = field(default_factory=dict)
    do: dict[str, str] = field(default_factory=dict)
    alpha: float = 0.0
    checked: bool = False


@dataclass
class Workload:
    """Generated networks and requests plus the function that runs one request."""

    name: str
    networks: dict[str, bx.Network]
    requests: list[Request]
    execute: Callable[[Request], object]


# -- random networks --------------------------------------------------------------


def random_network(rng: np.random.Generator, n_vars: int, window: int,
                   ternary_share: float = 0.3, name: str = "random") -> bx.Network:
    """Random DAG; each variable has at most 3 parents among the ``window`` before it.

    A variable has 3 states with probability ``ternary_share``, else 2.
    CPT entries are bounded away from zero, so no drawn evidence is ever
    impossible.
    """
    cards = [3 if rng.random() < ternary_share else 2 for _ in range(n_vars)]
    variables = [bx.Variable(f"V{i}", tuple(f"s{k}" for k in range(cards[i])))
                 for i in range(n_vars)]
    cpts = {}
    for i in range(n_vars):
        pool = np.arange(max(0, i - window), i)
        k = int(rng.integers(0, min(len(pool), 3) + 1))
        chosen = sorted(int(j) for j in rng.choice(pool, size=k, replace=False)) if k else []
        rows = []
        for _ in range(math.prod(cards[j] for j in chosen)):
            raw = rng.uniform(0.05, 0.95, size=cards[i])
            rows.append(tuple(float(p) for p in raw / raw.sum()))
        cpts[f"V{i}"] = bx.Cpt(f"V{i}", tuple(f"V{j}" for j in chosen), tuple(rows))
    return bx.Network(variables, cpts, name=name)


def ancestors(net: bx.Network, names) -> set[str]:
    """The given variables and all their ancestors."""
    out = set(names)
    stack = list(out)
    while stack:
        for p in net.parents(stack.pop()):
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def joint_cells(net: bx.Network, names) -> int:
    return math.prod(len(net.domain(v)) for v in names)


def _state(rng, net, var) -> str:
    return net.domain(var)[int(rng.integers(len(net.domain(var))))]


def _pick(rng, items, k) -> list:
    """k distinct items, kept in their given order."""
    idx = sorted(int(i) for i in rng.choice(len(items), size=k, replace=False))
    return [items[i] for i in idx]


# -- bundled-warm and cli-oneshot request groups ------------------------------------


def _group(rng, key, net, table, effect, hyp, observe, alpha_et):
    """One request of each kind about one explanandum of a network.

    ``table`` is the network's enumerated joint, used only to keep every
    drawn conditioning event possible. With ``observe`` set, the causal
    tree gets ``hyp[observe]`` as an observed hypothesis variable, which it
    scores by pointwise flow.
    """
    def possible(event, do=None):
        joint = table if not do else bx.enumerate_joint(net, do)
        return bx.oracle_query(joint, net, event) > 0.0

    e = {effect: _state(rng, net, effect)}
    while not possible(e):
        e = {effect: _state(rng, net, effect)}
    rest = [v.name for v in net.variables if v.name != effect]
    others = [v for v in rest if v not in hyp]

    o = {}
    if observe is not None:
        var = hyp[observe % len(hyp)]
        o = {var: _state(rng, net, var)}
        while not possible({**e, **o}):
            o = {var: _state(rng, net, var)}

    do_var = hyp[int(rng.integers(len(hyp)))]
    do = {do_var: _state(rng, net, do_var)}
    pool = others or [v for v in hyp if v != do_var]
    see_var = pool[int(rng.integers(len(pool)))]
    seen = {see_var: _state(rng, net, see_var)}
    while not possible(seen, do):
        seen = {see_var: _state(rng, net, see_var)}

    evidence_var = (others or rest)[int(rng.integers(len(others or rest)))]
    evidence = {evidence_var: _state(rng, net, evidence_var)}
    while not possible({**e, **evidence}):
        evidence = {evidence_var: _state(rng, net, evidence_var)}

    return [
        Request("cet", key, e, hyp, observed=o),
        Request("et", key, e, hyp, alpha=alpha_et),
        Request("bf", key, e, hyp),
        Request("mpe", key, e, observed=evidence),
        Request("query", key, e, observed=seen, do=do),
    ]


def _effects(net) -> list[str]:
    return [v.name for v in net.variables if net.parents(v.name)]


def _groups(rng, nets, groups_per_network, hyp_size, alpha_et):
    """Requests in rounds: each round holds one group per network, in turn.

    Explananda, the variables left out of the hypothesis set and the
    observed hypothesis variable (every other group) rotate from a seeded
    offset, so every run covers each network evenly and the per-kind
    medians do not hinge on a few random draws.
    """
    tables = {key: bx.enumerate_joint(net) for key, net in nets.items()}
    offsets = {key: int(rng.integers(len(net.variables))) for key, net in nets.items()}
    rounds = []
    for g in range(groups_per_network):
        batch = []
        for key, net in nets.items():
            effects = _effects(net)
            effect = effects[(offsets[key] + g) % len(effects)]
            rest = [v.name for v in net.variables if v.name != effect]
            start = offsets[key] + g // len(effects)
            chosen = {rest[(start + i) % len(rest)] for i in range(min(hyp_size, len(rest)))}
            hyp = tuple(v for v in rest if v in chosen)
            batch.append(_group(rng, key, net, tables[key], effect, hyp,
                                observe=g // 2 if g % 2 else None, alpha_et=alpha_et))
        rounds.append(batch)
    return rounds


def _interleave(rounds) -> list[Request]:
    """Flatten rounds group by group, so any prefix of the list is a fair mix."""
    return [req for batch in rounds for group in batch for req in group]


def _run_library(net: bx.Network, req: Request):
    if req.kind == "cet":
        return bx.causal_explanation_tree(net, req.hypothesis, req.observed, req.explanandum,
                                          bx.ExplainerConfig(alpha=req.alpha))
    if req.kind == "et":
        return bx.explanation_tree(net, req.hypothesis, req.explanandum,
                                   bx.ExplainerConfig(alpha=req.alpha))
    if req.kind == "bf":
        return bx.bayes_factor_search(net, req.hypothesis, req.explanandum)
    if req.kind == "mpe":
        return bx.mpe_explanation(net, {**req.explanandum, **req.observed})
    return bx.interventional_probability(net, req.explanandum, req.observed, req.do)


def bundled_warm(seed: int, groups_per_network: int = 48) -> Workload:
    rng = np.random.default_rng(seed)
    nets = {name: bx.datasets.load(name) for name in BUNDLED}
    rounds = _groups(rng, nets, groups_per_network, hyp_size=6, alpha_et=0.0)
    return Workload("bundled-warm", nets, _interleave(rounds),
                    lambda req: _run_library(nets[req.net], req))


# -- random-n40 ---------------------------------------------------------------------

N40_VARS = 40
N40_WINDOW = 6
ANCESTRAL_RANGE = (8, 14)
N40_HYPOTHESIS = 5
ORACLE_CELL_CAP = 2**16


def _reaches(net: bx.Network, source: str, target: str, avoid: set[str]) -> bool:
    """A directed path source -> ... -> target with no interior node in ``avoid``."""
    stack, seen = [source], {source}
    while stack:
        for child in net.children(stack.pop()):
            if child == target:
                return True
            if child not in seen and child not in avoid:
                seen.add(child)
                stack.append(child)
    return False


def _hypotheses(rng, net: bx.Network, effect: str, tries: int = 20) -> tuple[str, ...] | None:
    """Binary ancestors of ``effect`` that each reach it avoiding the others.

    Then reachability pruning never skips a candidate and every alpha=0
    tree has the same shape (2^h - 1 nodes) and scores the same candidates,
    so request cost depends on the network, not on which candidates the
    graph happens to cut. Returns None when ``tries`` draws all fail.
    """
    anc = sorted(ancestors(net, [effect]) - {effect}, key=net.index)
    binary = [u for u in anc if len(net.domain(u)) == 2]
    if len(binary) < N40_HYPOTHESIS:
        return None
    for _ in range(tries):
        hyp = _pick(rng, binary, N40_HYPOTHESIS)
        if all(_reaches(net, x, effect, set(hyp) - {x}) for x in hyp):
            return tuple(hyp)
    return None


def place_explananda(net: bx.Network, rng, count: int) -> list[tuple[str, tuple]] | None:
    """Draw ``count`` (explanandum, hypothesis set) pairs, or None if too few fit.

    An explanandum needs 8 to 14 variables in its ancestral set, a joint
    table over that set of at most ``ORACLE_CELL_CAP`` cells, and a
    hypothesis set from :func:`_hypotheses`.
    """
    lo, hi = ANCESTRAL_RANGE
    fits = []
    for v in net.variables:
        anc = ancestors(net, [v.name])
        if lo <= len(anc) <= hi and joint_cells(net, anc) <= ORACLE_CELL_CAP:
            hyp = _hypotheses(rng, net, v.name)
            if hyp is not None:
                fits.append((v.name, hyp))
    if len(fits) < count:
        return None
    return _pick(rng, fits, count)


def _n40_group(rng, key, net, effect, hyp):
    """One request of each kind about one explanandum."""
    others = [u for u in sorted(ancestors(net, [effect]) - {effect}, key=net.index)
              if u not in hyp]
    e = {effect: _state(rng, net, effect)}
    do_var = hyp[int(rng.integers(len(hyp)))]
    see_var = others[int(rng.integers(len(others)))]
    ev_var = others[int(rng.integers(len(others)))]
    return [
        Request("cet", key, e, hyp),
        Request("et", key, e, hyp),
        Request("bf", key, e, hyp),
        Request("mpe", key, e, observed={ev_var: _state(rng, net, ev_var)}),
        Request("query", key, e, observed={see_var: _state(rng, net, see_var)},
                do={do_var: _state(rng, net, do_var)}),
    ]


def random_n40(seed: int, networks: int = 12, explananda: int = 2) -> Workload:
    """Observed hypothesis variables (pointwise flow) run on the other workloads."""
    rng = np.random.default_rng(seed)
    nets = {}
    placed = {}
    for k in range(networks):
        key = f"n40-{k}"
        while key not in placed:
            net = random_network(rng, N40_VARS, N40_WINDOW, name=key)
            picks = place_explananda(net, rng, explananda)
            if picks is not None:
                nets[key], placed[key] = net, picks
    rounds = [[_n40_group(rng, key, nets[key], *placed[key][i]) for key in nets]
              for i in range(explananda)]
    return Workload("random-n40", nets, _interleave(rounds),
                    lambda req: _run_library(nets[req.net], req))


# -- cli-oneshot --------------------------------------------------------------------

CLI_RANDOM_VARS = 10
CLI_ET_ALPHA = 0.02  # the CLI's default for et


def _bindings(assignment: dict[str, str]) -> str:
    return ",".join(f"{var}={state}" for var, state in assignment.items())


def cli_argv(req: Request, path: str) -> list[str]:
    """The command line that runs ``req`` against the network file at ``path``."""
    argv = [req.kind, "--network", path, "--format", "json"]
    if req.kind in ("cet", "et", "bf"):
        argv += ["--explanandum", _bindings(req.explanandum),
                 "--hypothesis", ",".join(req.hypothesis)]
    if req.kind in ("cet", "et"):
        argv += ["--alpha", repr(req.alpha)]
    if req.kind == "cet" and req.observed:
        argv += ["--observe", _bindings(req.observed)]
    if req.kind == "bf":
        argv += ["--max-subset-size", str(bx.ExplainerConfig.max_subset_size)]
    if req.kind == "mpe":
        argv += ["--evidence", _bindings({**req.explanandum, **req.observed})]
    if req.kind == "query":
        argv += ["--event", _bindings(req.explanandum), "--do", _bindings(req.do)]
        if req.observed:
            argv += ["--observe", _bindings(req.observed)]
    if req.checked:
        argv.append("--oracle-check")
    return argv


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bx.cli.main(argv)
    return code, out.getvalue()


def cli_oneshot(seed: int, workdir: Path, random_networks: int = 12,
                groups_per_network: int = 16) -> Workload:
    """Bundled networks plus small random ones, written to ``workdir``.

    The random networks are binary, so tree sizes and oracle tables stay
    comparable across seeds; academe brings the 3-state variables. Every
    other group of requests is repeated with ``--oracle-check``, all but its
    ``mpe`` request: ``mpe --oracle-check`` compares completions rather than
    scores and exits 4 when the engine picks another of exactly tied
    maximisers (``test_mpe_oracle_check_accepts_tied_maximisers``). The
    verifier still checks every ``mpe`` request against ``oracle_mpe``.
    """
    rng = np.random.default_rng(seed)
    nets = {name: bx.datasets.load(name) for name in BUNDLED}
    for k in range(random_networks):
        key = f"r10-{k}"
        nets[key] = random_network(rng, CLI_RANDOM_VARS, window=4, ternary_share=0.0, name=key)
    paths = {}
    for key, net in nets.items():
        paths[key] = str(workdir / f"{key}.json")
        Path(paths[key]).write_text(bx.serialize_network(net), encoding="utf-8")
    rounds = _groups(rng, nets, groups_per_network, hyp_size=5, alpha_et=CLI_ET_ALPHA)
    for g, batch in enumerate(rounds):
        if g % 2 == 0:
            batch.extend([replace(r, checked=True) for r in group if r.kind != "mpe"]
                         for group in list(batch))
    requests = _interleave(rounds)
    argvs = {id(req): cli_argv(req, paths[req.net]) for req in requests}
    return Workload("cli-oneshot", nets, requests, lambda req: run_cli(argvs[id(req)]))


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "bundled-warm":
        return bundled_warm(seed)
    if name == "random-n40":
        return random_n40(seed)
    if name == "cli-oneshot":
        return cli_oneshot(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
