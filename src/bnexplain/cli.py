"""Command-line front end.

Subcommands: ``cet`` (causal explanation tree), ``et`` (noncausal explanation
tree), ``mpe``, ``bf`` (Bayes-factor search), ``query`` (raw probability),
``validate``. Exit codes: 0 success, 1 usage or binding problem, 2 invalid
network file, 3 impossible conditioning, 4 oracle cross-check divergence.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import render
from .causal import interventional_probability
from .errors import (
    ImpossibleEvidenceError,
    NetworkFormatError,
    NetworkValidationError,
    OracleDivergenceError,
)
from .explain import (
    ExplainerConfig,
    bayes_factor_search,
    causal_explanation_tree,
    explanation_tree,
    mpe_explanation,
)
from .fileformat import load_network
from .inference import event_probability
from .network import Network, check_assignment, merge_assignments
from .oracle import _TOLERANCE, CheckedEngine, oracle_mpe


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _binding_flag(parser, name, help_text, required=False):
    parser.add_argument(name, action="append", default=[], metavar="Var=state",
                        required=required, help=help_text)


def _hypothesis_flags(parser, default="all unbound variables"):
    parser.add_argument("--hypothesis", action="append", default=[], metavar="Var[,Var]",
                        help=f"explanatory variables (default: {default})")
    parser.add_argument("--exclude", action="append", default=[], metavar="Var[,Var]",
                        help="variables to drop from the hypothesis set")


def _network_flag(parser):
    parser.add_argument("--network", required=True, metavar="FILE", help="network file to load")


def _common_flags(parser, formats=("ascii", "json")):
    _network_flag(parser)
    parser.add_argument("--format", choices=formats, default="ascii", help="output format")
    parser.add_argument("--oracle-check", action="store_true",
                        help="recompute every probability by full-joint enumeration; "
                             "exit 4 on divergence beyond 1e-9")


@functools.cache
def build_parser() -> _Parser:
    """The ``bnexplain`` argument parser, built on first use and shared afterwards."""
    parser = _Parser(prog="bnexplain", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("cet",
                       help="causal explanation tree for an explanandum")
    _common_flags(p, formats=("ascii", "json", "dot"))
    _binding_flag(p, "--explanandum", "state(s) to explain", required=True)
    _binding_flag(p, "--observe", "additional observed states")
    _hypothesis_flags(p, "all unbound variables; observed variables join only when listed here")
    p.add_argument("--alpha", type=float, default=0.0, help="minimum information flow (bits)")
    p.add_argument("--no-prune", action="store_true",
                   help="score all candidates, even ones with no directed path to the explanandum")
    p.set_defaults(handler=_run_cet)

    p = sub.add_parser("et",
                       help="noncausal explanation tree (conditional mutual information)")
    _common_flags(p, formats=("ascii", "json", "dot"))
    _binding_flag(p, "--explanandum", "state(s) to explain", required=True)
    _binding_flag(p, "--observe", "observed states; folded into the conditioning event, "
                                  "since this method cannot treat them separately")
    _hypothesis_flags(p)
    p.add_argument("--alpha", type=float, default=0.02, help="minimum mutual information (bits)")
    p.add_argument("--beta", type=float, default=0.0, help="minimum branch posterior")
    p.set_defaults(handler=_run_et)

    p = sub.add_parser("mpe",
                       help="most probable completion of the unobserved variables")
    _common_flags(p)
    _binding_flag(p, "--evidence", "observed states", required=True)
    p.set_defaults(handler=_run_mpe)

    p = sub.add_parser("bf",
                       help="rank hypothesis subsets by Bayes factor")
    _common_flags(p)
    _binding_flag(p, "--explanandum", "state(s) to explain", required=True)
    _hypothesis_flags(p)
    p.add_argument("--max-subset-size", type=int, default=None,
                   help="largest subset to enumerate (default: min(2, #hypothesis vars))")
    p.add_argument("--top-k", type=int, default=3, help="entries to report")
    p.add_argument("--raw-odds", action="store_true",
                   help="score by plain posterior odds instead of the prior-normalized ratio")
    p.add_argument("--no-dedup", action="store_true",
                   help="rank every assignment instead of the best one per variable subset")
    p.set_defaults(handler=_run_bf)

    p = sub.add_parser("query", help="probability of an event")
    _common_flags(p)
    _binding_flag(p, "--event", "event whose probability to compute", required=True)
    _binding_flag(p, "--observe", "states to condition on")
    _binding_flag(p, "--do", "interventions, applied before conditioning")
    p.set_defaults(handler=_run_query)

    p = sub.add_parser("validate", help="check a network file")
    _network_flag(p)
    p.set_defaults(handler=_run_validate)

    return parser


# -- argument digestion ------------------------------------------------------------


def _items(tokens: list[str]) -> list[str]:
    """Nonempty comma-separated items of a repeatable flag, in the order given."""
    return [item.strip() for chunk in tokens for item in chunk.split(",") if item.strip()]


def _parse_bindings(net: Network, tokens: list[str], flag: str,
                    nonempty: bool = False) -> dict[str, str]:
    """Bindings in the order given; unknown or conflicting ones are usage errors."""
    pairs = []
    for token in _items(tokens):
        if "=" not in token:
            raise UsageError(f"{flag}: expected Var=state, got {token!r}")
        var, state = token.split("=", 1)
        pairs.append({var: state})
    try:
        bound = merge_assignments(*pairs)
        check_assignment(net, bound)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if nonempty and not bound:
        raise UsageError(f"{flag} must bind at least one variable")
    return bound


def _parse_names(net: Network, tokens: list[str], flag: str) -> set[str]:
    names = _items(tokens)
    for name in names:
        if name not in net:
            raise UsageError(f"{flag}: unknown variable {name!r}")
    return set(names)


def _hypothesis_set(net, args, *bound_sets) -> set[str]:
    chosen = _parse_names(net, args.hypothesis, "--hypothesis")
    if not chosen:
        taken = set().union(*bound_sets)
        chosen = {v.name for v in net.variables if v.name not in taken}
    return chosen - _parse_names(net, args.exclude, "--exclude")


def _engine_for(args):
    return CheckedEngine() if args.oracle_check else None


def _emit_tree(args, tree, meta: dict) -> None:
    if args.format == "ascii":
        sys.stdout.write(render.tree_to_text(tree))
    elif args.format == "dot":
        sys.stdout.write(render.tree_to_dot(tree))
    else:
        sys.stdout.write(render.to_json_text({**meta, "tree": render.tree_to_json_obj(tree)}))


def _emit_ranking(args, ranking) -> None:
    if args.format == "ascii":
        sys.stdout.write(render.ranking_to_text(ranking))
    else:
        sys.stdout.write(render.to_json_text(render.ranking_to_json_obj(ranking)))


# -- handlers ----------------------------------------------------------------------


def _run_cet(args, net: Network) -> int:
    explanandum = _parse_bindings(net, args.explanandum, "--explanandum")
    observed = _parse_bindings(net, args.observe, "--observe")
    hypothesis = _hypothesis_set(net, args, explanandum, observed)
    config = ExplainerConfig(alpha=args.alpha, prune_unreachable=not args.no_prune)
    tree = causal_explanation_tree(net, hypothesis, observed, explanandum,
                                   config, engine=_engine_for(args))
    _emit_tree(args, tree, {
        "method": "cet",
        "network": net.name,
        "explanandum": explanandum,
        "observed": observed,
        "alpha": args.alpha,
    })
    return 0


def _run_et(args, net: Network) -> int:
    explanandum = _parse_bindings(net, args.explanandum, "--explanandum", nonempty=True)
    observed = _parse_bindings(net, args.observe, "--observe")
    conditioning = merge_assignments(explanandum, observed)
    hypothesis = _hypothesis_set(net, args, conditioning)
    config = ExplainerConfig(alpha=args.alpha, beta=args.beta)
    tree = explanation_tree(net, hypothesis, conditioning, config, engine=_engine_for(args))
    _emit_tree(args, tree, {
        "method": "et",
        "network": net.name,
        "explanandum": explanandum,
        "observed": observed,
        "alpha": args.alpha,
        "beta": args.beta,
    })
    return 0


def _run_mpe(args, net: Network) -> int:
    evidence = _parse_bindings(net, args.evidence, "--evidence", nonempty=True)
    ranking = mpe_explanation(net, evidence, engine=_engine_for(args))
    if args.oracle_check:
        want, want_p = oracle_mpe(net, evidence)
        entry = ranking.entries[0]
        if dict(entry.assignment) != want or abs(entry.score - want_p) > _TOLERANCE:
            raise OracleDivergenceError(
                f"mpe diverges from enumeration: {entry.as_dict()} ({entry.score!r}) "
                f"vs {want} ({want_p!r})"
            )
    _emit_ranking(args, ranking)
    return 0


def _run_bf(args, net: Network) -> int:
    explanandum = _parse_bindings(net, args.explanandum, "--explanandum")
    hypothesis = _hypothesis_set(net, args, explanandum)
    size = args.max_subset_size
    if size is None:
        size = min(2, len(hypothesis)) or 1
    config = ExplainerConfig(max_subset_size=size, top_k=args.top_k,
                             raw_odds=args.raw_odds, best_per_subset=not args.no_dedup)
    ranking = bayes_factor_search(net, hypothesis, explanandum, config,
                                  engine=_engine_for(args))
    _emit_ranking(args, ranking)
    return 0


def _run_query(args, net: Network) -> int:
    event = _parse_bindings(net, args.event, "--event", nonempty=True)
    observed = _parse_bindings(net, args.observe, "--observe")
    do = _parse_bindings(net, args.do, "--do")
    if do:
        p = interventional_probability(net, event, observed, do, engine=_engine_for(args))
    else:
        # plain conditioning tolerates a consistent event/observe overlap
        p = event_probability(net, event, observed, engine=_engine_for(args))
    if args.format == "ascii":
        sys.stdout.write(format(p, ".12g") + "\n")
    else:
        sys.stdout.write(render.to_json_text({"probability": p}))
    return 0


def _run_validate(args, net: Network) -> int:
    sys.stdout.write(
        f"{args.network}: OK ({len(net.variables)} variables, {len(net.edges)} edges)\n"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, load_network(args.network))
    except UsageError as exc:
        print(f"bnexplain: error: {exc}", file=sys.stderr)
        return 1
    except (NetworkFormatError, NetworkValidationError, OSError) as exc:
        print(f"bnexplain: invalid network: {exc}", file=sys.stderr)
        return 2
    except ImpossibleEvidenceError as exc:
        print(f"bnexplain: impossible conditioning: {exc}", file=sys.stderr)
        return 3
    except OracleDivergenceError as exc:
        print(f"bnexplain: oracle cross-check failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"bnexplain: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
