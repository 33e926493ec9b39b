"""Span recorder around the library's public functions.

The benchmark installs wrappers from its own files: nothing inside
``src/bnexplain/`` changes. A function is replaced at every place it is
bound, because several modules import functions by name
(``inference.mutilate``, ``explain.flow_to_state``, ``cli.load_network``
and others). Methods are replaced on their class. :meth:`Tracer.installed`
puts every original back when the traced block ends, also on error.

Each span records name, start, end, parent span and request id, plus one
number the span measured (output cells, tree nodes, ...). Spans are kept in
flat arrays, about 35 bytes each, until the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
import time
from array import array

import numpy as np

import bnexplain as bx
import bnexplain.cli
import bnexplain.render

MARK = "__bench_span__"


def _cells(args, kwargs, result) -> float:
    return float(result.values.size)


def _nodes(args, kwargs, result) -> float:
    return float(bx.count_nodes(result))


def _assignments(args, kwargs, result) -> float:
    """Number of hypothesis assignments a Bayes-factor search scores."""
    net, hypothesis = args[0], args[1]
    config = args[3] if len(args) > 3 else kwargs.get("config")
    size = (config or bx.ExplainerConfig()).max_subset_size
    cards = [len(net.domain(v)) for v in set(hypothesis)]
    return float(sum(math.prod(c) for k in range(1, size + 1)
                     for c in itertools.combinations(cards, k)))


def _targets():
    """(span name, owner, attribute, measure) for every wrapped callable."""
    from bnexplain import causal, explain, factors, fileformat, inference, network, oracle

    render_fns = ("tree_to_text", "ranking_to_text", "tree_to_json_obj",
                  "ranking_to_json_obj", "to_json_text", "tree_to_dot")
    return [
        ("network.Network", network.Network, "__init__", None),
        ("network.mutilate", network, "mutilate", None),
        ("network.check_assignment", network, "check_assignment", None),
        ("network.reachable", network, "reachable", None),
        ("fileformat.load_network", fileformat, "load_network", None),
        ("factors.from_cpt", factors, "from_cpt", None),
        ("factors.multiply", factors, "multiply", _cells),
        ("factors.marginalize", factors, "marginalize", None),
        ("factors.reduce_var", factors, "reduce_var", None),
        ("factors.max_out", factors, "max_out", None),
        ("inference.query", inference.ExactEngine, "query", None),
        ("inference.probability", inference.ExactEngine, "probability", None),
        ("inference.conditional_mutual_information", inference,
         "conditional_mutual_information", None),
        ("inference.mpe", inference, "mpe", None),
        ("causal.flow_to_state", causal, "flow_to_state", None),
        ("causal.pointwise_flow", causal, "pointwise_flow", None),
        ("causal.interventional_probability", causal, "interventional_probability", None),
        ("explain.cet", explain, "causal_explanation_tree", _nodes),
        ("explain.et", explain, "explanation_tree", _nodes),
        ("explain.bf", explain, "bayes_factor_search", _assignments),
        ("oracle.enumerate_joint", oracle, "enumerate_joint", _cells),
        ("oracle.CheckedEngine", oracle.CheckedEngine, "query", None),
        ("oracle.CheckedEngine", oracle.CheckedEngine, "probability", None),
        *(("render", bx.render, fn, None) for fn in render_fns),
        ("cli.main", bx.cli, "main", None),
    ]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bnexplain" or name.startswith("bnexplain."))]


def bind_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind ``original`` to ``replacement`` in every bnexplain module.

    Returns (owner, attribute, old value) records for :func:`restore`.
    """
    records = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                records.append((module, attr, value))
                setattr(module, attr, replacement)
    return records


def restore(records) -> None:
    for owner, attr, value in reversed(records):
        setattr(owner, attr, value)


def leftover_wrappers() -> list[str]:
    """Names bound to a benchmark wrapper anywhere in the package (should be none)."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            owners = [(f"{module.__name__}.{attr}", value)]
            if isinstance(value, type):
                owners += [(f"{module.__name__}.{attr}.{a}", v) for a, v in vars(value).items()]
            found += [name for name, v in owners if hasattr(v, MARK)]
    return found


def _query_key(args, kwargs):
    _, net, *rest = args
    targets = rest[0] if len(rest) > 0 else kwargs.get("targets", ())
    observed = rest[1] if len(rest) > 1 else kwargs.get("observed")
    do = rest[2] if len(rest) > 2 else kwargs.get("do")
    return (id(net), tuple(targets), tuple(sorted((observed or {}).items())),
            tuple(sorted((do or {}).items())))


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.outer = array("b")  # 1 unless a span of the same name is open around it
        self.value = array("d")
        self.request_id = -1
        self.query_keys: set = set()
        self.do_queries = 0
        self._stack: list[int] = []
        self._open: list[int] = []  # per name id: spans of that name now open

    def _wrap(self, name: str, fn, measure):
        if name not in self.names:
            self.names.append(name)
            self._open.append(0)
        nid = self.names.index(name)
        is_query = name == "inference.query"
        stack, open_count = self._stack, self._open
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        requests, outers, values = self.request, self.outer, self.value
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_query:
                key = _query_key(args, kwargs)
                self.query_keys.add((self.request_id, key))
                self.do_queries += bool(key[3])
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            outers.append(open_count[nid] == 0)
            values.append(0.0)
            ends.append(0.0)
            stack.append(i)
            open_count[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                open_count[nid] -= 1
            if measure is not None:
                values[i] = measure(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; always unwrap."""
        records = []
        try:
            for name, owner, attr, measure in _targets():
                if isinstance(owner, type):
                    original = vars(owner)[attr]
                    records.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, measure))
                else:
                    original = getattr(owner, attr)
                    records += bind_everywhere(original, self._wrap(name, original, measure))
            yield self
        finally:
            restore(records)

    # -- per-layer metrics ----------------------------------------------------------

    def metrics(self, n_requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced request unless the name says otherwise."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        value = np.frombuffer(self.value, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        per = 1.0 / max(n_requests, 1)

        def sel(span):
            if span not in self.names:
                return np.zeros(len(dur), dtype=bool)
            return name == self.names.index(span)

        def calls(span):
            return float(sel(span).sum()) * per, "count"

        def ms(span):
            mask = sel(span) & outer
            return float(dur[mask].sum()) * 1e3 * per, "ms"

        def self_ms(span):
            return float(self_time[sel(span)].sum()) * 1e3 * per, "ms"

        owner = self._explainer_owner(name, parent)
        queries = sel("inference.query")

        def owned_queries(span):
            return float(np.isin(owner[queries], np.flatnonzero(sel(span))).sum())

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for span in ("network.Network", "network.mutilate", "network.check_assignment",
                     "network.reachable", "factors.from_cpt", "factors.multiply",
                     "inference.conditional_mutual_information", "causal.flow_to_state",
                     "causal.pointwise_flow", "oracle.enumerate_joint"):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.ms"] = ms(span)
        for span in ("fileformat.load_network", "factors.marginalize", "factors.max_out",
                     "inference.mpe", "causal.interventional_probability", "render"):
            out[f"{span}.ms"] = ms(span)
        out["factors.multiply.cells"] = float(value[sel("factors.multiply")].sum()) * per, "cells"
        out["factors.max_cells"] = float(value[sel("factors.multiply")].max(initial=0.0)), "cells"
        out["factors.reduce_var.calls"] = calls("factors.reduce_var")
        out["oracle.enumerate_joint.cells"] = (
            float(value[sel("oracle.enumerate_joint")].sum()) * per, "cells")
        n_queries = int(queries.sum())
        out["inference.query.calls"] = calls("inference.query")
        out["inference.query.ms"] = ms("inference.query")
        out["inference.query.self_ms"] = self_ms("inference.query")
        out["inference.query.p50_us"] = (
            float(np.median(dur[queries])) * 1e6 if n_queries else 0.0, "us")
        out["inference.query.distinct_ratio"] = ratio(len(self.query_keys), n_queries), "ratio"
        out["inference.query.do_share"] = ratio(self.do_queries, n_queries), "ratio"
        out["inference.probability.calls"] = calls("inference.probability")
        for kind in ("cet", "et", "bf"):
            out[f"explain.{kind}.self_ms"] = self_ms(f"explain.{kind}")
        for kind in ("cet", "et"):
            mask = sel(f"explain.{kind}")
            nodes = float(value[mask].sum())
            out[f"explain.{kind}.nodes"] = ratio(nodes, float(mask.sum())), "count"
            out[f"explain.{kind}.queries_per_node"] = (
                ratio(owned_queries(f"explain.{kind}"), nodes), "ratio")
        out["explain.bf.queries_per_assignment"] = (
            ratio(owned_queries("explain.bf"), float(value[sel("explain.bf")].sum())), "ratio")
        out["oracle.CheckedEngine.self_ms"] = self_ms("oracle.CheckedEngine")
        out["cli.main.self_ms"] = self_ms("cli.main")
        return out

    def _explainer_owner(self, name, parent):
        """Index of the outermost explainer span around each span, or -1."""
        explainer = np.isin(name, [i for i, n in enumerate(self.names) if n.startswith("explain.")])
        owner = np.full(len(name), -1, dtype=np.int64)
        cursor = np.arange(len(name))
        live = cursor >= 0
        while live.any():
            hit = live & explainer[np.where(cursor >= 0, cursor, 0)]
            owner[hit] = cursor[hit]
            cursor = np.where(live, parent[np.where(cursor >= 0, cursor, 0)], -1)
            live = cursor >= 0
        return owner
