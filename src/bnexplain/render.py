"""Rendering of trees and rankings: plain text, JSON objects, and DOT.

Text and DOT show labels to 4 decimal places, and a label within 1e-12 of
zero as ``0.0000``; JSON keeps full precision and round-trips losslessly
through :func:`tree_from_json_obj`.
"""

from __future__ import annotations

import json

from .explain import _ROUNDING_SLACK, Branch, ExplanationTree, RankedExplanations


def _fmt(label: float | None) -> str:
    if label is None:
        return "pruned"
    if abs(label) <= _ROUNDING_SLACK:  # rounding noise prints "0.0000", never "-0.0000"
        label = 0.0
    return f"{label:.4f}"


# -- plain text -----------------------------------------------------------------


def tree_to_text(tree: ExplanationTree) -> str:
    if tree.is_leaf():
        return "(empty explanation tree)\n"
    lines: list[str] = []

    def render(node: ExplanationTree, prefix: str) -> None:
        for i, branch in enumerate(node.branches):
            last = i == len(node.branches) - 1
            connector = "`-" if last else "+-"
            lines.append(f"{prefix}{connector} {node.variable}={branch.state}: {_fmt(branch.label)}")
            if not branch.subtree.is_leaf():
                extension = "   " if last else "|  "
                lines.append(f"{prefix}{extension}{branch.subtree.variable}")
                render(branch.subtree, prefix + extension)

    lines.append(tree.variable)
    render(tree, "")
    return "\n".join(lines) + "\n"


def ranking_to_text(ranking: RankedExplanations) -> str:
    tag = "p" if ranking.score_kind == "posterior_probability" else "BF"
    lines = []
    for i, entry in enumerate(ranking.entries, start=1):
        bound = " ".join(f"{v}={s}" for v, s in entry.assignment) or "(empty)"
        lines.append(f"{i}. {bound}  {tag}={_fmt(entry.score)}")
    if ranking.skipped_degenerate:
        lines.append(f"(skipped {ranking.skipped_degenerate} degenerate hypotheses)")
    return "\n".join(lines) + "\n"


# -- JSON -----------------------------------------------------------------------


def tree_to_json_obj(tree: ExplanationTree) -> dict:
    if tree.is_leaf():
        return {"leaf": True}
    return {
        "variable": tree.variable,
        "branches": [
            {
                "state": b.state,
                "label": b.label,
                "pruned": b.pruned,
                "subtree": tree_to_json_obj(b.subtree),
            }
            for b in tree.branches
        ],
    }


def tree_from_json_obj(obj: dict) -> ExplanationTree:
    if obj.get("leaf"):
        return ExplanationTree()
    branches = tuple(
        Branch(
            state=b["state"],
            label=b["label"],
            subtree=tree_from_json_obj(b["subtree"]),
            pruned=bool(b.get("pruned", False)),
        )
        for b in obj["branches"]
    )
    return ExplanationTree(obj["variable"], branches)


def ranking_to_json_obj(ranking: RankedExplanations) -> dict:
    return {
        "score_kind": ranking.score_kind,
        "entries": [
            {"assignment": dict(e.assignment), "score": e.score} for e in ranking.entries
        ],
        "skipped_degenerate": ranking.skipped_degenerate,
    }


def to_json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- DOT ------------------------------------------------------------------------


def _dot_quoted(label: str) -> str:
    """``label`` as a DOT quoted string: a variable or state name may hold ``"`` or ``\\``."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tree_to_dot(tree: ExplanationTree) -> str:
    """Graphviz digraph: one node statement per tree node, one labeled edge per branch."""
    lines = ["digraph explanation_tree {"]
    counter = [0]

    def declare(node: ExplanationTree) -> str:
        node_id = f"n{counter[0]}"
        counter[0] += 1
        if node.is_leaf():
            lines.append(f'  {node_id} [shape=point, label=""];')
        else:
            lines.append(f"  {node_id} [label={_dot_quoted(node.variable)}];")
        return node_id

    def render(node: ExplanationTree, node_id: str) -> None:
        for branch in node.branches:
            child_id = declare(branch.subtree)
            label = _dot_quoted(f"{branch.state}: {_fmt(branch.label)}")
            lines.append(f"  {node_id} -> {child_id} [label={label}];")
            render(branch.subtree, child_id)

    root_id = declare(tree)
    render(tree, root_id)
    lines.append("}")
    return "\n".join(lines) + "\n"
