import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import bnexplain
from bnexplain import Cpt, Network, Variable, datasets, oracle_information_flow, reachable


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment, with ``extra``, for a child that runs
    ``python -m bnexplain``: the child imports the package from where this
    process found it, also when only pytest's ``pythonpath`` put it there."""
    where = str(Path(bnexplain.__file__).parents[1])
    path = os.pathsep.join(filter(None, [where, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def drug():
    return datasets.drug()


@pytest.fixture(scope="session")
def asia():
    return datasets.asia()


@pytest.fixture(scope="session")
def academe():
    return datasets.academe()


def _draw_network(rng: np.random.Generator, n_vars: int, max_parents: int,
                  name: str, max_states: int = 2, zero_one: bool = False,
                  shuffled: bool = False) -> Network:
    """Random DAG whose edges point from lower to higher variable numbers.

    With ``zero_one``, each CPT row is, with probability one half, replaced by
    an exact one-hot row on a random state. With ``shuffled``, the variables
    are declared in a random order, so the declaration order is in general not
    topological. Both options draw extra numbers only when set, so with both
    off the generator draws exactly the numbers it always has.
    """
    cards = [2 if max_states == 2 else int(rng.integers(2, max_states + 1))
             for _ in range(n_vars)]
    variables = [Variable(f"V{i}", tuple(f"s{k}" for k in range(cards[i])))
                 for i in range(n_vars)]
    cpts = {}
    for i in range(n_vars):
        pool = np.arange(i)
        n_par = int(rng.integers(0, min(i, max_parents) + 1))
        chosen = sorted(int(j) for j in rng.choice(pool, size=n_par, replace=False)) if n_par else []
        parents = tuple(f"V{j}" for j in chosen)
        n_rows = int(np.prod([cards[j] for j in chosen])) if chosen else 1
        rows = []
        for _ in range(n_rows):
            if cards[i] == 2:
                p = float(rng.uniform(0.05, 0.95))
                rows.append((p, 1.0 - p))
            else:
                raw = rng.uniform(0.05, 0.95, size=cards[i])
                rows.append(tuple(float(p) for p in raw / raw.sum()))
            if zero_one and rng.random() < 0.5:
                hot = int(rng.integers(cards[i]))
                rows[-1] = tuple(float(k == hot) for k in range(cards[i]))
        cpts[f"V{i}"] = Cpt(f"V{i}", parents, tuple(rows))
    if shuffled:
        variables = [variables[int(j)] for j in rng.permutation(n_vars)]
    return Network(variables, cpts, name=name)


def _faithful_with_margin(net: Network, margin: float) -> bool:
    # every graph-reachable pair must carry clearly nonzero causal flow, so
    # that zero-flow tests separate cleanly at the 1e-9 tolerance
    names = [v.name for v in net.variables]
    for src, dst in itertools.permutations(names, 2):
        if reachable(net, src, dst) and oracle_information_flow(net, src, dst) <= margin:
            return False
    return True


def make_random_network(rng: np.random.Generator, n_vars: int, max_parents: int = 3,
                        name: str = "random", faithful_margin: float | None = None,
                        max_states: int = 2) -> Network:
    """Random discrete DAG with CPT entries bounded away from 0 and 1.

    Edges only point from earlier to later declaration positions, so the
    graph is acyclic by construction and every full assignment has positive
    probability (no impossible-evidence traps in randomized queries). With
    ``faithful_margin`` set, candidates whose aggregate cause-effect flows
    nearly cancel are redrawn: zero-flow/reachability properties presume
    faithfulness, which random parameterizations only deliver up to near
    cancellations.
    """
    for _ in range(50):
        net = _draw_network(rng, n_vars, max_parents, name, max_states)
        if faithful_margin is None or _faithful_with_margin(net, faithful_margin):
            return net
    raise RuntimeError(f"no faithful draw for {name} after 50 attempts")


def make_chain(rng: np.random.Generator, length: int, name: str = "chain") -> Network:
    """V0 -> V1 -> ... with strongly correlated binary links."""
    variables = [Variable(f"V{i}", ("t", "f")) for i in range(length)]
    cpts = {}
    p0 = float(rng.uniform(0.3, 0.7))
    cpts["V0"] = Cpt("V0", (), ((p0, 1.0 - p0),))
    for i in range(1, length):
        hi = float(rng.uniform(0.7, 0.95))
        lo = float(rng.uniform(0.05, 0.3))
        cpts[f"V{i}"] = Cpt(f"V{i}", (f"V{i-1}",), ((hi, 1.0 - hi), (lo, 1.0 - lo)))
    return Network(variables, cpts, name=name)


@pytest.fixture(scope="session")
def random_corpus():
    rng = np.random.default_rng(20260808)
    return [make_random_network(rng, 3 + (i % 8), name=f"rnd{i}", faithful_margin=1e-6)
            for i in range(50)]


@pytest.fixture(scope="session")
def net_factory():
    return make_random_network


@pytest.fixture(scope="session")
def chain_factory():
    return make_chain
