import itertools

import numpy as np
import pytest

from bnexplain import Cpt, Network, Variable
from bnexplain.factors import (
    Factor,
    from_cpt,
    marginalize,
    max_out,
    multiply,
    reduce_var,
    unit_factor,
)


@pytest.fixture
def net():
    variables = [Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1", "b2")),
                 Variable("C", ("c0", "c1"))]
    cpts = {
        "A": Cpt("A", (), ((0.3, 0.7),)),
        "B": Cpt("B", ("A",), ((0.2, 0.3, 0.5), (0.6, 0.1, 0.3))),
        "C": Cpt("C", ("B", "A"), ((0.9, 0.1), (0.8, 0.2), (0.7, 0.3),
                                   (0.6, 0.4), (0.5, 0.5), (0.4, 0.6))),
    }
    return Network(variables, cpts)


def test_from_cpt_scope_is_declaration_sorted(net):
    f = from_cpt(net, "C")
    assert f.scope == ("A", "B", "C")
    # C's rows are (b0,a0),(b0,a1),(b1,a0),... with last parent (A) fastest
    assert f.values[0, 0, 0] == 0.9  # b0, a0 -> (0.9, 0.1)
    assert f.values[1, 0, 0] == 0.8  # b0, a1 -> (0.8, 0.2)
    assert f.values[0, 1, 1] == 0.3  # b1, a0 -> (0.7, 0.3)
    assert f.values[0, 2, 0] == 0.5  # b2, a0 -> (0.5, 0.5)


def test_multiply_matches_pointwise_enumeration(net):
    f = from_cpt(net, "B")
    g = from_cpt(net, "C")
    prod = multiply(f, g, net)
    assert prod.scope == ("A", "B", "C")
    for i, j, k in itertools.product(range(2), range(3), range(2)):
        assert prod.values[i, j, k] == pytest.approx(f.values[i, j] * g.values[i, j, k], abs=0)


def test_multiply_with_unit_is_identity(net):
    f = from_cpt(net, "B")
    prod = multiply(unit_factor(), f, net)
    assert prod.scope == f.scope
    assert np.array_equal(prod.values, f.values)


def test_marginalize_and_reduce(net):
    f = from_cpt(net, "C")
    summed = marginalize(f, "C")
    assert summed.scope == ("A", "B")
    assert np.allclose(summed.values, 1.0)  # CPT rows sum to one
    sliced = reduce_var(f, "B", 1)
    assert sliced.scope == ("A", "C")
    assert sliced.values[0, 0] == 0.7


def test_max_out_prefers_lowest_state_index_on_ties():
    f = Factor(("X",), np.array([0.4, 0.4, 0.2]))
    reduced, arg = max_out(f, "X")
    assert reduced.scope == ()
    assert float(reduced.values) == 0.4
    assert int(arg) == 0


def _expanded(f, out_scope):
    """f's values broadcast to ``out_scope`` by indexing: None at every axis
    that f's scope lacks."""
    idx, j = [], 0
    for v in out_scope:
        if j < len(f.scope) and f.scope[j] == v:
            idx.append(slice(None))
            j += 1
        else:
            idx.append(None)
    return f.values[tuple(idx)]


def test_multiply_matches_the_indexed_broadcast():
    # every pair of declaration-sorted scopes over four variables: the same
    # scope, a 0-d factor on either side, disjoint and interleaved scopes.
    # The variables are declared out of alphabetical order, so that a merge
    # by name fails.
    variables = [Variable(n, tuple(f"{n.lower()}{k}" for k in range(size)))
                 for n, size in zip("WBQA", (2, 3, 2, 3))]
    cpts = {v.name: Cpt(v.name, (), (tuple(1.0 / len(v.states) for _ in v.states),))
            for v in variables}
    net = Network(variables, cpts)
    rng = np.random.default_rng(11)
    names = [v.name for v in variables]
    scopes = [s for k in range(5) for s in itertools.combinations(names, k)]
    drawn = [Factor(s, rng.random(tuple(len(net.domain(v)) for v in s))) for s in scopes]
    drawn.append(unit_factor())
    for f, g in itertools.product(drawn, repeat=2):
        scope = tuple(sorted(set(f.scope) | set(g.scope), key=net.index))
        prod = multiply(f, g, net)
        assert prod.scope == scope
        assert np.array_equal(prod.values, _expanded(f, scope) * _expanded(g, scope))


def _sorted_cpt_factor(net, var):
    """The CPT factor built through the public accessors: axes sorted, then transposed."""
    cpt = net.cpts[var]
    shape = tuple(len(net.domain(p)) for p in cpt.parents) + (len(net.domain(var)),)
    values = np.asarray(cpt.table, dtype=float).reshape(shape)
    scope = cpt.parents + (var,)
    order = sorted(range(len(scope)), key=lambda i: net.index(scope[i]))
    return Factor(tuple(scope[i] for i in order), values.transpose(order))


def test_compiled_factors_are_the_sorted_and_transposed_cpts(net, drug, asia, academe):
    # net lists C's parents as (B, A); the shuffled networks declare children
    # before some of their parents
    from conftest import _draw_network

    rng = np.random.default_rng(4)
    shuffled = [_draw_network(rng, 8, 3, "drawn", max_states=3, shuffled=True) for _ in range(10)]
    assert net.cpts["C"].parents == ("B", "A")
    for n in [net, drug, asia, academe, *shuffled]:
        for v in n.variables:
            got, want = n._factors[v.name], _sorted_cpt_factor(n, v.name)
            assert got.scope == want.scope
            assert got.values.shape == want.values.shape
            assert got.values.tobytes() == want.values.tobytes()
            assert not got.values.flags.writeable
    assert any(f.scope != n.cpts[v].parents + (v,) for n in shuffled for v, f in n._factors.items())
