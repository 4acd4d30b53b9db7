import numpy as np
import pytest

from polyjet.linalg import SYM_INVERSE_MAX_DIM, sym_inverse
from polyjet.symbolic import ZERO, Const, add, call, compile_block, mul, var

from oracles import laplace_inverse


def dense_matrix(d: int):
    """Every entry its own variable a_i_j."""
    return [[var(f"a{i}_{j}") for j in range(d)] for i in range(d)]


def sparse_matrix(d: int, seed: int):
    """A seeded mix of zeros, constants, variables and small expressions,
    with no zero on the diagonal."""
    rng = np.random.default_rng(seed)
    xs = [var(f"x{k + 1}") for k in range(d)]
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            kind = rng.integers(i == j, 4)
            x = xs[rng.integers(d)]
            row.append([ZERO, Const(float(rng.integers(1, 4))), x,
                        add(Const(1.0), mul(x, call("sin", xs[j])))][kind])
        rows.append(row)
    return rows


@pytest.mark.parametrize("d", range(1, 7))
def test_sym_inverse_returns_the_laplace_nodes(d):
    for rows in (dense_matrix(d), sparse_matrix(d, seed=d), sparse_matrix(d, seed=10 + d)):
        got = sym_inverse(rows, "the test")
        want = laplace_inverse(rows)
        assert all(g is w for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))


@pytest.mark.parametrize("d", [7, SYM_INVERSE_MAX_DIM])
def test_sym_inverse_times_matrix_is_identity_past_the_oracle(d):
    rows = dense_matrix(d)
    names = [e.name for row in rows for e in row]
    program = compile_block(sym_inverse(rows, "the test"))
    rng = np.random.default_rng(d)
    mats = [np.eye(d) + rng.uniform(-0.3, 0.3, (d, d)) for _ in range(3)]
    invs = program.run([dict(zip(names, mat.ravel())) for mat in mats])
    for inv, mat in zip(invs, mats):
        assert np.allclose(inv @ mat, np.eye(d), atol=1e-10)
