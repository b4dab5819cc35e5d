"""Every sparse x dense product in gclbench goes through nn.spmm.

nn.spmm is wrapped with a counter wherever a gclbench module holds it, as
bench/tracer.py wraps it, and each test checks the products a call makes:
their count and each one's (operator nnz, dense columns).
"""

import sys

import numpy as np
import pytest

from gclbench import nn
from gclbench.graph import gcn_normalized_adjacency, laplacian_smooth
from gclbench.nn import ARCH_GCN, init_params, layer_rows
from gclbench.trainers import fisher_diagonal, train_session

HIDDEN = 8


@pytest.fixture()
def products(monkeypatch):
    """(nnz, cols) of every nn.spmm call made while the test runs."""
    seen = []
    spmm = nn.spmm

    def counted(S, X):
        seen.append((S.nnz, np.shape(X)[1]))
        return spmm(S, X)

    for name, module in list(sys.modules.items()):
        if name == "gclbench" or name.startswith("gclbench."):
            for key, value in list(vars(module).items()):
                if value is spmm:
                    monkeypatch.setattr(module, key, counted)
    return seen


def _problem(g, conv_bias=False):
    S = gcn_normalized_adjacency(g)
    X = g.features.astype(np.float64)
    rows = np.arange(0, g.node_count, 5)
    labels = g.labels[rows]
    p = init_params(ARCH_GCN, X.shape[1], HIDDEN, int(g.labels.max()) + 1, seed=0,
                    conv_bias=conv_bias)
    return p, S, X, rows, labels


def _nnz_x_cols(seen):
    return sum(nnz * cols for nnz, cols in seen)


def test_train_session_propagates_twice_forward_and_twice_backward(testkit_graph, products):
    p, S, X, rows, labels = _problem(testkit_graph)
    (A1, A1t), (A2, A2t) = layer_rows(ARCH_GCN, S, rows).ops
    train_session(p, S, X, labels, rows, epochs=2, lr=0.01)
    epoch = [(A1.nnz, HIDDEN), (A2.nnz, HIDDEN), (A2t.nnz, HIDDEN), (A1t.nnz, HIDDEN)]
    assert products == epoch * 2
    assert _nnz_x_cols(products) == 2 * 2 * HIDDEN * (A1.nnz + A2.nnz)


def test_fisher_diagonal_products(testkit_graph, products):
    p, S, X, rows, labels = _problem(testkit_graph, conv_bias=True)
    fisher_diagonal(p, S, X, rows, labels)
    nnz_rows = S[rows].nnz
    # The forward pass's two layers, then S_R D1 (W2), S_R m1 (b1) and S X (W1).
    assert products == [(S.nnz, HIDDEN), (S.nnz, HIDDEN), (nnz_rows, HIDDEN),
                        (nnz_rows, HIDDEN), (S.nnz, X.shape[1])]
    assert _nnz_x_cols(products) == (2 * S.nnz + 2 * nnz_rows) * HIDDEN + S.nnz * X.shape[1]


def test_laplacian_smooth_propagates_k_times(testkit_graph, products):
    S = gcn_normalized_adjacency(testkit_graph)
    X = testkit_graph.features
    laplacian_smooth(X, testkit_graph, 3)
    assert products == [(S.nnz, X.shape[1])] * 3
    assert _nnz_x_cols(products) == 3 * S.nnz * X.shape[1]
