"""The library's shared builders against the formulas written out in full.

Each hamiltonian builder, the canonical spatial block, the deviation block
T and the d-tensor pullback are built in the library from shared pieces
(the normal-form terms, one spatial-block loop, the transition's cached
Jacobians).  Interning makes a node's identity its structure, so the
shared pieces are right exactly when every entry is the very node that
the written-out formula of ``oracles`` builds.
"""

from __future__ import annotations

import contextlib

import numpy as np

from geomgen import (
    random_base_scalar,
    random_potential,
    random_spatial_metric,
    random_spatiotemporal_metric,
    random_temporal_metric,
    random_transition,
)
from oracles import (
    autonomous_electrodynamic_hamiltonian,
    canonical_n2_direct,
    general_electrodynamic_hamiltonian,
    gravitational_hamiltonian,
    pullback_dtensor_direct,
    t_block_direct,
)
from polyjet import hamilton
from polyjet.charts import pullback_scalar
from polyjet.connections import metric_n2
from polyjet.dtensors import builtin_dtensors, pullback_dtensor
from polyjet.hamilton import (
    HamiltonSpace,
    autonomous_electrodynamic_space,
    canonical_connection_closed_form,
    canonical_connection_middle_form,
    canonical_nonlinear_connection,
    electrodynamic_t_block,
    fundamental_vertical_dtensor,
    general_electrodynamic_space,
    gravitational_space,
)
from polyjet.metrics import Metric, christoffel, pullback_metric
from polyjet.symbolic import ZERO, add, keeping, parse


def _same_nodes(got, want) -> bool:
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    return got.shape == want.shape and all(a is b for a, b in zip(got.flat, want.flat))


def test_shared_builders_return_the_nodes_of_the_written_out_formulas():
    for m, n in ((1, 2), (2, 2), (2, 3)):
        rng = np.random.default_rng(10 * m + n)
        h, phi = random_temporal_metric(m, rng), random_spatial_metric(n, rng)
        A = [[parse(f"{0.1 * (i + a + 1)}*x{i + 1} - 0.2*x1*x{n}", (f"x{i + 1}", "x1", f"x{n}"))
              for a in range(m)] for i in range(n)]
        g = random_spatiotemporal_metric(m, n, rng)
        U, F = random_potential(m, n, rng), random_base_scalar(m, n, rng)
        spaces = (
            (gravitational_space(h, phi, mass=2.0, light_speed=1.5),
             gravitational_hamiltonian(h, phi, mass=2.0, light_speed=1.5)),
            (autonomous_electrodynamic_space(h, phi, A, mass=2.0, light_speed=1.5, charge=0.5),
             autonomous_electrodynamic_hamiltonian(h, phi, A, mass=2.0, light_speed=1.5,
                                                   charge=0.5)),
            (general_electrodynamic_space(h, g, U, F),
             general_electrodynamic_hamiltonian(h, g, U, F)))
        for space, H in spaces:
            assert space.hamiltonian is H
            assert _same_nodes(canonical_nonlinear_connection(space).n2,
                               canonical_n2_direct(space))
        if m >= 2:
            space = spaces[-1][0]
            assert _same_nodes(electrodynamic_t_block(space.g, space.U, h).components,
                               t_block_direct(space.g, space.U, h))
        tm = random_transition(m, n, rng)
        for T in builtin_dtensors(h, n).values():
            assert _same_nodes(pullback_dtensor(T, tm).components, pullback_dtensor_direct(T, tm))

    # one time dimension: g depends on x and the momenta, so the spatial
    # block keeps its dg/dp dH/dx term
    names = ("t1", "x1", "x2", "p1_1", "p2_1")
    H = parse("(1 + x1^2)*p1_1^2 + (1 + x2^2)*p2_1^2 + 0.1*x1*p1_1*p2_1 + 0.25*p1_1^4",
              names)
    space = HamiltonSpace(Metric.temporal([[1.0]]), 2, H)
    assert space.g.p_dependent
    assert _same_nodes(canonical_nonlinear_connection(space).n2, canonical_n2_direct(space))


def test_a_zero_potential_leaves_t_and_the_middle_form_nodes_unchanged():
    """A gravitational space's potential term is all ``ZERO``, so the spatial
    block skips every dg_ij/dx^k U product; T and the middle form must still
    be the very nodes of the formulas that build each of those products."""
    m, n = 2, 3
    rng = np.random.default_rng(3)
    tm = random_transition(m, n, rng, shears=2)
    h, phi = random_temporal_metric(m, rng), random_spatial_metric(n, rng)
    space = HamiltonSpace(pullback_metric(h, tm), n,
                          pullback_scalar(gravitational_space(h, phi).hamiltonian, tm))
    assert all(u is ZERO for u in space.U.components.flat)
    T = t_block_direct(space.g, space.U, space.h)
    assert _same_nodes(electrodynamic_t_block(space.g, space.U, space.h).components, T)
    metric_part = metric_n2(christoffel(space.g).components, m)
    middle = [[[add(metric_part[a][i][j], T[a, i, j]) for j in range(n)] for i in range(n)]
              for a in range(m)]
    assert _same_nodes(canonical_connection_middle_form(space).n2, middle)


def test_a_space_that_keeps_its_derivatives_builds_the_same_nodes(monkeypatch):
    """The seeded (2, 3) chart-B electrodynamic space and its three canonical
    connection forms, built with no derivative cache (the space's
    ``keeping`` block switched off) and then with the space's store: every
    entry is the very same node."""
    forms = (canonical_nonlinear_connection, canonical_connection_middle_form,
             canonical_connection_closed_form)

    def chart_b_space():
        m, n = 2, 3
        rng = np.random.default_rng(3)
        tm = random_transition(m, n, rng, shears=2)
        h, g = random_temporal_metric(m, rng), random_spatiotemporal_metric(m, n, rng)
        U, F = random_potential(m, n, rng), random_base_scalar(m, n, rng)
        space = general_electrodynamic_space(h, g, U, F)
        return HamiltonSpace(pullback_metric(h, tm), n, pullback_scalar(space.hamiltonian, tm))

    with monkeypatch.context() as mp:
        mp.setattr(hamilton, "keeping", lambda store: contextlib.nullcontext())
        plain = chart_b_space()
        weak = [build(plain) for build in forms]
    assert plain._kept == {}
    space = chart_b_space()
    kept = [build(space) for build in forms]
    assert space._kept
    assert space.hamiltonian is plain.hamiltonian
    for a, b in zip(kept, weak):
        assert _same_nodes(a.n1, b.n1) and _same_nodes(a.n2, b.n2)
    with keeping(space._kept):
        vertical = fundamental_vertical_dtensor(space.hamiltonian, 2, 3)
    assert _same_nodes(vertical.components,
                       fundamental_vertical_dtensor(plain.hamiltonian, 2, 3).components)
