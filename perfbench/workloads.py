"""law_sweep_2x2 and pullback_build_2x3: in-process workloads."""

from __future__ import annotations

import resource
from dataclasses import dataclass

import numpy as np

from polyjet.charts import JetChart
from polyjet.connections import NonlinearConnection
from polyjet.symbolic import Const, add, to_string

import inputs
from common import (EQUIV_TOL, FORMS, LAW_TOL, Context, Ledger, Result,
                    import_floor, median, peak_rss_mb, record_setup,
                    summarize_rounds, timed_rounds, timed_setup)
from counters import connection_entries
from tracing import Tracer, layer_api, self_times


def _rng(ctx: Context, *keys: int) -> np.random.Generator:
    return np.random.default_rng(ctx.derive(*keys))


def input_strings(inp, chart) -> list:
    """What a manifest for these inputs would hold, as parseable text."""
    exprs = [e for metric in (inp.h, inp.phi) for row in metric.components
             for e in row]
    exprs += [*inp.tm.t_forward, *inp.tm.x_forward, *inp.tm.t_inverse,
              *inp.tm.x_inverse]
    if isinstance(inp, inputs.ElectrodynamicInput):
        exprs += [e for row in inp.g.components for e in row]
        exprs += [e for row in inp.potential for e in row] + [inp.free_term]
    return [(to_string(e), chart.names) for e in exprs]


# ---------------------------------------------------------------------------
# law_sweep_2x2

SWEEP_KINDS = ("gravitational", "electrodynamic")


@dataclass
class SweepPair:
    """Objects in both charts of one (space, transition) pair."""

    kind: str
    inp: object
    tm: object
    dtensors: tuple
    temporal: tuple
    spatial: tuple
    connection: tuple
    hamiltonian_b: object


def _sweep_pair(api, kind: str, inp, dom) -> SweepPair:
    m, n, tm = inp.tm.m, inp.tm.n, inp.tm
    if kind == "gravitational":
        space_a = api.gravitational_space(inp.h, inp.phi)
    else:
        space_a = api.general_electrodynamic_space(inp.h, inp.g, inp.potential,
                                                   inp.free_term)
    h_b = api.pullback_metric(inp.h, tm)
    phi_b = api.pullback_metric(inp.phi, tm)
    H_b = api.pullback_scalar(space_a.hamiltonian, tm)
    space_b = api.HamiltonSpace(h_b, n, H_b, dom=dom)
    return SweepPair(
        kind=kind, inp=inp, tm=tm,
        dtensors=(api.builtin_dtensors(inp.h, n), api.builtin_dtensors(h_b, n)),
        temporal=(api.canonical_temporal(inp.h, n), api.canonical_temporal(h_b, n)),
        spatial=(api.canonical_spatial(inp.phi, m), api.canonical_spatial(phi_b, m)),
        connection=(api.canonical_nonlinear_connection(space_a),
                    api.canonical_nonlinear_connection(space_b)),
        hamiltonian_b=H_b)


def _sweep_setup(ctx: Context, api) -> tuple[list, tuple]:
    m, n = 2, 2
    dom = JetChart(m, n).sample_domain(count=12, seed=ctx.derive(3))
    pairs = []
    for k, kind in enumerate(SWEEP_KINDS):
        rng = _rng(ctx, 4, k)
        inp = (inputs.gravitational_input(m, n, rng) if kind == "gravitational"
               else inputs.electrodynamic_input(m, n, rng))
        pairs.append(_sweep_pair(api, kind, inp, dom))
    # one more pair: the first pair's target connection with one N2 entry
    # shifted, which the connection law must catch and name
    rng = _rng(ctx, 5)
    a, i, j = (int(v) for v in rng.integers(0, (m, n, n)))
    N_a, N_b = pairs[0].connection
    n2 = [[list(row) for row in sheet] for sheet in N_b.n2]
    n2[a][i][j] = add(n2[a][i][j], Const(float(rng.uniform(0.05, 0.5))))
    faulty = (N_a, NonlinearConnection(m, n, N_b.n1, n2))
    return pairs, (faulty, f"N2[{a + 1},{i + 1},{j + 1}]")


def _sweep_checks(api, pair: SweepPair, dom):
    """(label, call) for the full verify battery of one pair."""
    tm = pair.tm
    ta, tb = pair.dtensors
    checks = [(f"dtensor:{key}",
               lambda key=key: api.verify_dtensor_law(ta[key], tb[key], tm,
                                                      dom=dom, tol=LAW_TOL))
              for key in ("C*", "L", "J")]
    for label, (sa, sb) in (("temporal", pair.temporal), ("spatial", pair.spatial)):
        checks.append((f"semispray:{label}",
                       lambda sa=sa, sb=sb: api.verify_semispray_law(
                           sa, sb, tm, dom=dom, tol=LAW_TOL)))
    N_a, N_b = pair.connection
    checks.append(("connection", lambda: api.verify_connection_law(
        N_a, N_b, tm, dom=dom, tol=LAW_TOL)))
    checks.append(("coframe", lambda: api.verify_adapted_coframe(
        N_a, N_b, tm, dom=dom, tol=LAW_TOL)))
    return checks


def law_sweep_2x2(ctx: Context) -> Result:
    result = Result()
    ledger = result.ledger
    tracer = Tracer("law_sweep_2x2") if ctx.trace else None
    import_s, import_nominal = import_floor(ctx, "polyjet")
    api = layer_api(tracer)
    (pairs, (faulty, fault_entry)), build_s, build_nominal = timed_setup(
        ctx.clock, "build", lambda: _sweep_setup(ctx, api),
        1 if ctx.trace else ctx.sizes.setup_repeats)
    apis = {None: layer_api(None), "traced": api}
    chart = JetChart(2, 2)
    verify = {"points": 0, "s": 0.0}

    def one_round(index: int, mode):
        call = apis[mode]
        dom = chart.sample_domain(count=ctx.sizes.sweep_points,
                                  seed=ctx.derive(6, index))
        jobs = [(f"{pair.kind} {label}", fn, None)
                for pair in pairs for label, fn in _sweep_checks(call, pair, dom)]
        jobs.append(("faulty connection",
                     lambda: call.verify_connection_law(
                         *faulty, pairs[0].tm, dom=dom, tol=LAW_TOL),
                     fault_entry))
        for label, fn, expect in jobs:
            rep = ctx.clock.time(label, ledger.run, f"round {index} {label}", fn)
            verify["s"] += ctx.clock.last
            if rep is None:
                continue
            verify["points"] += rep.samples
            if expect is None:
                ledger.record(rep.passed, f"round {index} {label}",
                              f"residual {rep.max_residual:.3e}")
            else:
                ledger.record(not rep.passed and rep.worst_entry == expect,
                              f"round {index} {label}",
                              f"worst entry {rep.worst_entry}, expected {expect}")

    rounds = timed_rounds(ctx, one_round)
    record_setup(result, import_s + build_s, import_nominal + build_nominal)
    summarize_rounds(ctx, result, rounds)
    result.metrics.update({
        "law_points_per_s": (verify["points"] / verify["s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    })
    result.notes.append(f"rounds of {len(pairs)} pairs x 7 checks + 1 faulty "
                        f"pair at {ctx.sizes.sweep_points} points")
    if ctx.trace:
        result.layer_times = self_times(tracer.spans)
        dom = chart.sample_domain(count=ctx.sizes.sweep_points, seed=ctx.derive(6, 0))
        result.probe.update({
            "groups": [(connection_entries(N), dom.points())
                       for pair in pairs for N in pair.connection],
            "hamiltonians": [(pair.hamiltonian_b, chart.names) for pair in pairs],
            "strings": [s for pair in pairs for s in input_strings(pair.inp, chart)],
            "forms": {FORMS[0]: [N for pair in pairs for N in pair.connection]},
        })
    return result


# ---------------------------------------------------------------------------
# pullback_build_2x3

def _build_input(ctx: Context, k: int):
    m, n = ctx.sizes.build_dims
    return inputs.electrodynamic_input(m, n, _rng(ctx, 7, k), ctx.sizes.build_shears)


def _build_job(ctx: Context, api, ledger: Ledger, index: int, inp) -> dict:
    """Pullbacks, both Hamilton spaces and all three connection forms in
    both charts, then the agreement and connection-law checks."""
    tm = inp.tm
    m, n = tm.m, tm.n
    chart = JetChart(m, n)
    dom = chart.sample_domain(count=1, seed=ctx.derive(8, index))
    out = {"build_s": 0.0, "verify_s": 0.0, "points": 0, "forms": None}

    def build():
        # each step is timed on its own, so the clock can re-measure its
        # reference between steps of this long job
        step = ctx.clock.time
        space_a = step("space A", api.general_electrodynamic_space, inp.h, inp.g,
                       inp.potential, inp.free_term)
        h_b = step("pullback h", api.pullback_metric, inp.h, tm)
        g_b = step("pullback g", api.pullback_metric, inp.g, tm)
        H_b = step("pullback H", api.pullback_scalar, space_a.hamiltonian, tm)
        space_b = step("space B", api.HamiltonSpace, h_b, n, H_b,
                       dom=chart.sample_domain(count=12, seed=ctx.derive(9, index)))
        forms = tuple(tuple(step(f"{form} {side}", getattr(api, form), space)
                            for form in FORMS)
                      for side, space in (("A", space_a), ("B", space_b)))
        return g_b, space_b, forms

    before = ctx.clock.elapsed
    built = ledger.run(f"build {index}", build)
    out["build_s"] = ctx.clock.elapsed - before
    if built is None:
        return out
    ledger.record(True, f"build {index}")
    g_b, space_b, forms = built
    out["forms"], out["hamiltonian_b"] = forms, space_b.hamiltonian
    point_a = dom.points()[0]
    point_b = chart.assignment(tm.map_point(chart.point(point_a)))
    for side, point, trio in (("A", point_a, forms[0]), ("B", point_b, forms[1])):
        values = ctx.clock.time(f"agree {side}", lambda: [
            (N.n1_at(point), N.n2_at(point)) for N in trio])
        gap = max(float(np.abs(v[k] - values[0][k]).max())
                  for v in values[1:] for k in (0, 1))
        ledger.record(gap <= EQUIV_TOL, f"build {index} forms agree in chart {side}",
                      f"gap {gap:.3e}")
    gap = ctx.clock.time("extracted g", lambda: float(
        np.abs(g_b.at(point_b) - space_b.g.at(point_b)).max()))
    ledger.record(gap <= EQUIV_TOL, f"build {index} extracted g is the pulled-back g",
                  f"gap {gap:.3e}")
    rep = ctx.clock.time("connection law", ledger.run, f"build {index} connection law",
                         lambda: api.verify_connection_law(
                             forms[0][0], forms[1][0], tm, dom=dom, tol=LAW_TOL))
    out["verify_s"] = ctx.clock.last
    if rep is not None:
        out["points"] = rep.samples
        ledger.record(rep.passed, f"build {index} connection law",
                      f"residual {rep.max_residual:.3e}")
    return out


def pullback_build_2x3(ctx: Context) -> Result:
    result = Result()
    ledger = result.ledger
    tracer = Tracer("pullback_build_2x3") if ctx.trace else None
    import_s, import_nominal = import_floor(ctx, "polyjet")
    first, gen_s, gen_nominal = timed_setup(
        ctx.clock, "inputs", lambda: _build_input(ctx, 0), ctx.sizes.setup_repeats)
    apis = {None: layer_api(None), "traced": layer_api(tracer)}
    jobs, kept = [], {}

    def one_build(index: int, mode):
        inp = first if index == 0 else _build_input(ctx, index)
        job = _build_job(ctx, apis[mode], ledger, index, inp)
        # later builds must not pay for memory held from earlier ones
        forms, hamiltonian_b = job.pop("forms"), job.pop("hamiltonian_b", None)
        if index == 0 and ctx.trace and forms is not None:
            kept.update(forms=forms, hamiltonian_b=hamiltonian_b)
        jobs.append(job)

    rounds = timed_rounds(ctx, one_build)
    verify_s = sum(j["verify_s"] for j in jobs)
    record_setup(result, import_s + gen_s, import_nominal + gen_nominal)
    summarize_rounds(ctx, result, rounds)
    result.metrics.update({
        "build_s": (median([j["build_s"] for j in jobs]), "s"),
        "law_points_per_s": (sum(j["points"] for j in jobs) / verify_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    })
    m, n = ctx.sizes.build_dims
    result.notes.append(f"{len(jobs)} builds at (m, n) = ({m}, {n}) with "
                        f"{ctx.sizes.build_shears} shears")
    if ctx.trace and kept:
        chart = JetChart(m, n)
        result.layer_times = self_times(tracer.spans)
        forms = kept["forms"]
        point = chart.sample_domain(count=1, seed=ctx.derive(8, 0)).points()
        result.probe.update({
            "groups": [(connection_entries(N), point) for trio in forms for N in trio],
            "hamiltonians": [(kept["hamiltonian_b"], chart.names)],
            "strings": input_strings(first, chart),
            "forms": {form: [trio[k] for trio in forms]
                      for k, form in enumerate(FORMS)},
        })
    return result

