"""The benchmark's workloads: inputs made from a seed, the operations of one
pass, and the acceptance-battery thresholds every operation is checked against.

Each ``setup_<workload>(seed, root, scratch)`` builds the workload's spaces,
forms and measures, runs one untimed warm operation (which fills rcdlab's lazy
caches ``_MARGINAL_CACHE`` and ``_SPECTRAL``) and returns the pass as a list of
``(name, operation)``. An operation raises on failure; ``run_ops`` counts a
failure and goes on with the next operation. Layer functions are always
reached through module attributes (``R.w2``, ``cli.run``) so that the tracer's
patched bindings are the ones called.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import shutil

import numpy as np

import rcdlab as R
from rcdlab import cli, dirichlet, evi, geodesy, heat, measures
from rcdlab.measures import ProbMeasure
from rcdlab.mmspace import FiniteMMSpace


class CheckFailed(Exception):
    """An operation returned, but its result misses an acceptance threshold."""


# what counts as a failed operation: the package's typed errors and a missed check
FAILURES = (
    R.SolverError,  # InfeasibleError is a subclass
    dirichlet.FormError,
    geodesy.GeodesyError,
    heat.HeatError,
    evi.EviError,
    measures.MeasureError,
    CheckFailed,
)


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def run_op(name, op, tally, tracer=None):
    """Run one operation; a failure is counted, not raised."""
    tally.attempted += 1
    try:
        if tracer is None:
            op()
        else:
            with tracer.root(name):
                op()
    except FAILURES as err:
        tally.failed += 1
        tally.errors.append(f"{name}: {type(err).__name__}: {err}")


def run_ops(ops, tally, tracer=None):
    """Run one pass; a failed operation is counted and the pass goes on."""
    for name, op in ops:
        run_op(name, op, tally, tracer)


# -- golden: the user's entry point -------------------------------------------

def _read_tree(path):
    return {f.name: f.read_bytes() for f in sorted(pathlib.Path(path).iterdir())}


def setup_golden(seed, root, scratch):
    """``cli.run(configs/cycle64_rcd.json)`` into fresh directories; every run
    must exit 0 with artifacts byte-identical to the warm run's (criterion 14).
    The inputs are the committed config, so the seed changes nothing here."""
    with open(os.path.join(root, "configs", "cycle64_rcd.json")) as fh:
        config = json.load(fh)
    runs = itertools.count()

    def run_once():
        out = os.path.join(scratch, f"golden-{next(runs)}")
        try:
            code = cli.run(dict(config, output_dir=out), base_dir=root)
            check(code == 0, f"cli.run exit code {code}")
            return _read_tree(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    reference = run_once()

    def op():
        check(run_once() == reference, "artifacts differ from the first run's bytes")

    return [("cli.run cycle64_rcd", op)]


# -- geodesic: the convex engines ------------------------------------------------

GEODESIC_TOL = 5e-3
BATTERY_SIZE = 20
BATTERY_TOL = 2e-4


def three_point_battery(rng):
    """Criterion 4's generator: random 3-point spaces (every distance in
    [0.5, 1], so the triangle inequality holds) with interior endpoint
    measures, at t = 1/2 and t = 0.3 alternately."""
    battery = []
    for k in range(BATTERY_SIZE):
        base = rng.uniform(0.3, 1.0, size=3)
        d01, d02, d12 = rng.uniform(0.5, 1.0, size=3)
        d02 = min(d02, d01 + d12 - 1e-3)
        metric = np.array([[0, d01, d02], [d01, 0, d12], [d02, d12, 0]], dtype=float)
        space = FiniteMMSpace((0, 1, 2), metric, base / base.sum())
        w0 = rng.dirichlet(np.ones(3) * 4) * 0.8 + 0.2 / 3
        w1 = rng.dirichlet(np.ones(3) * 4) * 0.8 + 0.2 / 3
        battery.append((ProbMeasure(space, w0 / w0.sum()), ProbMeasure(space, w1 / w1.sum()), 0.5 if k % 2 == 0 else 0.3))
    return battery


def _geodesic_op(mu0, mu1):
    trace = R.build_good_geodesic(mu0, mu1, 4, epsilon="auto", K=0.0, tol=GEODESIC_TOL)
    # criterion 3 bounds cd_worst only on segment:33, whose build is too slow for the run budget
    R.cd_convexity_check(trace, 0.0)
    gap = max(c.gap for c in trace.certificates if c is not None)
    check(gap <= GEODESIC_TOL, f"certificate gap {gap:.3e} above {GEODESIC_TOL}")
    t0 = trace.meta["t0"]
    sup = max(d for t, d in zip(trace.times, trace.sup_density) if t <= t0)
    check(sup <= trace.meta["density_bound"], f"sup density {sup:.4g} above bound {trace.meta['density_bound']:.4g}")


def _dirac_op(mu0, mu1):
    trace = R.build_good_geodesic(mu0, mu1, 3, epsilon=0.0)
    W = R.w2_distance(mu0, mu1)
    off = max(abs(w - t * W) for t, w in zip(trace.times, trace.w2_from_start))
    check(off <= 1e-8, f"W2 from start off the geodesic by {off:.3e}")
    worst = R.cd_convexity_check(trace, 0.0)["worst"]
    check(worst <= 1e-10, f"cd_worst {worst:.3e} above 1e-10")


def _battery_op(mu0, mu1, t):
    W = R.w2_distance(mu0, mu1)
    eps = max(R.epsilon_min(mu0, mu1, t), 0.0) + 0.05 * W
    _, cert = R.intermediate_entropy_min(mu0, mu1, t, eps, tol=BATTERY_TOL)
    check(cert.gap <= BATTERY_TOL, f"certificate gap {cert.gap:.3e} above {BATTERY_TOL}")


def setup_geodesic(seed, root, scratch):
    """Criterion 3's good geodesic on segment:17, the exact
    Dirac geodesic on segment:9 (every midpoint takes the Dirac-pair path), then
    criterion 4's three-point battery (without its grid-search oracle)."""
    n = 17
    space = R.make_model_space("segment", n)
    mu0 = R.gaussian_measure(space, 8.0)
    mu1 = R.bump_measure(space, int(0.8 * (n - 1)), 0.13)
    ops = [(f"build_good_geodesic segment:{n}", functools.partial(_geodesic_op, mu0, mu1))]
    R.w2(mu0, mu1)  # warm
    space = R.make_model_space("segment", 9)
    ops.append(("build_good_geodesic dirac segment:9", functools.partial(_dirac_op, R.dirac(space, 0), R.dirac(space, 8))))
    for k, (mu0, mu1, t) in enumerate(three_point_battery(np.random.default_rng(seed))):
        ops.append((f"three-point battery #{k}", functools.partial(_battery_op, mu0, mu1, t)))
    return ops


# -- random_ot_forms: unstructured transport, kernels, flows, Dirichlet forms ---

OT_SIZES = (32, 64, 128)
OT_SPACES = 12
OT_PAIRS = 2
OT_FLOW_SPACES = 3
OT_GAP_TOL = 1e-9
SLACKNESS_TOL = 1e-8
KERNEL_SYMMETRY_TOL = 1e-10
CHAPMAN_TOL = 1e-9
MONOTONE_TOL = 1e-9
INTRINSIC_TOL = 1e-6


def _ot_op(space, mu, nu):
    val, plan = R.w2(mu, nu)
    pair = R.kantorovich_potentials(mu, nu)
    gap = abs(pair.gap) / max(1.0, 0.5 * val * val)
    check(gap <= OT_GAP_TOL, f"relative duality gap {gap:.3e} above {OT_GAP_TOL}")
    resid = R.check_slackness(space, pair, plan)["support_residual"]
    check(resid <= SLACKNESS_TOL, f"slackness residual {resid:.3e} above {SLACKNESS_TOL}")


def _kernel_op(form):
    k1, k2, k3 = (R.heat_kernel(form, t).matrix for t in (0.1, 0.2, 0.3))
    sym = float(np.abs(k3 - k3.T).max())
    check(sym <= KERNEL_SYMMETRY_TOL, f"kernel symmetry {sym:.3e} above {KERNEL_SYMMETRY_TOL}")
    chapman = float(np.abs(k1 @ np.diag(form.vertex_measure) @ k1 - k2).max())
    check(chapman <= CHAPMAN_TOL, f"Chapman-Kolmogorov {chapman:.3e} above {CHAPMAN_TOL}")


def _flow_op(form, mu0):
    flows = (
        R.semigroup_flow(form, mu0.density(), [0.0, 0.05, 0.1]),
        R.jko_flow(mu0, 0.01, 3, inner_tol=1e-6, form=form),
    )
    for flow in flows:
        ent = flow.entropies
        check(all(a >= b - MONOTONE_TOL for a, b in zip(ent, ent[1:])), f"{flow.flavor} entropy not nonincreasing")


def _intrinsic_op(space, form):
    d = R.intrinsic_metric(form, rel_tol=INTRINSIC_TOL, eta0_value=2.0)
    gap = float((np.abs(d - space.metric) / (1.0 + space.metric)).max())
    check(gap <= INTRINSIC_TOL, f"intrinsic metric gap {gap:.3e} above {INTRINSIC_TOL}")


def setup_random_ot_forms(seed, root, scratch):
    """Criterion 1's duality on Dirichlet-random pairs over seeded random_metric
    spaces (n cycling over OT_SIZES), criterion 6's kernel laws, one semigroup
    and one JKO flow on each of the first spaces, and criterion 10's intrinsic
    metric."""
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(OT_SPACES):
        n = OT_SIZES[k % len(OT_SIZES)]
        space = R.make_model_space("random_metric", n, {"seed": int(rng.integers(2**31))})
        form = R.dirichlet_form(space)
        pairs = [tuple(ProbMeasure(space, rng.dirichlet(np.ones(n))) for _ in range(2)) for _ in range(OT_PAIRS)]
        label = f"random_metric:{n}#{k}"
        ops += [(f"ot {label}", functools.partial(_ot_op, space, mu, nu)) for mu, nu in pairs]
        ops.append((f"heat_kernel {label}", functools.partial(_kernel_op, form)))
        if k < OT_FLOW_SPACES:
            ops.append((f"flows {label}", functools.partial(_flow_op, form, pairs[0][0])))
        # warm: the transport matrix for this size and the spectral cache of this form
        R.w2(*pairs[0])
        R.heat_kernel(form, 0.1)
    space, form = R.calibrated_segment(16, rel_tol=1e-7)
    ops.append(("intrinsic_metric calibrated_segment:16", functools.partial(_intrinsic_op, space, form)))
    return ops


WORKLOADS = {
    "golden": setup_golden,
    "geodesic": setup_geodesic,
    "random_ot_forms": setup_random_ot_forms,
}

# Spans the traced run must see called at least once on each workload; a
# rename or a re-routed call then fails loudly instead of reading as zero.
PREDICTED = {
    "golden": (
        "cli.run", "cli.dumps_canonical", "cli.write_atomic", "evi.rcd_verify",
        "heat.semigroup_flow", "heat.semigroup_apply", "heat.jko_flow", "solvers.prox_entropy_step",
        "ot.w2", "ot.kantorovich_potentials", "solvers.exact_ot", "solvers.linprog",
        "dirichlet.dirichlet_form", "mmspace.make_model_space", "mmspace.validate_space",
    ),
    "geodesic": (
        "geodesy.build_good_geodesic", "geodesy.intermediate_entropy_min", "geodesy.epsilon_min",
        "geodesy.cd_convexity_check", "solvers.interior_point", "solvers.epsilon_min",
        "solvers._budgeted_oracle", "solvers.entropy_capacity_min", "solvers.entropy_budget_min",
        "solvers._hull_minimize", "solvers.dirac_pair_min", "solvers.exact_ot", "solvers.linprog", "mmspace.make_model_space",
    ),
    "random_ot_forms": (
        "ot.w2", "ot.kantorovich_potentials", "ot.check_slackness", "solvers.exact_ot", "solvers.linprog",
        "heat.heat_kernel", "heat.semigroup_apply", "heat.semigroup_flow", "heat.jko_flow",
        "solvers.prox_entropy_step", "dirichlet.dirichlet_form", "dirichlet.intrinsic_metric",
        "mmspace.make_model_space",
    ),
}
