"""Acceptance battery: one test per committed criterion.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
Tolerances are fixed here, not configurable.
"""

import json
from fractions import Fraction

import numpy as np

import rcdlab as R
from rcdlab import cli
from rcdlab.dirichlet import calibrated_segment, dirichlet_form, intrinsic_metric
from rcdlab.geodesy import cd_residual, synthetic_entropy_profile
from rcdlab.measures import ProbMeasure


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1. OT duality and the W2 triangle inequality ---------------------------

def test_criterion_01_ot_duality_and_triangle():
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for seed in range(50):
        s = R.make_model_space("random_metric", 30, {"seed": seed})
        mu = ProbMeasure(s, rng.dirichlet(np.ones(30)))
        nu = ProbMeasure(s, rng.dirichlet(np.ones(30)))
        val, _ = R.w2(mu, nu)
        pair = R.kantorovich_potentials(mu, nu)
        primal = 0.5 * val * val
        worst_gap = max(worst_gap, abs(pair.gap) / max(1.0, primal))
    s = R.make_model_space("random_metric", 30, {"seed": 99})
    worst_tri = -np.inf
    for _ in range(200):
        a, b, c = (ProbMeasure(s, rng.dirichlet(np.ones(30))) for _ in range(3))
        worst_tri = max(worst_tri, R.w2(a, c)[0] - R.w2(a, b)[0] - R.w2(b, c)[0])
    ok = worst_gap <= 1e-9 and worst_tri <= 1e-8
    _report("criterion 1 (OT duality + triangle)", ok,
            f"max rel gap {worst_gap:.2e}, max triangle residual {worst_tri:.2e}")


# -- 2. interpolation-convexity composition algebra, exact rationals --------

def test_criterion_02_composition_algebra_exact():
    K = Fraction(-7, 3)
    W = Fraction(5, 4)
    E0, E1 = Fraction(1, 2), Fraction(9, 7)
    times = [Fraction(k, 64) for k in range(65)]

    def ent(t):
        return synthetic_entropy_profile(t, E0, E1, K, W)

    worst = Fraction(0)
    for i in range(1, 64):
        s, t, r = times[i - 1], times[i], times[i + 1]
        worst = max(worst, abs(cd_residual(s, t, r, ent(s), ent(t), ent(r), ((r - s) * W) ** 2, K)))
        worst = max(worst, abs(cd_residual(Fraction(0), t, Fraction(1), E0, ent(t), E1, W * W, K)))
    _report("criterion 2 (composition algebra, depth 6)", worst == 0, f"residual {worst} exactly")


# -- 3. good geodesics: convexity residuals and the density bound -----------

def test_criterion_03_good_geodesics():
    worsts = {}
    density_ok = {}
    for n in (17, 33, 65):
        s = R.make_model_space("segment", n)
        mu0 = R.gaussian_measure(s, 8.0)
        mu1 = R.bump_measure(s, int(0.8 * (n - 1)), 0.13)
        tr = R.build_good_geodesic(mu0, mu1, 4, epsilon="auto", K=0.0, tol=5e-3)
        rep = R.cd_convexity_check(tr, 0.0)
        worsts[n] = rep["worst"]
        t0 = tr.meta["t0"]
        sup = max(d for t, d in zip(tr.times, tr.sup_density) if t <= t0)
        density_ok[n] = (sup, tr.meta["density_bound"])
    viol = [max(worsts[n], 0.0) for n in (17, 33, 65)]
    ok_a = worsts[33] <= 1e-3 and viol[0] >= viol[1] >= viol[2]
    ok_b = all(sup <= bound for sup, bound in density_ok.values())
    _report("criterion 3 (good geodesics)", ok_a and ok_b,
            f"worst residuals {worsts}, sup-density/bound {density_ok}")


# -- 4. entropy-minimizer oracle battery on 3-point spaces -------------------

def _three_point_instance(rng, t):
    """(metric, m, mu0, mu1, t): every distance in [0.5, 1], so the triangle
    inequality holds, and interior endpoint measures."""
    base = rng.uniform(0.3, 1.0, size=3)
    d01, d02, d12 = rng.uniform(0.5, 1.0, size=3)
    d02 = min(d02, d01 + d12 - 1e-3)
    metric = np.array([[0, d01, d02], [d01, 0, d12], [d02, d12, 0]], dtype=float)
    m = base / base.sum()
    mu0 = rng.dirichlet(np.ones(3) * 4) * 0.8 + 0.2 / 3
    mu1 = rng.dirichlet(np.ones(3) * 4) * 0.8 + 0.2 / 3
    return metric, m, mu0 / mu0.sum(), mu1 / mu1.sum(), t


def _three_point_battery():
    rng = np.random.default_rng(202)
    return [_three_point_instance(rng, 0.5 if k % 2 == 0 else 0.3) for k in range(20)]


def test_criterion_04_entropy_minimizer_vs_grid_search():
    from rcdlab.mmspace import FiniteMMSpace

    worst = 0.0
    for metric, m, w0, w1, t in _three_point_battery():
        space = FiniteMMSpace((0, 1, 2), metric, m)
        mu0 = ProbMeasure(space, w0)
        mu1 = ProbMeasure(space, w1)
        W = R.w2_distance(mu0, mu1)
        eps = max(R.epsilon_min(mu0, mu1, t), 0.0) + 0.05 * W
        nu, cert = R.intermediate_entropy_min(mu0, mu1, t, eps, tol=2e-4)
        # oracle: 1e-3-resolution simplex grid with exact dual-vertex W2
        A, B = (t * W + eps) ** 2, ((1 - t) * W + eps) ** 2
        grid_best = _grid_search_min(metric, m, w0, w1, A, B)
        worst = max(worst, abs(cert.entropy - grid_best))
    _report("criterion 4 (3-point grid-search oracle)", worst <= 2e-3, f"max entropy gap {worst:.2e}")


def _dual_vertices(C):
    """Vertices of {(u, v): u_i + v_j <= C_ij, u_0 = 0}; exact tiny-LP dual."""
    import itertools

    cells = [(i, j) for i in range(3) for j in range(3)]
    verts = []
    for chosen in itertools.combinations(cells, 5):
        A = np.zeros((6, 6))
        b = np.zeros(6)
        A[0, 0] = 1.0
        for r, (i, j) in enumerate(chosen, start=1):
            A[r, i] = 1.0
            A[r, 3 + j] = 1.0
            b[r] = C[i, j]
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        u, v = sol[:3], sol[3:]
        if (u[:, None] + v[None, :] - C).max() <= 1e-10:
            verts.append((u, v))
    return verts


def _grid_search_min(metric, m, w0, w1, A, B, step=1e-3):
    C = metric**2
    verts0 = _dual_vertices(C)
    u0 = np.array([u for u, _ in verts0])
    v0 = np.array([v for _, v in verts0])
    best = np.inf
    ks = np.arange(0, 1.0 + step / 2, step)
    for a in ks:
        bmax = 1.0 - a
        bs = np.arange(0, bmax + step / 2, step)
        nus = np.stack([np.full_like(bs, a), bs, 1.0 - a - bs], axis=1)
        # W2^2(mu, nu) = max over dual vertices of <u, mu> + <v, nu>
        c0 = (u0 @ w0)[None, :] + nus @ v0.T
        c1 = (u0 @ w1)[None, :] + nus @ v0.T
        w2sq0 = c0.max(axis=1)
        w2sq1 = c1.max(axis=1)
        feas = (w2sq0 <= A + 1e-12) & (w2sq1 <= B + 1e-12)
        if feas.any():
            nn = nus[feas]
            ent = np.where(nn > 0, nn * np.log(np.maximum(nn / m[None, :], 1e-300)), 0.0).sum(axis=1)
            best = min(best, float(ent.min()))
    return best


# -- 5. heat identification -------------------------------------------------

def test_criterion_05_heat_identification():
    s = R.make_model_space("cycle", 64)
    form = dirichlet_form(s)
    pos = np.array(s.meta["positions"])
    f0 = 1 + 0.9 * np.cos(2 * np.pi * pos)
    f0 = f0 / (f0 * form.vertex_measure).sum()
    rep = R.identification_check(form, f0, t_grid=[0.1], tau_grid=[4e-3, 2e-3, 1e-3], t_diss=0.1)
    ok = rep["fitted_order"] >= 0.8 and rep["dissipation_residual_rel"] <= 1e-3
    _report("criterion 5 (heat identification)", ok,
            f"order {rep['fitted_order']:.3f}, dissipation rel {rep['dissipation_residual_rel']:.2e}")


# -- 6. kernel laws ----------------------------------------------------------

def test_criterion_06_kernel_laws():
    worst_sym = 0.0
    worst_chap = 0.0
    rng = np.random.default_rng(301)
    for seed in range(10):
        n = int(rng.integers(12, 65))
        s = R.make_model_space("random_metric", n, {"seed": 1000 + seed})
        form = dirichlet_form(s)
        k = R.heat_kernel(form, 0.3)
        worst_sym = max(worst_sym, float(np.abs(k.matrix - k.matrix.T).max()))
        m = form.vertex_measure
        ka = R.heat_kernel(form, 0.1).matrix
        kb = R.heat_kernel(form, 0.2).matrix
        worst_chap = max(worst_chap, float(np.abs(ka @ np.diag(m) @ ka - kb).max()))
    ok = worst_sym <= 1e-10 and worst_chap <= 1e-9
    _report("criterion 6 (kernel laws)", ok, f"symmetry {worst_sym:.2e}, chapman {worst_chap:.2e}")


# -- 7. gradient-commutation estimate on cycles ------------------------------

def test_criterion_07_bakry_emery_cycles():
    rng = np.random.default_rng(302)
    worst = -np.inf
    for n in (16, 64):
        s = R.make_model_space("cycle", n)
        form = dirichlet_form(s)
        f = rng.normal(size=n)
        rep = R.bakry_emery_check(form, f, [0.01, 0.1, 1.0], K=0.0)
        worst = max(worst, rep["worst_residual"])
    _report("criterion 7 (gradient commutation, K=0)", worst <= 1e-8, f"worst residual {worst:.2e}")


# -- 8. EVI on cycle semigroup flows -----------------------------------------

def test_criterion_08_evi_refinement():
    worsts = []
    for n in (16, 32, 64):
        s = R.make_model_space("cycle", n)
        form = dirichlet_form(s)
        pos = np.array(s.meta["positions"])
        f0 = 1 + 0.8 * np.cos(2 * np.pi * pos)
        grid = np.linspace(0.0, 0.08, 9).tolist()
        flow = R.semigroup_flow(form, f0, grid)
        sigma = R.bump_measure(s, int(0.2 * n), 0.1)
        rep = R.evi_check(flow, sigma, K=0.0)
        worsts.append(rep.worst)
    from rcdlab.evi import fit_trend

    slope = fit_trend([16, 32, 64], [max(w, 1e-16) for w in worsts])
    tol_n = {16: 0.2, 32: 0.1, 64: 0.05}
    within = all(w <= tol_n[n] for n, w in zip((16, 32, 64), worsts))
    # the inequality verifies at every resolution: either the violation decays
    # or there is none at all (cycles satisfy the discrete estimate outright)
    ok = within and (slope < 0 or max(worsts) <= 0)
    _report("criterion 8 (EVI_0 refinement)", ok, f"worsts {worsts}, trend slope {slope:.2f}")


# -- 9. transport derivative and entropy inequality ---------------------------

def test_criterion_09_dw2_and_entropy_inequality():
    # two-point closed-form agreement
    tp = R.make_model_space("two_point", 2)
    form_tp = dirichlet_form(tp, rule="unit")
    p0, q, dt = 0.9, 0.2, 1e-4
    flow = R.semigroup_flow(form_tp, np.array([2 * p0, 2 * (1 - p0)]), [0.1 - dt, 0.1, 0.1 + dt])
    sigma = ProbMeasure(tp, np.array([q, 1 - q]))
    rep = R.dw2_derivative_check(flow, sigma, form_tp)
    p_t = 0.5 + (p0 - 0.5) * np.exp(-0.4)
    f = np.array([2 * p_t, 2 * (1 - p_t)])
    oracle = abs(0.5 * (-4 * (p_t - 0.5)) - (-min(f) * 0.5 * (np.log(f[0]) - np.log(f[1]))))
    ok_two_point = abs(rep.residuals[0] - oracle) <= 1e-4

    # segment-family refinement trend of the derivative residual
    worsts = []
    ent_resid = []
    for n in (16, 32, 64):
        s = R.make_model_space("segment", n)
        form = dirichlet_form(s)
        mu0 = R.gaussian_measure(s, 6.0)
        sigma = R.bump_measure(s, int(0.75 * (n - 1)), 0.15)
        grid = np.linspace(0.004, 0.03, 6).tolist()
        fl = R.semigroup_flow(form, mu0.density(), grid)
        worsts.append(R.dw2_derivative_check(fl, sigma, form).worst)
        ent_resid.append(R.entropy_inequality_check(mu0, sigma, 0.0, form).worst)
    tol_n = {16: 0.05, 32: 0.03, 64: 0.02}
    ok_trend = worsts[2] < worsts[0]
    ok_ent = all(rv <= tol_n[n] for n, rv in zip((16, 32, 64), ent_resid))
    ok = ok_two_point and ok_trend and ok_ent
    _report("criterion 9 (dW2/dt + entropy inequality)", ok,
            f"two-point gap vs oracle ok={ok_two_point}, dw2 worsts {worsts}, entropy-ineq residuals {ent_resid}")


# -- 10. intrinsic metric on the calibrated segment ---------------------------

def test_criterion_10_intrinsic_metric():
    space, form = calibrated_segment(16, rel_tol=1e-7)
    # re-solve from a different dual start so the comparison is not bit-circular
    d = intrinsic_metric(form, rel_tol=1e-6, eta0_value=2.0)
    gap = float((np.abs(d - space.metric) / (1.0 + space.metric)).max())
    _report("criterion 10 (intrinsic metric)", gap <= 1e-6, f"max relative gap {gap:.2e}")


# -- 11. tensorization --------------------------------------------------------

def test_criterion_11_tensorization():
    a = R.make_model_space("cycle", 8)
    fa = dirichlet_form(a)
    pa = np.array(a.meta["positions"])
    rep = R.tensorization_check(fa, fa, 1 + 0.5 * np.cos(2 * np.pi * pa), 1 + 0.3 * np.sin(2 * np.pi * pa), 0.2)
    # dirac pair additivity on the same product
    prod = R.product_space(a, a)
    ia = 1 * 8 + 2
    ib = 5 * 8 + 6
    wp = R.w2(R.dirac(prod, ia), R.dirac(prod, ib))[0] ** 2
    wa = a.metric[1, 5] ** 2 + a.metric[2, 6] ** 2
    ok = (rep["kernel_factorization_gap"] <= 1e-10
          and rep["w2sq_additivity_gap"] <= 1e-8
          and abs(wp - wa) <= 1e-8)
    _report("criterion 11 (tensorization)", ok,
            f"kernel {rep['kernel_factorization_gap']:.2e}, bump additivity {rep['w2sq_additivity_gap']:.2e}, dirac additivity {abs(wp - wa):.2e}")


# -- 12. log-Sobolev on the gaussian-measure segment ---------------------------

def test_criterion_12_log_sobolev():
    c = 8.0
    K_cont = 2 * c
    best = {}
    for n in (16, 32, 64):
        s = R.make_model_space("segment", n, {"measure": {"gaussian": c}})
        form = dirichlet_form(s)
        rep = R.log_sobolev_check(form, np.ones(n), K=K_cont, n_family=15, seed=2)
        best[n] = rep["best_K"]
    gaps = [abs(best[n] - K_cont) for n in (16, 32, 64)]
    ok = all(b >= 0.8 * K_cont for b in best.values()) and gaps[2] <= gaps[0]
    _report("criterion 12 (log-Sobolev)", ok, f"best K {best} vs continuum {K_cont}")


# -- 13. contraction -----------------------------------------------------------

def test_criterion_13_contraction():
    rng = np.random.default_rng(303)
    gaps = {}
    for n in (32, 64):
        s = R.make_model_space("cycle", n)
        form = dirichlet_form(s)
        mu = R.measure_from_density(s, np.exp(rng.normal(scale=0.6, size=n)))
        nu = R.measure_from_density(s, np.exp(rng.normal(scale=0.6, size=n)))
        rep = R.contraction_check(form, mu, nu, K=0.0, t_grid=[0.01, 0.05, 0.1])
        gaps[n] = rep["worst"]
    # positive part must not grow with n; on cycles the estimate holds outright
    ok = gaps[64] <= 1e-3 and max(gaps[64], 0.0) <= max(gaps[32], 0.0) + 1e-12
    _report("criterion 13 (contraction)", ok, f"worst gaps {gaps}")


# -- 14. determinism of the golden config --------------------------------------

def test_criterion_14_determinism(tmp_path):
    import pathlib

    cfg_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "cycle64_rcd.json"
    with open(cfg_path) as fh:
        config = json.load(fh)
    outs = []
    for run_dir in ("g1", "g2"):
        c = dict(config, output_dir=str(tmp_path / run_dir))
        assert cli.run(c, base_dir=str(cfg_path.parent.parent)) == 0
        outs.append(tmp_path / run_dir)
    identical = True
    for f in sorted(outs[0].iterdir()):
        if f.read_bytes() != (outs[1] / f.name).read_bytes():
            identical = False
    _report("criterion 14 (determinism)", identical, "artifacts byte-identical across runs")
