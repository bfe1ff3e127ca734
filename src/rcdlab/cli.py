"""Batch entry point: space construction, experiment orchestration, and
deterministic JSON/CSV artifact emission.

Artifacts are written atomically with a fixed 17-significant-digit float
format, so identical config + seed reproduce byte-identical files.

Exit codes:

    0  success
    1  an assert-mode check failed (the failure report path is printed)
    2  config error: unreadable or invalid config, space or measure, or a
       geodesic request that cannot be met (GeodesyError)
    3  solver failure: SolverError (InfeasibleError included), FormError,
       HeatError or EviError
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import evi, geodesy, heat, measures, mmspace, ot
from .dirichlet import (
    FormError,
    cheeger_energy,
    dirichlet_form,
    gamma,
    intrinsic_metric,
    laplacian,
    mod2,
)
from .solvers import SolverError

SCHEMA_VERSION = "1"


def schema_version() -> str:
    return SCHEMA_VERSION


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic JSON emission
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """JSON with fixed float formatting and preserved key order."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{dumps_canonical(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _config_hash(config) -> str:
    # output location must not change artifact content
    stripped = {k: v for k, v in config.items() if k != "output_dir"}
    return hashlib.sha256(dumps_canonical(stripped).encode()).hexdigest()[:16]


def _wrap_artifact(payload, config, tolerances=None, method=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": _config_hash(config),
        "method": method or {},
        "tolerances": tolerances or {},
        "result": payload,
    }


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

def _load_space_spec(spec, base_dir="."):
    if isinstance(spec, str):
        return mmspace.load_space(os.path.join(base_dir, spec))
    if "kind" in spec:
        params = dict(spec.get("params", {}))
        return mmspace.make_model_space(spec["kind"], _coerced(spec, "n", int), params)
    return mmspace.space_from_json(spec)


def _required(spec, key):
    """spec[key] of a task or measure spec; a missing key is a ConfigError."""
    if key not in spec:
        raise ConfigError(f"spec {spec!r} lacks required field {key!r}")
    return spec[key]


def _coerced(spec, key, kind, *default):
    """kind(spec[key]) of a task, measure or space spec. An absent or null
    field gives the default when one is passed and is a ConfigError when none
    is; a value kind cannot convert is a ConfigError."""
    if default and spec.get(key) is None:
        return default[0]
    try:
        return kind(_required(spec, key))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"field {key!r} of spec {spec!r}: {err}") from None


_floats = functools.partial(np.asarray, dtype=float)


def _load_measure(space, spec, base_dir="."):
    if isinstance(spec, str):
        with open(os.path.join(base_dir, spec)) as fh:
            spec = json.load(fh)
    if "weights" in spec:
        return measures.ProbMeasure(space, _coerced(spec, "weights", _floats), dict(spec.get("meta", {})))
    kind = spec.get("kind")
    if kind == "uniform":
        return measures.uniform_measure(space)
    if kind == "dirac":
        return measures.dirac(space, _coerced(spec, "at", int))
    if kind == "gaussian":
        return measures.gaussian_measure(space, _coerced(spec, "c2", float), _coerced(spec, "x0", int, None))
    if kind == "bump":
        return measures.bump_measure(space, _coerced(spec, "center", int), _coerced(spec, "radius", float))
    raise ConfigError(f"unknown measure spec {spec!r}")


def _series(report):
    """Flatten scalar diagnostics of a task result for the CSV."""
    out = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, (list, tuple)) and len(obj) <= 64:
            for i, v in enumerate(obj):
                if isinstance(v, (int, float, np.floating, np.integer)):
                    out.append((f"{prefix}[{i}]", float(v)))
        elif isinstance(obj, (int, float, np.floating, np.integer)) and not isinstance(obj, bool):
            out.append((prefix, float(obj)))

    walk("", report)
    return out


def run_task(task, space, base_dir, seed):
    """Execute one task spec; returns (payload dict, assert_failures list)."""
    op = _required(task, "op")
    failures = []
    if op == "validate":
        rep = mmspace.validate_space(space)
        payload = {"passed": rep.passed, "violations": [list(v[:2]) + [v[2]] for v in rep.violations]}
        if task.get("assert_pass", True) and not rep.passed:
            failures.append("validate: space invalid")
    elif op == "ot":
        mu = _load_measure(space, _required(task, "mu"), base_dir)
        nu = _load_measure(space, _required(task, "nu"), base_dir)
        val, plan = ot.w2(mu, nu)
        pair = ot.kantorovich_potentials(mu, nu, gauge=task.get("gauge"))
        sup = plan.support()
        payload = {
            "w2": val,
            "plan": [[int(i), int(j), float(plan.coupling[i, j])] for i, j in sup],
            "phi": pair.phi.tolist(),
            "psi": [None if not np.isfinite(v) else float(v) for v in pair.psi],
            "gap": pair.gap,
        }
        tol = _coerced(task, "gap_tol", float, 1e-9)
        if abs(pair.gap) > tol * max(1.0, 0.5 * val * val):
            failures.append(f"ot: duality gap {pair.gap}")
    elif op == "geodesic":
        mu0 = _load_measure(space, _required(task, "mu0"), base_dir)
        mu1 = _load_measure(space, _required(task, "mu1"), base_dir)
        eps = "auto" if task.get("epsilon", "auto") == "auto" else _coerced(task, "epsilon", float)
        K = _coerced(task, "K", float, 0.0)
        trace = geodesy.build_good_geodesic(
            mu0, mu1, _coerced(task, "depth", int, 3),
            epsilon=eps, K=K, tol=_coerced(task, "tol", float, 2e-3),
        )
        cd = geodesy.cd_convexity_check(trace, K)
        payload = {
            "times": list(trace.times),
            "measures": [mu.weights.tolist() for mu in trace.measures],
            "entropies": list(trace.entropies),
            "w2_from_start": list(trace.w2_from_start),
            "sup_density": list(trace.sup_density),
            "epsilon_used": trace.epsilon_used,
            "certificate_gaps": [c.gap if c else None for c in trace.certificates],
            "cd_worst": cd["worst"],
        }
        if "cd_tol" in task and cd["worst"] > _coerced(task, "cd_tol", float):
            failures.append(f"geodesic: cd residual {cd['worst']}")
    elif op == "form":
        form = dirichlet_form(space, task.get("rule", "metric_measure"))
        sub = task.get("sub", "energy")
        rng = np.random.default_rng(seed)
        f = _coerced(task, "f", _floats) if "f" in task else rng.normal(size=space.n)
        if sub == "energy":
            payload = {"cheeger": cheeger_energy(form, f)}
        elif sub == "gamma":
            g = _coerced(task, "g", _floats, f)
            payload = {"gamma": gamma(form, f, g).values.tolist()}
        elif sub == "laplacian":
            payload = {"laplacian": laplacian(form, f).tolist()}
        elif sub == "mod2":
            from .dirichlet import path_step_lengths
            paths = [(p, path_step_lengths(space, p)) for p in _required(task, "paths")]
            val, dens = mod2(paths, form.vertex_measure)
            payload = {"mod2": val, "density": dens.tolist()}
        elif sub == "intrinsic":
            d = intrinsic_metric(form, rel_tol=_coerced(task, "rel_tol", float, 1e-6))
            payload = {"intrinsic_metric": d.tolist()}
        else:
            raise ConfigError(f"unknown form sub-op {sub!r}")
    elif op == "flow":
        form = dirichlet_form(space, task.get("rule", "metric_measure"))
        f0 = _load_measure(space, _required(task, "f0"), base_dir)
        flavor = task.get("flavor", "semigroup")
        if flavor == "semigroup":
            grid = task.get("t_grid") or np.linspace(
                0, _coerced(task, "t", float, 0.1), _coerced(task, "steps", int, 20) + 1).tolist()
            trace = heat.semigroup_flow(form, f0.density(), grid)
        elif flavor == "jko":
            trace = heat.jko_flow(f0, _coerced(task, "tau", float), _coerced(task, "steps", int),
                                  inner_tol=_coerced(task, "inner_tol", float, 1e-6),
                                  blur=_coerced(task, "blur", float, 0.25), form=form)
        else:
            raise ConfigError(f"unknown flavor {flavor!r}")
        payload = {
            "flavor": trace.flavor,
            "times": list(trace.times),
            "entropies": list(trace.entropies),
            "fisher": [None if np.isnan(x) else float(x) for x in trace.fisher],
            "w2_speeds": list(trace.w2_speeds),
            "final": trace.measures[-1].weights.tolist(),
        }
        mono = all(a >= b - 1e-9 for a, b in zip(trace.entropies, trace.entropies[1:]))
        if task.get("assert_entropy_monotone", True) and not mono:
            failures.append("flow: entropy not nonincreasing")
    elif op == "verify":
        form = dirichlet_form(space, task.get("rule", "metric_measure"))
        rep = evi.rcd_verify(space, form, dict(task.get("config", {}), seed=seed))
        payload = {
            "verdict": rep["verdict"],
            "checks": {
                name: {"worst": r.worst, "residuals": list(r.residuals)}
                for name, r in rep["checks"].items()
            },
            "tolerances": rep["tolerances"],
        }
        if task.get("assert_verdict", True) and not rep["verdict"]:
            failures.append("verify: battery failed")
    else:
        raise ConfigError(f"unknown op {op!r}")
    return payload, failures


def run(config, base_dir=".") -> int:
    """Execute an experiment config; returns the process exit status."""
    try:
        tasks = config["tasks"]
        seed = _coerced(config, "seed", int, None)
        if seed is None and any(t.get("op") in ("verify", "form") and "f" not in t for t in tasks):
            raise ConfigError("seed is mandatory when any task uses randomness")
        out_dir = os.path.join(base_dir, config.get("output_dir", "artifacts"))
        space = _load_space_spec(config["space"], base_dir)
    except (KeyError, ConfigError, mmspace.SpaceError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    scalars = []
    any_failures = []

    try:
        for idx, task in enumerate(tasks):
            payload, failures = run_task(task, space, base_dir, seed if seed is None else seed + idx)
            name = task.get("name", f"task{idx:02d}_{task['op']}")
            artifact = _wrap_artifact(payload, config, tolerances=task.get("tolerances"), method={"op": task["op"]})
            write_atomic(os.path.join(out_dir, f"{name}.json"), dumps_canonical(artifact) + "\n")
            for key, val in _series(payload):
                scalars.append((name, key, val))
            any_failures.extend(f"{name}: {f}" for f in failures)
    except (SolverError, FormError, heat.HeatError, evi.EviError) as err:
        print(f"solver failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except (ConfigError, mmspace.SpaceError, measures.MeasureError, geodesy.GeodesyError) as err:
        print(f"config error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2

    csv_path = os.path.join(out_dir, "diagnostics.csv")
    lines = ["task,name,value"]
    for task_name, key, val in scalars:
        lines.append(f"{task_name},{key},{_fmt_float(val)}")
    write_atomic(csv_path, "\n".join(lines) + "\n")

    if any_failures:
        report_path = os.path.join(out_dir, "failures.json")
        write_atomic(report_path, dumps_canonical({"failures": any_failures}) + "\n")
        print(f"assert-mode failures; see {report_path}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--space", required=True, help="space JSON file or inline kind:n (e.g. cycle:64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="artifacts")


def _space_arg(arg):
    if ":" in arg and not os.path.exists(arg):
        kind, n = arg.split(":")
        return {"kind": kind, "n": int(n)}
    return arg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rcdlab")
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name in ("validate", "ot", "geodesic", "form", "flow", "verify"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "ot":
            p.add_argument("--mu", required=True)
            p.add_argument("--nu", required=True)
        if name == "geodesic":
            p.add_argument("--mu0", required=True)
            p.add_argument("--mu1", required=True)
            p.add_argument("--depth", type=int, default=3)
            p.add_argument("--epsilon", default="auto")
        if name == "form":
            p.add_argument("--form-op", default="energy", dest="form_op")
        if name == "flow":
            p.add_argument("--f0", required=True)
            p.add_argument("--flavor", default="semigroup")
            p.add_argument("--t", type=float, default=0.1)
            p.add_argument("--tau", type=float, default=1e-3)
            p.add_argument("--steps", type=int, default=20)
        if name == "verify":
            p.add_argument("--config", default=None)

    prun = sub.add_parser("run")
    prun.add_argument("config")
    prun.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.cmd == "run":
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except json.JSONDecodeError as err:
            print(f"config parse error at line {err.lineno} column {err.colno}: {err.msg}", file=sys.stderr)
            return 2
        except OSError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        if args.out:
            config["output_dir"] = args.out
        return run(config, base_dir=os.path.dirname(os.path.abspath(args.config)))

    task = {"op": args.cmd, "name": args.cmd}
    if args.cmd == "ot":
        task.update(mu=args.mu, nu=args.nu)
    elif args.cmd == "geodesic":
        task.update(mu0=args.mu0, mu1=args.mu1, depth=args.depth, epsilon=args.epsilon)
    elif args.cmd == "form":
        task.update(sub=args.form_op)
    elif args.cmd == "flow":
        task.update(f0=args.f0, flavor=args.flavor, t=args.t, tau=args.tau, steps=args.steps)
    elif args.cmd == "verify" and args.config:
        with open(args.config) as fh:
            task["config"] = json.load(fh)
    config = {"space": _space_arg(args.space), "tasks": [task], "seed": args.seed, "output_dir": args.out}
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
