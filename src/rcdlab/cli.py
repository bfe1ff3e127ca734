"""Batch entry point: space construction, experiment orchestration, and
deterministic JSON/CSV artifact emission.

Artifacts are written atomically with a fixed 17-significant-digit float
format, so identical config + seed reproduce byte-identical files, and only
after every task has returned, so a run that exits 2 or 3 writes none.

Outside values get their types here and nowhere else: the config file, the
space, each measure spec and a verify config are JSON objects given inline or
in a JSON file (``_spec``), all read before any task runs so that the
config_hash of the artifacts covers what was read, and ``_coerced`` types each
field. Each object may hold only the keys ``_KEYS`` lists for it. Exit codes:

    0  success
    1  an assert-mode check failed, and nothing else (the report path is printed)
    2  config error: an unreadable or non-JSON file, a missing or wrong-type
       field anywhere in a config (space params, measure specs, the verify
       config and t_grid included; a bool is no number, and an integer field
       takes no fraction), an unknown key in any object of a config, a K,
       tolerance or epsilon that is not finite, a verify n_probes below 1, an
       invalid space or measure, or a geodesic request that cannot be met
       (GeodesyError)
    3  solver failure: SolverError (InfeasibleError included), FormError,
       HeatError (a time that is not finite, or a t_grid that does not
       increase strictly, included), EviError or TransportError
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
    path_step_lengths,
)
from .solvers import SolverError

SCHEMA_VERSION = "3"


def schema_version() -> str:
    return SCHEMA_VERSION


class ConfigError(ValueError):
    pass


# error classes -> (exit status, stderr prefix); no class in one row subclasses one in the other
_EXITS = {
    (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError, mmspace.SpaceError,
     measures.MeasureError, geodesy.GeodesyError): (2, "config error"),
    (SolverError, FormError, heat.HeatError, evi.EviError, ot.TransportError): (3, "solver failure"),
}
_ERRORS = sum(_EXITS, ())


def _failed(err) -> int:
    """Report err on one stderr line; returns its exit status."""
    status, prefix = next(v for classes, v in _EXITS.items() if isinstance(err, classes))
    print(f"{prefix}: {type(err).__name__}: {err}", file=sys.stderr)
    return status


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


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

def _quoted(value, limit=100):
    """repr(value), cut to limit characters."""
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _spec(value, base_dir):
    """value when it is a JSON object, or the object in the JSON file at path
    value (relative to base_dir); anything else is a ConfigError."""
    if isinstance(value, str):
        with open(os.path.join(base_dir, value)) as fh:
            value = json.load(fh)
    if not isinstance(value, dict):
        raise ConfigError(f"expected a JSON object or the path of a JSON file holding one, got {_quoted(value)}")
    return value


def _coerced(spec, key, kind, *default):
    """kind(spec[key]) of a config, task, measure or space spec. An absent or null field gives the
    default when one is passed and is a ConfigError when none is; so is a TypeError, ValueError or
    KeyError that kind raises and that is not one of rcdlab's own errors."""
    if default and spec.get(key) is None:
        return default[0]
    if key not in spec:
        raise ConfigError(f"spec {_quoted(spec)} lacks required field {key!r}")
    try:
        return kind(spec[key])
    except _ERRORS:
        raise
    except (TypeError, ValueError, KeyError) as err:
        raise ConfigError(f"field {key!r} = {_quoted(spec[key])}: {type(err).__name__}: {err}") from None


def _exactly(cls):
    """A kind for _coerced that passes a cls through and rejects the rest (a bool is no int)."""
    def check(value):
        if not isinstance(value, cls) or isinstance(value, bool) and cls is not bool:
            raise TypeError(f"expected {cls.__name__}, got {type(value).__name__}")
        return value
    return check


_integer = _exactly(int)  # a number with a fraction or a decimal point is not truncated


def _float(value):
    """float(value); a bool, which float reads as 0 or 1, is not a number."""
    if isinstance(value, bool):
        raise TypeError("expected a number, got bool")
    return float(value)


def _finite(value):
    """A finite JSON number, as a float: K, epsilon and the tolerances, which
    a NaN would pass every comparison of."""
    x = _float(value)
    if not np.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _floats(value, n=None):
    """A nonempty JSON list of numbers (no bool), of length n when n is given, as a vector."""
    a = np.asarray(value, dtype=float)
    if a.ndim != 1 or not len(a) or n is not None and len(a) != n or any(isinstance(v, bool) for v in value):
        raise ValueError(f"expected a list of {n or 'some'} numbers")
    return a


def _count(value):
    """A number of probes, an int of at least 1: with none a battery checks nothing."""
    if _integer(value) < 1:
        raise ValueError(f"{value} < 1")
    return value


def _paths(space, value):
    """A JSON list of lists of point indices of space."""
    return [[mmspace._point(space, i) for i in _exactly(list)(p)] for p in _exactly(list)(value)]


# object -> the keys it may hold, so that a misspelt key is a ConfigError (_known) and not a default:
# a task's are _TASK and its op's (its subcommand's flags included), a measure spec's are its kind's,
# and a verify config's are the keywords of evi.rcd_verify it passes on, each with its kind
_TASK = ("op", "name", "rule", "tolerances")
_KEYS = {
    "config": ("space", "seed", "output_dir", "tasks"),
    "space": ("kind", "n", "params"),
    "space params": ("measure", "distance", "seed", "edge_prob"),
    "space file": ("points", "metric", "measure", "edges", "base_point", "meta"),
    "task": {
        "validate": _TASK + ("assert_pass",),
        "ot": _TASK + ("mu", "nu", "gauge", "gap_tol"),
        "geodesic": _TASK + ("mu0", "mu1", "depth", "epsilon", "K", "tol", "cd_tol"),
        "form": _TASK + ("sub", "f", "g", "paths", "rel_tol"),
        "flow": _TASK + ("f0", "flavor", "t_grid", "t", "steps", "tau", "inner_tol", "blur", "assert_entropy_monotone"),
        "verify": _TASK + ("config", "assert_verdict"),
    },
    "measure": {"weights": ("weights",), "uniform": ("kind",), "dirac": ("kind", "at"),
                "gaussian": ("kind", "c2", "x0"), "bump": ("kind", "center", "radius")},
    "verify config": {"K": _finite, "t_grid": _floats, "evi_tol": _finite, "n_probes": _count},
}


def _known(spec, keys, what):
    """spec, when it holds no key outside keys; else a ConfigError that names the first it does."""
    for key in spec:
        if key not in keys:
            raise ConfigError(f"{what} has unknown key {_quoted(key)}; the keys are {', '.join(keys)}")
    return spec


# op -> the fields of its task that hold a spec
_SPEC_FIELDS = {"ot": ("mu", "nu"), "geodesic": ("mu0", "mu1"), "flow": ("f0",), "verify": ("config",)}


def _read_specs(config, base_dir):
    """config with every spec it names read through _spec: the space and the
    measures and verify config of each task."""
    read = functools.partial(_spec, base_dir=base_dir)
    tasks = [dict(task, **{key: _coerced(task, key, read)
                           for key in _SPEC_FIELDS.get(_coerced(task, "op", _exactly(str)), ())
                           if task.get(key) is not None})
             for task in config["tasks"]]
    return dict(config, space=_coerced(config, "space", read), tasks=tasks)


def _space(spec):
    if "kind" not in spec:
        return mmspace.space_from_json(_known(spec, _KEYS["space file"], "space"))
    _known(spec, _KEYS["space"], "space")
    params = _known(_coerced(spec, "params", _exactly(dict), {}), _KEYS["space params"], "space params")
    return mmspace.make_model_space(spec["kind"], _coerced(spec, "n", _integer), params)


def _measure(space, spec):
    kind = "weights" if "weights" in spec else _coerced(spec, "kind", _exactly(str))
    if kind not in _KEYS["measure"]:
        raise ConfigError(f"unknown measure kind {kind!r}")
    _known(spec, _KEYS["measure"][kind], f"{kind} measure spec")
    if kind == "weights":
        return measures.ProbMeasure(space, _coerced(spec, "weights", _floats))
    if kind == "uniform":
        return measures.uniform_measure(space)
    if kind == "dirac":
        return measures.dirac(space, _coerced(spec, "at", _integer))
    if kind == "gaussian":
        return measures.gaussian_measure(space, _coerced(spec, "c2", _float), _coerced(spec, "x0", _integer, None))
    return measures.bump_measure(space, _coerced(spec, "center", _integer), _coerced(spec, "radius", _float))


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


def _draws(task):
    """Whether the task draws from its seed: a verify battery always does, and
    a form sub-op that reads f does when no f is given."""
    if task.get("op") == "verify":
        return True
    return task.get("op") == "form" and "f" not in task and task.get("sub", "energy") in ("energy", "gamma", "laplacian")


def run_task(task, space, seed, forms):
    """Execute one task spec, its specs read; returns (payload dict, assert_failures list).

    forms maps a conductance rule to the run's DirichletForm of it, built here
    at the first task that needs it, so the tasks of one run share each form
    and its spectral decomposition (heat._spectral)."""
    op = _coerced(task, "op", _exactly(str))
    if op not in _KEYS["task"]:
        raise ConfigError(f"unknown op {op!r}")
    _known(task, _KEYS["task"][op], f"{op} task")
    measure = functools.partial(_measure, space)
    rule = _coerced(task, "rule", _exactly(str), "metric_measure")
    form = None
    if op in ("form", "flow", "verify"):
        if rule not in forms:
            forms[rule] = dirichlet_form(space, rule)
        form = forms[rule]
    failures = []
    if op == "validate":
        rep = mmspace.validate_space(space)
        payload = {"passed": rep.passed, "violations": [list(v[:2]) + [v[2]] for v in rep.violations]}
        if _coerced(task, "assert_pass", _exactly(bool), True) and not rep.passed:
            failures.append("validate: space invalid")
    elif op == "ot":
        mu = _coerced(task, "mu", measure)
        nu = _coerced(task, "nu", measure)
        val, plan = ot.w2(mu, nu)
        pair = ot.kantorovich_potentials(mu, nu, gauge=_coerced(task, "gauge", functools.partial(mmspace._point, space), None))
        payload = {
            "w2": val,
            "plan": [[int(i), int(j), float(plan.coupling[i, j])] for i, j in plan.support()],
            "phi": pair.phi.tolist(),
            "psi": [None if not np.isfinite(v) else float(v) for v in pair.psi],
            "gap": pair.gap,
        }
        tol = _coerced(task, "gap_tol", _finite, 1e-9)
        if abs(pair.gap) > tol * max(1.0, 0.5 * val * val):
            failures.append(f"ot: duality gap {pair.gap}")
    elif op == "geodesic":
        mu0 = _coerced(task, "mu0", measure)
        mu1 = _coerced(task, "mu1", measure)
        eps = "auto" if task.get("epsilon") in (None, "auto") else _coerced(task, "epsilon", _finite)
        K = _coerced(task, "K", _finite, 0.0)
        trace = geodesy.build_good_geodesic(
            mu0, mu1, _coerced(task, "depth", _integer, 3),
            epsilon=eps, K=K, tol=_coerced(task, "tol", _finite, 2e-3),
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
        if "cd_tol" in task and cd["worst"] > _coerced(task, "cd_tol", _finite):
            failures.append(f"geodesic: cd residual {cd['worst']}")
    elif op == "form":
        sub = task.get("sub", "energy")
        vector = functools.partial(_floats, n=space.n)
        f = np.random.default_rng(seed).normal(size=space.n) if _draws(task) else _coerced(task, "f", vector, None)
        if sub == "energy":
            payload = {"cheeger": cheeger_energy(form, f)}
        elif sub == "gamma":
            g = _coerced(task, "g", vector, f)
            payload = {"gamma": gamma(form, f, g).values.tolist()}
        elif sub == "laplacian":
            payload = {"laplacian": laplacian(form, f).tolist()}
        elif sub == "mod2":
            paths = [(p, path_step_lengths(space, p)) for p in _coerced(task, "paths", functools.partial(_paths, space))]
            val, dens = mod2(paths, form.vertex_measure)
            payload = {"mod2": val, "density": dens.tolist()}
        elif sub == "intrinsic":
            d = intrinsic_metric(form, rel_tol=_coerced(task, "rel_tol", _finite, 1e-6))
            payload = {"intrinsic_metric": d.tolist()}
        else:
            raise ConfigError(f"unknown form sub-op {sub!r}")
    elif op == "flow":
        f0 = _coerced(task, "f0", measure)
        flavor = task.get("flavor", "semigroup")
        if flavor == "semigroup":
            grid = _coerced(task, "t_grid", _floats, None)
            if grid is None:
                grid = np.linspace(0, _coerced(task, "t", _float, 0.1), _coerced(task, "steps", _integer, 20) + 1)
            trace = heat.semigroup_flow(form, f0.density(), grid)
        elif flavor == "jko":
            trace = heat.jko_flow(f0, _coerced(task, "tau", _float), _coerced(task, "steps", _integer),
                                  inner_tol=_coerced(task, "inner_tol", _finite, 1e-6),
                                  blur=_coerced(task, "blur", _float, 0.25), form=form)
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
        if flavor == "jko":
            payload["max_inner_gap"] = trace.meta["max_inner_gap"]
        mono = all(a >= b - 1e-9 for a, b in zip(trace.entropies, trace.entropies[1:]))
        if _coerced(task, "assert_entropy_monotone", _exactly(bool), True) and not mono:
            failures.append("flow: entropy not nonincreasing")
    elif op == "verify":
        kinds = _KEYS["verify config"]
        cfg = _known(_coerced(task, "config", _exactly(dict), {}), kinds, "verify config")
        # an absent or null field keeps rcd_verify's default
        kwargs = {k: _coerced(cfg, k, kind) for k, kind in kinds.items() if cfg.get(k) is not None}
        rep = evi.rcd_verify(form, seed=seed, **kwargs)
        payload = {
            "verdict": rep["verdict"],
            "checks": {
                name: {"worst": r.worst, "residuals": list(r.residuals)}
                for name, r in rep["checks"].items()
            },
            "tolerances": rep["tolerances"],
        }
        if _coerced(task, "assert_verdict", _exactly(bool), True) and not rep["verdict"]:
            failures.append("verify: battery failed")
    return payload, failures


def run(config, base_dir=".") -> int:
    """Execute an experiment config; returns the process exit status."""
    try:
        _known(config, _KEYS["config"], "config")
        tasks = config.get("tasks")
        if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
            raise ConfigError(f"tasks must be a list of objects, got {_quoted(tasks)}")
        seed = _coerced(config, "seed", _integer, None)
        if seed is None and any(map(_draws, tasks)):
            raise ConfigError("seed is mandatory when any task uses randomness")
        if seed is not None and seed < 0:
            raise ConfigError(f"seed {seed} is negative")
        out_dir = os.path.join(base_dir, _coerced(config, "output_dir", _exactly(str), "artifacts"))
        # every spec is read once, here, so the hash covers what the tasks read
        config = _read_specs(config, base_dir)
        config_hash = _config_hash(config)
        space = _coerced(config, "space", _space)
        # every artifact is held until the last task returns, so a run that
        # raises leaves the output directory as it found it
        files = []
        scalars = []
        any_failures = []
        forms = {}
        for idx, task in enumerate(config["tasks"]):
            payload, failures = run_task(task, space, seed if seed is None else seed + idx, forms)
            name = _coerced(task, "name", _exactly(str), f"task{idx:02d}_{task['op']}")
            artifact = {
                "schema_version": SCHEMA_VERSION,
                "config_hash": config_hash,
                "method": {"op": task["op"]},
                "tolerances": _coerced(task, "tolerances", _exactly(dict), {}),
                "result": payload,
            }
            files.append((f"{name}.json", dumps_canonical(artifact) + "\n"))
            scalars.extend((name, key, val) for key, val in _series(payload))
            any_failures.extend(f"{name}: {f}" for f in failures)

        lines = ["task,name,value"] + [f"{task_name},{key},{_fmt_float(val)}" for task_name, key, val in scalars]
        files.append(("diagnostics.csv", "\n".join(lines) + "\n"))
        if any_failures:
            files.append(("failures.json", dumps_canonical({"failures": any_failures}) + "\n"))
        for name, text in files:
            write_atomic(os.path.join(out_dir, name), text)
        if any_failures:
            report_path = os.path.join(out_dir, "failures.json")
            print(f"assert-mode failures; see {report_path}", file=sys.stderr)
            return 1
        return 0
    except _ERRORS as err:
        return _failed(err)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# subcommand -> {flag: add_argument keywords}; each flag's destination is the
# field it sets in the one task the subcommand runs
_FLAGS = {
    "validate": {},
    "ot": {"--mu": {"required": True}, "--nu": {"required": True}},
    "geodesic": {"--mu0": {"required": True}, "--mu1": {"required": True}, "--depth": {"type": int, "default": 3},
                 "--epsilon": {"default": "auto"}},
    "form": {"--form-op": {"dest": "sub", "default": "energy"}},
    "flow": {"--f0": {"required": True}, "--flavor": {"default": "semigroup"}, "--t": {"type": float, "default": 0.1},
             "--tau": {"type": float, "default": 1e-3}, "--steps": {"type": int, "default": 20}},
    "verify": {"--config": {"default": argparse.SUPPRESS}},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rcdlab")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--space", required=True, help="space JSON file or inline kind:n (e.g. cycle:64)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="artifacts")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    prun = sub.add_parser("run")
    prun.add_argument("config")
    prun.add_argument("--out", default=None)

    args = vars(parser.parse_args(argv))
    cmd, out = args.pop("cmd"), args.pop("out")
    try:
        if cmd == "run":
            config = _spec(args["config"], ".")
            if out:  # a command-line path, so relative to the working directory
                config["output_dir"] = os.path.abspath(out)
            return run(config, base_dir=os.path.dirname(os.path.abspath(args["config"])))
        space, seed = args.pop("space"), args.pop("seed")
        if ":" in space and not os.path.exists(space):
            kind, _, n = space.partition(":")
            space = {"kind": kind, "n": _coerced({"kind": kind, "n": n}, "n", int)}
    except _ERRORS as err:
        return _failed(err)
    task = {"op": cmd, "name": cmd, **args}
    return run({"space": space, "tasks": [task], "seed": seed, "output_dir": out})


if __name__ == "__main__":
    sys.exit(main())
