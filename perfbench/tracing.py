"""Per-layer spans and counts for the traced run, recorded from outside rcdlab.

Layer functions are imported by name into other modules (``exact_ot`` is bound
in ``solvers``, ``ot``, ``heat``, ``evi`` and ``geodesy``; ``solvers.epsilon_min``
is bound in ``geodesy`` as ``_epsilon_min_lp``). ``Tracer.install`` therefore
replaces every attribute of every loaded ``rcdlab`` module that *is* a traced
function, whatever its name there, and ``uninstall`` puts the originals back.
A traced function that no longer exists raises at install time, so a rename
shows up as a missing layer instead of a silent zero.

Spans are kept in memory as ``[name, start, end, parent, error]``; the parent
is an index into the span list (-1 for a root), so the spans of one benchmark
operation share the operation's root span. The benchmark is serial, so one
stack of open spans is enough.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# "<module>.<function>" for rcdlab.<module>.<function>; solvers.linprog is
# scipy's linprog as bound in rcdlab.solvers, i.e. every HiGHS call.
SPANS = (
    "cli.run",
    "cli.dumps_canonical",
    "cli.write_atomic",
    "ot.w2",
    "ot.kantorovich_potentials",
    "ot.check_slackness",
    "solvers.exact_ot",
    "solvers.linprog",
    "solvers.interior_point",
    "solvers.epsilon_min",
    "solvers._budgeted_oracle",
    "solvers.entropy_capacity_min",
    "solvers.entropy_budget_min",
    "solvers._hull_minimize",
    "solvers.dirac_pair_min",
    "solvers.prox_entropy_step",
    "geodesy.build_good_geodesic",
    "geodesy.intermediate_entropy_min",
    "geodesy.epsilon_min",
    "geodesy.cd_convexity_check",
    "heat.heat_kernel",
    "heat.semigroup_apply",
    "heat.semigroup_flow",
    "heat.jko_flow",
    "dirichlet.dirichlet_form",
    "dirichlet.intrinsic_metric",
    "evi.rcd_verify",
    "mmspace.make_model_space",
    "mmspace.validate_space",
)


class Tracer:
    """Wraps the functions named in ``SPANS`` and records one span per call."""

    def __init__(self):
        self.spans = []
        self.bindings = {name: [] for name in SPANS}
        self._stack = []
        self._patches = []
        self._wrappers = {}
        self._retries = 0
        self._sweeps = 0

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function in the loaded rcdlab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        for name in SPANS:
            module, attr = name.split(".", 1)
            fn = getattr(sys.modules["rcdlab." + module], attr, None)
            if not callable(fn):
                raise RuntimeError(f"traced function {name} not found in rcdlab.{module}")
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, fn)
            targets[id(fn)] = (name, fn)
        self.bindings = {name: [] for name in SPANS}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "rcdlab" and not mod_name.startswith("rcdlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(mod, attr, self._wrappers[hit[0]])
                    self._patches.append((mod, attr, value))
                    self.bindings[hit[0]].append(f"{mod_name}.{attr}")

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_call = {
            "solvers.linprog": self._count_retry,
            "solvers.prox_entropy_step": self._count_sweeps,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                # direct recursion (dumps_canonical): one span per outermost call
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[4] = type(err).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(kwargs, result)
            return result

        return traced

    def _count_retry(self, kwargs, result):
        if (kwargs.get("options") or {}).get("presolve") is False:
            self._retries += 1

    def _count_sweeps(self, kwargs, result):
        self._sweeps += int(result[2])

    @contextlib.contextmanager
    def root(self, name):
        """Root span grouping the spans of one benchmark operation."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- summary -------------------------------------------------------------

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def metrics(self):
        """``<span>.calls``, ``.s`` (inclusive) and ``.self_s`` for every traced
        function, plus the retry, iteration, sweep and useful-ratio counts."""
        calls = dict.fromkeys(SPANS, 0)
        total = dict.fromkeys(SPANS, 0.0)
        own = {}
        for name, start, end, parent, _ in self.spans:
            own[name] = own.get(name, 0.0) + (end - start)
            if parent >= 0:
                parent_name = self.spans[parent][0]
                own[parent_name] = own.get(parent_name, 0.0) - (end - start)
            if name in calls:
                calls[name] += 1
                total[name] += end - start
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own.get(name, 0.0)
        oracle_in_fw = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "solvers._budgeted_oracle" and parent >= 0
            and self.spans[parent][0] == "solvers.entropy_budget_min"
        )
        minimizations = [span[4] for span in self.spans if span[0] == "geodesy.intermediate_entropy_min"]
        useful = sum(1 for err in minimizations if err != "InfeasibleError")
        out["solvers.linprog.retries"] = self._retries
        out["solvers.entropy_budget_min.iterations"] = oracle_in_fw
        out["solvers.prox_entropy_step.sweeps"] = self._sweeps
        # 0 when the workload makes no such call
        out["geodesy.intermediate_entropy_min.useful_ratio"] = useful / len(minimizations) if minimizations else 0.0
        return out
