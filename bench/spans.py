"""Spans around the calls from one bilevelcg layer into the next.

The package itself carries no instrumentation.  For the traced run only,
:func:`traced` rebinds the module-level names through which one layer calls
another (``solvers.lmo``, ``oracles.simplex_solve``, ``harness.standard_cg``,
``core.SmoothOracle.__call__`` and the rest listed in ``_SITES``) to wrappers
that record a span, and puts the package's own functions back afterwards.
:func:`wrap_instance` rebuilds an instance through the public ``SmoothOracle``
and ``BilevelInstance`` constructors so that its ``upper``/``lower`` eval
callables record spans too.

Spans are aggregated in memory per name (calls, inclusive time, self time)
rather than kept one by one: the dictionary set-up alone makes over a
million of them.  A span's self time is its duration minus the time of its
direct child spans.
"""

from __future__ import annotations

import dataclasses
import time

from bilevelcg import core, harness, oracles, problems, solvers

_MARK = "_bench_span"

# (module, attribute, span name, inclusive-time group).  Spans that share a
# group count their inclusive time once when they nest, so the LMO recursion
# over product blocks is not timed twice.
_SITES = (
    (solvers, "lmo", "oracles.lmo", "oracles.lmo"),
    (oracles, "lmo", "oracles.lmo.block", "oracles.lmo"),
    (solvers, "halfspace_lmo", "oracles.halfspace_lmo", None),
    (solvers, "project", "oracles.project", None),
    (oracles, "simplex_solve", "oracles.simplex", None),
    (solvers, "standard_cg", "solvers.standard_cg", None),
    (harness, "standard_cg", "solvers.standard_cg", None),
    (solvers, "initialize_lower", "solvers.initialize_lower", None),
    (solvers, "cg_bio", "solvers.cg_bio", None),
    (harness, "big_sam", "solvers.big_sam", None),
    (harness, "a_irg", "solvers.a_irg", None),
    (harness, "dbgd", "solvers.dbgd", None),
    (harness, "mng", "solvers.mng", None),
    (harness, "reference_lower", "harness.reference_lower", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "build_instance", "harness.build_instance", None),
    (harness, "run_solver", "harness.run_solver", None),
    (problems, "synthetic_regression_data", "problems.build", None),
    (problems, "synthetic_fair_data", "problems.build", None),
    (problems, "regression_problem", "problems.build", None),
    (problems, "fair_classification_problem", "problems.build", None),
    (problems, "dictionary_problem", "problems.build", None),
)

# The package's own bindings, captured at import before anything is rebound.
_PACKAGE = {(mod, attr): getattr(mod, attr) for mod, attr, _, _ in _SITES}
_PACKAGE_CALL = core.SmoothOracle.__dict__["__call__"]


def check_untraced(inputs=None) -> None:
    """Raise unless every rebindable name is the package's own function and
    the instance in ``inputs``, if any, has the package's own evals."""
    for (mod, attr), fn in _PACKAGE.items():
        if getattr(mod, attr) is not fn or hasattr(fn, _MARK) or not fn.__module__.startswith("bilevelcg."):
            raise RuntimeError(f"{mod.__name__}.{attr} is not the package's own function")
    if core.SmoothOracle.__dict__["__call__"] is not _PACKAGE_CALL:
        raise RuntimeError("bilevelcg.core.SmoothOracle.__call__ is not the package's own method")
    instance = getattr(inputs, "bilevel", inputs)
    if isinstance(instance, core.BilevelInstance) and (
        hasattr(instance.upper.eval, _MARK) or hasattr(instance.lower.eval, _MARK)
    ):
        raise RuntimeError("the untraced instance carries span-recording evals")


class _Totals:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0


class _Frame:
    __slots__ = ("name", "child_ns", "first_lmo")

    def __init__(self, name):
        self.name = name
        self.child_ns = 0
        self.first_lmo = None


class Recorder:
    """In-memory span totals plus the counts seen at the span boundaries."""

    def __init__(self):
        self.totals: dict[str, _Totals] = {}
        self.group_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.root_ns = 0
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def calls(self, name: str) -> int:
        t = self.totals.get(name)
        return t.calls if t else 0

    def self_s(self, name: str) -> float:
        t = self.totals.get(name)
        return t.self_ns * 1e-9 if t else 0.0

    def inclusive_s(self, name: str) -> float:
        return self.group_ns.get(name, 0) * 1e-9

    def run(self, name, group, fn, args, kwargs=None, after=None):
        """Call ``fn`` inside a span; ``after(result, frame)`` sees the result."""
        stack, depth = self._stack, self._depth
        frame = _Frame(name)
        outermost = not depth.get(group)
        depth[group] = depth.get(group, 0) + 1
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            depth[group] -= 1
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = _Totals()
            totals.calls += 1
            totals.self_ns += elapsed - frame.child_ns
            if outermost:
                self.group_ns[group] = self.group_ns.get(group, 0) + elapsed
            if stack:
                stack[-1].child_ns += elapsed
            else:
                self.root_ns += elapsed
        if after is not None:
            after(result, frame)
        return result

    def parent(self):
        return self._stack[-1] if self._stack else None


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _marked(wrapper, original):
    setattr(wrapper, _MARK, True)
    wrapper.__wrapped__ = original
    return wrapper


def wrap_instance(rec: Recorder, instance):
    """The same instance rebuilt with eval callables that record
    ``problems.upper`` / ``problems.lower`` spans."""
    if hasattr(instance.upper.eval, _MARK):
        return instance

    def oracle(smooth, name):
        ev = smooth.eval

        def traced_eval(x):
            return rec.run(name, name, ev, (x,))

        return dataclasses.replace(smooth, eval=_marked(traced_eval, ev))

    return dataclasses.replace(
        instance,
        upper=oracle(instance.upper, "problems.upper"),
        lower=oracle(instance.lower, "problems.lower"),
    )


def wrap_inputs(rec, inputs):
    """Wrap the instance inside whatever a problems constructor or a workload's
    set-up returns: an instance, an (instance, data) pair, a dictionary
    bundle; anything else (data, a suite's cell list) is returned unchanged."""
    if isinstance(inputs, core.BilevelInstance):
        return wrap_instance(rec, inputs)
    if isinstance(inputs, tuple) and isinstance(inputs[0], core.BilevelInstance):
        return (wrap_instance(rec, inputs[0]),) + inputs[1:]
    if isinstance(inputs, problems.DictionaryBundle):
        return dataclasses.replace(inputs, bilevel=wrap_instance(rec, inputs.bilevel))
    return inputs


def _make_wrapper(rec: Recorder, fn, name: str, group: str):
    """A wrapper for one rebound site; ``name`` selects what it counts."""
    group = group or name
    run = rec.run

    if name == "oracles.lmo.block":
        def note_first(result, frame):
            # The first LMO a halfspace_lmo call makes is its plain point.
            parent = rec.parent()
            if parent is not None and parent.name == "oracles.halfspace_lmo" and parent.first_lmo is None:
                parent.first_lmo = result

        def wrapper(*args, **kwargs):
            return run(name, group, fn, args, kwargs, note_first)

    elif name == "oracles.halfspace_lmo":
        def plain_answered(result, frame):
            # halfspace_lmo returns the plain LMO point itself when the cut
            # is inactive, so identity tells which path answered.
            if result is frame.first_lmo:
                rec.add("oracles.halfspace_lmo.plain", 1)

        def wrapper(*args, **kwargs):
            return run(name, group, fn, args, kwargs, plain_answered)

    elif name == "oracles.simplex":
        def wrapper(lp):
            m, n = lp.A.shape
            n_art = int((lp.b < 0).sum())
            rec.add("oracles.simplex.tableau_bytes", 8 * (m + 1) * (n + m + n_art + 1))
            return run(name, group, fn, (lp,))

    elif name in ("solvers.standard_cg", "solvers.cg_bio"):
        def count_iterations(result, frame):
            rec.add(name + ".iterations", result.iterations)

        def wrapper(*args, **kwargs):
            return run(name, group, fn, args, kwargs, count_iterations)

    elif name in ("solvers.initialize_lower", "harness.reference_lower"):
        def wrapper(*args, **kwargs):
            iters = rec.counts.get("solvers.standard_cg.iterations", 0)
            lower = rec.calls("problems.lower")
            try:
                return run(name, group, fn, args, kwargs)
            finally:
                rec.add(name + ".iterations", rec.counts.get("solvers.standard_cg.iterations", 0) - iters)
                rec.add(name + ".lower_calls", rec.calls("problems.lower") - lower)

    elif name == "problems.build":
        def wrapper(*args, **kwargs):
            return wrap_inputs(rec, run(name, group, fn, args, kwargs))

    else:
        def wrapper(*args, **kwargs):
            return run(name, group, fn, args, kwargs)

    return _marked(wrapper, fn)


def _make_call_wrapper(rec: Recorder):
    original = _PACKAGE_CALL

    def traced_call(self, x):
        # Calls on oracles whose eval the benchmark wrapped split into core
        # overhead (self time) and a problems.* child span; the rest (the
        # dictionary's internal pretraining oracles) are problems.internal.
        name = "core.oracle_call" if hasattr(self.eval, _MARK) else "problems.internal"
        return rec.run(name, name, original, (self, x))

    return _marked(traced_call, original)


class traced:
    """Context manager: rebind every site to span-recording wrappers and
    restore the package's own functions on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec

    def __enter__(self):
        check_untraced()
        for mod, attr, name, group in _SITES:
            setattr(mod, attr, _make_wrapper(self.rec, _PACKAGE[(mod, attr)], name, group))
        core.SmoothOracle.__call__ = _make_call_wrapper(self.rec)
        return self.rec

    def __exit__(self, *exc):
        for mod, attr, _, _ in _SITES:
            setattr(mod, attr, _PACKAGE[(mod, attr)])
        core.SmoothOracle.__call__ = _PACKAGE_CALL
        check_untraced()
        return False
