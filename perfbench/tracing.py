"""Per-layer tracing of the gammatype package from outside it.

``Tracer.install()`` replaces each public function in ``LAYERS`` at the name
where the program looks it up (for example ``gammatype.forms.log_gamma``,
the binding that form evaluation calls) with a wrapper that records a span:
name, start, end, parent span and the id of the operation it belongs to.
Self time is a span's duration minus the time its child spans cover and
minus the time the tracer spent closing those child spans.

The innermost layers run hundreds of thousands of times per second, so their
spans are folded into per-name totals as they close instead of being kept one
by one; every other span is kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# (span name, module, attribute path): every binding the program calls a
# layer through.  One span name may cover several bindings of one function.
LAYERS = (
    ("cli.main", "gammatype.cli", "main"),
    ("catalog.build", "gammatype.catalog", "build"),
    ("specfun.log_gamma", "gammatype.forms", "log_gamma"),
    ("specfun.log_gamma", "gammatype.specfun", "log_gamma"),
    ("forms.evaluate", "gammatype.forms", "GammaTypeForm.evaluate"),
    ("forms.evaluate", "gammatype.forms", "GammaTypeForm.evaluate_log"),
    ("forms.strip", "gammatype.forms", "GammaTypeForm.strip"),
    ("forms.asymptotic_profile", "gammatype.forms",
     "GammaTypeForm.asymptotic_profile"),
    ("forms.check_positive_consistency", "gammatype.forms",
     "GammaTypeForm.check_positive_consistency"),
    ("forms.moments_equal", "gammatype.forms", "moments_equal"),
    ("forms.moments_equal", "gammatype.cli", "moments_equal"),
    ("mellin.density_table", "gammatype.mellin", "density_table"),
    ("mellin.density", "gammatype.mellin", "density"),
    ("recipes.evaluate_recipe", "gammatype.stochastics", "evaluate_recipe"),
    ("stochastics.sample", "gammatype.stochastics", "sample"),
    ("stochastics.mc_moment", "gammatype.stochastics", "mc_moment"),
    ("stochastics.verify_entry", "gammatype.stochastics", "verify_entry"),
)

# spans folded into totals as they close rather than kept one by one
HOT = frozenset({"specfun.log_gamma", "forms.evaluate"})

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def _values_drawn(args, kwargs):
    """n times leaf count of one ``evaluate_recipe(recipe, rng_for_leaf, n)``."""
    from gammatype.recipes import leaf_count
    return args[2] * leaf_count(args[0])


# extra counters computed from a layer's arguments
COUNTERS = {"recipes.evaluate_recipe": ("recipes.values_drawn", _values_drawn)}


class Tracer:
    """Spans and per-layer totals of one traced run."""

    def __init__(self):
        # open frames: [name, span id, time in child spans, time spent
        # closing child spans, which is tracing cost and nobody's self time]
        self._stack = []
        self._next_id = 0
        self._op_id = None
        self.spans = []           # (op id, span id, parent id, name, t0, t1)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()    # (parent layer, child layer) -> calls
        self.counts = Counter()
        # per operation: (time in layer spans, wall time less tracing cost)
        self.coverage = []
        self._saved = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name, fn):
        stack = self._stack
        keep = name not in HOT
        counter = COUNTERS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            # a layer calling itself (evaluate -> evaluate_log) is one span
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [name, self._next_id, 0.0, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._close(frame, t0, t1, keep)
                if counter:
                    self.counts[counter[0]] += counter[1](args, kwargs)
                if stack:
                    stack[-1][3] += time.perf_counter() - t1

        return wrapper

    def _close(self, frame, t0, t1, keep):
        name, span_id, child, closing = frame
        duration = t1 - t0
        parent = self._stack[-1] if self._stack else None
        self.calls[name] += 1
        self.self_s[name] += duration - child - closing
        if parent is not None:
            parent[2] += duration
            self.edges[parent[0], name] += 1
        if keep:
            self.spans.append((self._op_id, span_id,
                               parent[1] if parent else None, name, t0, t1))

    def install(self):
        """Wrap every layer binding; ``uninstall`` puts the originals back."""
        for name, module, path in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ operations

    def op(self, op_id, fn, *args):
        """Run one operation under a root span and record its coverage."""
        self._op_id = op_id
        self._next_id += 1
        frame = ["op", self._next_id, 0.0, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((op_id, frame[1], None, "op", t0, t1))
            self.coverage.append((frame[2], t1 - t0 - frame[3]))

    def dump(self, path):
        """Write the kept spans, one JSON object a line."""
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op_id, "span": span_id,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")

    # --------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Per-layer counts, self times and the ratios named by the layers."""
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        calls = self.calls
        lg = calls["specfun.log_gamma"]
        out["specfun.log_gamma.ns_per_call"] = (
            self.self_s["specfun.log_gamma"] / lg * 1e9 if lg else 0.0)
        out["forms.moments_equal.evals_per_call"] = _ratio(
            self.edges["forms.moments_equal", "forms.evaluate"],
            calls["forms.moments_equal"])
        points = calls["mellin.density"]
        out["mellin.evals_per_point"] = _ratio(
            self.edges["mellin.density", "forms.evaluate"], points)
        out["mellin.strip_calls_per_point"] = _ratio(
            self.edges["mellin.density", "forms.strip"], points)
        out["recipes.values_drawn"] = self.counts["recipes.values_drawn"]
        out["stochastics.sample_calls_per_verify"] = _ratio(
            calls["stochastics.sample"], calls["stochastics.verify_entry"])
        out["stochastics.values_per_verified_point"] = _ratio(
            self.counts["recipes.values_drawn"], calls["stochastics.mc_moment"])
        # share of operation wall time inside layer spans: over all
        # operations, and the share that 90% of operations reach
        covered = sum(c for c, _ in self.coverage)
        out["trace.coverage"] = _ratio(covered, sum(d for _, d in self.coverage))
        shares = sorted(c / d for c, d in self.coverage)
        out["trace.coverage_p10"] = shares[len(shares) // 10] if shares else 0.0
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------- process start-up

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of gammatype and of scipy from -X importtime.

    scipy counts every scipy module imported by something outside scipy,
    wherever in the tree that happens.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    # the log is post-order: a module's children are printed before it
    ancestors = {}
    gammatype_us = scipy_us = 0
    for depth, name, cumulative in reversed(rows):
        ancestors[depth] = name
        parents = [ancestors[d] for d in range(depth)]
        if depth == 0 and name.split(".")[0] == "gammatype":
            gammatype_us += cumulative
        if (name.split(".")[0] == "scipy"
                and not any(p.split(".")[0] == "scipy" for p in parents)):
            scipy_us += cumulative
    return {"import.gammatype_s": gammatype_us / 1e6,
            "import.scipy_s": scipy_us / 1e6}


def import_metrics(env, repeats=3) -> dict:
    """Median import and bare-interpreter times over fresh processes."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gammatype.cli"],
            env=env, capture_output=True, text=True, check=True)
        runs.append(parse_importtime(proc.stderr))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        runs[-1]["import.interpreter_s"] = time.perf_counter() - t0
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
