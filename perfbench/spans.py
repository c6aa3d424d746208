"""Outside-in tracing of cutchoose: spans and counters recorded in memory.

The tracer replaces public functions of the package with wrappers while it is
installed and restores them when it is removed; no file of the package is
changed. Several modules bind names with ``from .x import y``, so every
module namespace that holds the original function object gets the wrapper.
It also wraps ``numpy.linalg.eigvalsh`` and ``numpy.linalg.eigh`` to count
eigendecompositions and their cubic work.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1. Self time is a span's duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import json
import math
import sys
import time

import numpy as np

# (module, function) pairs recorded as spans named "<module>.<function>"
SPAN_TARGETS = (
    ("config", "parse_config"),
    ("report", "run_scenario"),
    ("report", "emit_bytes"),
    ("protocol", "overall_acceptance"),
    ("protocol", "round_outcome_table"),
    ("protocol", "client_output_state"),
    ("protocol", "monte_carlo_run"),
    ("bounds", "run_tradeoff_check"),
    ("bounds", "epsilon_h"),
    ("bounds", "epsilon_d_standalone"),
    ("bounds", "epsilon_d_composable"),
    ("combs", "general_tradeoff_check"),
    ("combs", "plug"),
    ("combs", "general_test_acceptance"),
)

# acceptance-family constructors whose rules get a counting element callable
ACCEPTANCE_FAMILIES = ("plus_acceptance", "computational_acceptance", "matched_acceptance")

EIG_FUNCTIONS = ("eigvalsh", "eigh")


class Tracer:
    """Records spans and counters while installed into a loaded package."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.kraus_ops_max = 0
        self.mc_calls: list[tuple] = []  # (omega support, trials, seed) per sampler call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.kraus_ops_max = 0
        self.mc_calls.clear()
        self._stack.clear()

    # -- recording -----------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _counted(self, name: str, fn, weight=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1 if weight is None else weight(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, replacement) -> None:
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cutchoose" or name.startswith("cutchoose."))]

        def module(name):
            return sys.modules[f"cutchoose.{name}"]

        mc_signature = inspect.signature(module("protocol").monte_carlo_run)

        def after_monte_carlo(result, args, kwargs):
            bound = mc_signature.bind(*args, **kwargs).arguments
            self.mc_calls.append((bound["spec"].omega.support, bound["trials"], bound["seed"]))

        def after_plug(channel, args, kwargs):
            self.kraus_ops_max = max(self.kraus_ops_max, len(channel.kraus))

        hooks = {"combs.plug": after_plug, "protocol.monte_carlo_run": after_monte_carlo}
        for mod, attr in SPAN_TARGETS:
            name = f"{mod}.{attr}"
            original = getattr(module(mod), attr)
            self._rebind(modules, original, self._spanned(name, original, hooks.get(name)))

        transform = module("strategies").transform_round
        self._rebind(modules, transform, self._counted("strategies.transform_round_calls", transform))

        families = module("families")
        for attr in ACCEPTANCE_FAMILIES:
            original = getattr(families, attr)
            self._rebind(modules, original, self._counting_family(original))
        for cls in _subclasses(module("protocol").TrapGenerator):
            if "trap" in cls.__dict__:
                self._set(cls, "trap", self._counted("families.trap_calls", cls.__dict__["trap"]))

        povm = module("states").PovmElement
        self._set(povm, "__post_init__",
                  self._counted("states.povm_validations", povm.__dict__["__post_init__"]))
        channel = module("combs").Channel
        self._set(channel, "apply", self._counted(
            "combs.kraus_applied", channel.__dict__["apply"], weight=lambda a: len(a[0].kraus)))

        for attr in EIG_FUNCTIONS:
            original = getattr(np.linalg, attr)
            counted = self._counted("linalg.eig_work", original, weight=_eig_work)
            self._set(np.linalg, attr, self._spanned("linalg.eig", counted))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _counting_family(self, constructor):
        @functools.wraps(constructor)
        def wrapper(*args, **kwargs):
            rule = constructor(*args, **kwargs)
            return dataclasses.replace(
                rule, element=self._counted("families.element_calls", rule.element)
            )

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def inclusive_s(self, name: str) -> float:
        """Total time in spans called ``name``, not counting nested repeats of it."""
        total = 0.0
        for record in self.spans:
            if record[0] == name and not self._has_ancestor(record, name):
                total += record[2] - record[1]
        return total

    def self_s(self, name: str) -> float:
        """Time in spans called ``name`` minus the time of their direct children."""
        child_time = collections.defaultdict(float)
        for record in self.spans:
            if record[3] >= 0:
                child_time[record[3]] += record[2] - record[1]
        return sum(
            record[2] - record[1] - child_time[idx]
            for idx, record in enumerate(self.spans)
            if record[0] == name
        )

    def span_count(self, name: str) -> int:
        return sum(1 for record in self.spans if record[0] == name)

    def _has_ancestor(self, record, name: str) -> bool:
        parent = record[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def mc_sample_bytes(self) -> int:
        """Computed size of the sampler's trials x (n+1) uniform arrays.

        Redraws each call's round counts from its seed, exactly as the sampler
        draws them first, and sums m * (n + 1) * 8 bytes over the support.
        """
        total = 0
        for support, trials, seed in self.mc_calls:
            ns = [n for n, _ in support]
            ps = np.array([p for _, p in support])
            draws = np.random.default_rng(seed).choice(len(ns), size=trials, p=ps)
            for j, m in enumerate(np.bincount(draws, minlength=len(ns))):
                if ns[j] > 0:
                    total += int(m) * (ns[j] + 1) * 8
        return total

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _eig_work(args) -> int:
    """Cubic operation count of one (possibly batched) eigendecomposition."""
    shape = np.shape(args[0])
    d = shape[-1] if shape else 0
    return math.prod(shape[:-2]) * d**3
