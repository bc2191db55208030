"""Module-to-layer table and the fold of a ``cProfile`` run into layers.

The simulator's host time is split across the layers of
``docs/PERFORMANCE.md``'s hot-path map (event kernel, resources,
communication, memory), the runtime units (worker, try-commit, commit,
recovery, reservation service) and the fault-tolerance and integrity
add-ons.  A layer is a set of source files under ``src/repro``; every
file belongs to exactly one layer, with ``runtime`` taking whatever no
other layer claims.

Built-in and standard-library functions (``~`` entries and files outside
``src/repro``) have no layer of their own: their self time goes to the
layers of their callers, in proportion to the time pstats records per
caller.  This module imports nothing from ``repro``, so the table can be
checked without running the simulator.
"""

from __future__ import annotations

import os

#: Layer -> source paths under ``src/repro`` (a trailing ``/`` claims a
#: whole package).  Order is the report order.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("sim/engine.py", "sim/__init__.py"),
    "sim.resources": ("sim/resources.py",),
    "cluster": ("cluster/",),
    "memory": ("memory/",),
    "core.queues": ("core/queues.py", "core/messages.py"),
    "core.endpoint": ("core/endpoint.py",),
    "core.worker": ("core/worker.py", "core/context.py"),
    "core.try_commit": ("core/try_commit.py",),
    "core.commit": ("core/commit.py", "core/replica.py"),
    "core.recovery": ("core/recovery.py", "core/state.py"),
    "core.transport": ("core/transport.py",),
    "core.failure": ("core/failure.py",),
    "core.standby": ("core/standby.py",),
    "core.integrity": ("core/integrity.py",),
    "core.reservations": ("core/reservations.py",),
    "paradigms.specfor": ("paradigms/",),
    "workloads": ("workloads/",),
    "chaos": ("chaos/",),
    # The event tracer is an observability aid that hooks the engine.
    "obs": ("obs/", "sim/trace.py"),
    "runtime": (),
}

#: Layer that owns every file no other layer claims.
FALLBACK = "runtime"

#: Layers that must cost nothing on a fault-free, uninstrumented run.
OFF_WHEN_FAULT_FREE = (
    "core.transport", "core.failure", "core.standby", "core.integrity",
    "chaos", "obs",
)


def claims(relpath: str) -> list[str]:
    """Every layer whose table entry matches ``relpath`` (``/``-separated,
    relative to ``src/repro``).  A well-formed table yields at most one."""
    return [
        layer
        for layer, prefixes in LAYERS.items()
        if any(
            relpath == prefix or (prefix.endswith("/") and relpath.startswith(prefix))
            for prefix in prefixes
        )
    ]


def layer_of(relpath: str) -> str:
    """The layer that owns one source file of the package."""
    found = claims(relpath)
    return found[0] if found else FALLBACK


class Classifier:
    """Maps profiler filenames to layers, given the package directory."""

    def __init__(self, package_dir: str) -> None:
        self._root = os.path.realpath(package_dir) + os.sep
        self._cache: dict[str, str | None] = {}

    def __call__(self, filename: str) -> str | None:
        """The layer of a profiled function's file, or ``None`` for code
        outside the package (built-ins, the standard library, this
        benchmark)."""
        if filename not in self._cache:
            path = os.path.realpath(filename)
            self._cache[filename] = (
                layer_of(path[len(self._root):].replace(os.sep, "/"))
                if path.startswith(self._root)
                else None
            )
        return self._cache[filename]


def fold(stats: dict, classify: Classifier) -> tuple[dict, dict, float]:
    """Fold ``pstats.Stats(...).stats`` into per-layer numbers.

    Returns ``(self_seconds, calls, total_seconds)``:

    * ``self_seconds[L]`` — profiler self time of L's functions, plus
      L's share of the built-in and library time its functions caused;
    * ``calls[L]`` — calls into L's public functions (names not starting
      with ``_`` or ``<``) whose caller is a package function of another
      layer (a generator counts once per resumption, as cProfile does);
    * ``total_seconds`` — all self time in the profile, including the
      benchmark's own frames, which belong to no layer.
    """
    own = {key: classify(key[0]) for key in stats}
    shares: dict = {}

    def distribution(key, visiting: frozenset) -> dict:
        """How one foreign function's time splits over layers."""
        if key in shares:
            return shares[key]
        weights: dict = {}
        for caller, (_nc, _cc, caller_tt, _ct) in stats[key][4].items():
            if caller_tt <= 0:
                continue
            layer = own.get(caller)
            if layer is not None:
                weights[layer] = weights.get(layer, 0.0) + caller_tt
            elif caller in stats and caller not in visiting:
                for sub, weight in distribution(caller, visiting | {key}).items():
                    weights[sub] = weights.get(sub, 0.0) + caller_tt * weight
        total = sum(weights.values())
        result = {layer: weight / total for layer, weight in weights.items()} if total else {}
        if not visiting:
            shares[key] = result
        return result

    self_seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total_seconds = 0.0
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        total_seconds += tt
        layer = own[key]
        if layer is None:
            for sub, weight in distribution(key, frozenset()).items():
                self_seconds[sub] += tt * weight
            continue
        self_seconds[layer] += tt
        if key[2][:1] not in ("_", "<"):
            calls[layer] += sum(
                entry[0]
                for caller, entry in callers.items()
                if own.get(caller) not in (None, layer)
            )
    return self_seconds, calls, total_seconds
