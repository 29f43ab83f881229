"""Host time and calls per simulator layer, from the standard profiler.

:class:`LayerProfiler` runs ``cProfile`` around one traced point and sums
each profiled function's self time and call count into the layer that owns
its module (see :data:`LAYERS`).  C functions (``generator.send``,
``heapq.heappush``, ...) go to ``builtins``, and Python functions outside
``src/repro`` (the benchmark, ``random``, ``json``) to ``other``, as does
the wall time no profiled function holds.  So the buckets tile the
profiled wall time exactly, and a new module cannot hide time.
"""

from __future__ import annotations

import cProfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

# Layer name -> the ``repro`` module or package it owns.  A module belongs
# to the layer with the longest matching prefix, so a residual layer such
# as ``sim.rest`` owns every ``repro.sim`` module not named by a finer
# layer.
LAYERS: Dict[str, str] = {
    "sim.engine": "repro.sim.engine",
    "sim.calqueue": "repro.sim.calqueue",
    "sim.queues": "repro.sim.queues",
    "sim.rest": "repro.sim",
    "hw.cpu": "repro.hw.cpu",
    "hw.nic": "repro.hw.nic",
    "hw.link": "repro.hw.link",
    "hw.switch_fabric": "repro.hw.switch_fabric",
    "hw.storage": "repro.hw.storage",
    "hw.rest": "repro.hw",
    "iomodels.vrio": "repro.iomodels.vrio",
    "iomodels.baseline": "repro.iomodels.baseline",
    "iomodels.rest": "repro.iomodels",
    "virtio": "repro.virtio",
    "net": "repro.net",
    "guest.scheduler": "repro.guest.scheduler",
    "guest.blkqueue": "repro.guest.blkqueue",
    "guest.rest": "repro.guest",
    "workloads": "repro.workloads",
    "telemetry": "repro.telemetry",
    "cluster": "repro.cluster",
    # Everything else in ``repro``: experiments, testing (the invariant
    # audit), analysis, costmodel, faults, interpose, lint, the CLI.
    "repro.rest": "repro",
}
BUILTINS = "builtins"
OTHER = "other"
BUCKETS: Tuple[str, ...] = tuple(LAYERS) + (BUILTINS, OTHER)

# Functions whose call counts are reported by name: (layer, qualname).
# ``Process._resume`` resumes a process's generator once per call.
COUNTED = {
    "sim.timeouts": ("sim.engine", "Timeout.__init__"),
    "sim.process_resumes": ("sim.engine", "Process._resume"),
    "sim.event_succeeds": ("sim.engine", "Event.succeed"),
    "hw.cpu.execute_calls": ("hw.cpu", "Core.execute"),
}


def layer_of_module(module: str) -> str:
    """The layer owning ``module`` (a dotted name), or ``other``."""
    best, best_len = OTHER, -1
    for layer, prefix in LAYERS.items():
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > best_len):
            best, best_len = layer, len(prefix)
    return best


def module_of_file(path: str, src_root: Path) -> Optional[str]:
    """The dotted module name of a source file under ``src_root``."""
    try:
        rel = Path(path).resolve().relative_to(src_root)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


class LayerProfiler:
    """Self time and calls per layer over the regions it is entered for.

    Wraps ``cProfile``: each profiler entry is one function, with its self
    time (``inlinetime``, wall seconds) and call count; a generator
    function counts one call per resumption.  Wall time inside the region
    that no entry holds (the benchmark frame that entered the profiler)
    goes to ``other``.
    """

    def __init__(self, src_root: Path) -> None:
        self.src_root = src_root.resolve()
        self.self_s: Dict[str, float] = {b: 0.0 for b in BUCKETS}
        self.calls: Dict[str, int] = {b: 0 for b in BUCKETS}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTED}
        self.wall_s = 0.0
        self._layer_of_file: Dict[str, str] = {}
        self._profile: Optional[cProfile.Profile] = None
        self._started = 0.0

    def layer_of_code(self, code) -> str:
        """The bucket a profiler entry's code belongs to."""
        if isinstance(code, str):       # a built-in, e.g. generator.send
            return BUILTINS
        filename = code.co_filename
        layer = self._layer_of_file.get(filename)
        if layer is None:
            module = module_of_file(filename, self.src_root)
            layer = OTHER if module is None else layer_of_module(module)
            self._layer_of_file[filename] = layer
        return layer

    def __enter__(self) -> "LayerProfiler":
        self._profile = cProfile.Profile()
        self._started = time.perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.disable()
        wall = time.perf_counter() - self._started
        held = 0.0
        for entry in self._profile.getstats():
            layer = self.layer_of_code(entry.code)
            self.self_s[layer] += entry.inlinetime
            self.calls[layer] += entry.callcount
            held += entry.inlinetime
            qualname = getattr(entry.code, "co_qualname", None)
            for name, (where, counted) in COUNTED.items():
                if where == layer and qualname == counted:
                    self.counts[name] += entry.callcount
        self.self_s[OTHER] += wall - held
        self.wall_s += wall
        self._profile = None
