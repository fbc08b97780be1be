"""Span tracing for the benchmark's traced mode.

:class:`SpanRecorder` keeps one span per call into a simulator layer: the
entry point's kind (which names its layer), start, end and the span that
was open when it began.  Spans live in flat arrays while the scenario runs
and are written out once it has finished; a layer's self time is its
spans' durations minus the time their child spans cover.

:func:`traced` installs the wrappers at class level, around the public
entry points listed in :data:`ENTRY_POINTS`, plus every callback handed to
``Simulator.schedule_at`` or ``PeriodicTimer`` (attributed to the layer of
the module that defines the callback).  Install before ``build_scenario``:
MACs, media and data links capture bound methods while they are built.
Leaving the context restores every class attribute, so an untraced
scenario built afterwards runs the original code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Layers in report order.  ``experiments`` is the benchmark's own root
#: span around ``Scenario.run`` (arming, reporting, anything not covered
#: by a deeper span).
LAYERS = (
    "experiments",
    "sim",
    "mobility",
    "topology",
    "channel",
    "core",
    "mac",
    "net",
    "routing",
    "traffic",
    "metrics",
    "faults",
    "other",
)

#: ``repro.<package>`` -> layer, where the two differ.
_PACKAGE_LAYER = {"geometry": "topology"}

#: (layer, module, class, methods): the entry point into each layer.
#: ``Node.receive_*`` and ``Node.on_link_failure`` are where the network
#: hands a packet to the routing protocol, so their spans are routing's.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("mobility", "repro.mobility.waypoint", "RandomWaypoint", ("position",)),
    (
        "topology",
        "repro.topology.index",
        "TopologyIndex",
        (
            "neighbors",
            "position",
            "positions_of",
            "distances_from",
            "any_within",
            "which_within",
            "neighbor_map",
            "coords_view",
        ),
    ),
    (
        "channel",
        "repro.channel.model",
        "ChannelModel",
        (
            "csi_hop_distance",
            "csi_hop_distances",
            "states",
            "throughput_bps",
            "in_range",
            "csi_hop_map",
        ),
    ),
    ("mac", "repro.mac.medium", "CommonChannelMedium", ("busy_for", "lost_receivers")),
    ("mac", "repro.mac.csma", "CsmaMac", ("send",)),
    ("net", "repro.net.network", "Network", ("deliver_control_batch",)),
    ("net", "repro.net.datalink", "DataLink", ("send",)),
    ("routing", "repro.net.node", "Node", ("receive_control", "receive_data", "on_link_failure")),
    ("routing", "repro.routing.flood", "FloodCache", ("check_and_add",)),
    ("core", "repro.core.rica", "RicaProtocol", ("on_csi_check",)),
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
)

#: MetricsCollector methods matching this prefix are wrapped as well.
_METRICS_PREFIX = "record_"


def layer_of(fn: Callable[..., Any]) -> str:
    """The layer of the module that defines ``fn``."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    parts = (getattr(fn, "__module__", None) or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    layer = _PACKAGE_LAYER.get(parts[1], parts[1])
    return layer if layer in LAYERS else "other"


def _call(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class SpanRecorder:
    """In-memory span store with per-kind call counts.

    A *kind* is one traced entry point (``"TopologyIndex.neighbors"``) or
    one layer's callbacks (``"callback:mac"``); every kind belongs to one
    layer.  Observers attached to a kind see each call's arguments and
    result, for tallies such as carrier-sense outcomes.
    """

    def __init__(self) -> None:
        self.kind_names: List[str] = []
        self.kind_layers: List[str] = []
        self._kind_ids: Dict[str, int] = {}
        self.tallies: Dict[str, int] = {}
        self.kinds = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._runners: Dict[str, Callable[..., Any]] = {}
        self._callbacks: Dict[Any, Callable[..., Any]] = {}

    def __len__(self) -> int:
        return len(self.ends)

    def kind(self, name: str, layer: str) -> int:
        """The id of kind ``name`` (registered on first use)."""
        kid = self._kind_ids.get(name)
        if kid is None:
            kid = len(self.kind_names)
            self._kind_ids[name] = kid
            self.kind_names.append(name)
            self.kind_layers.append(layer)
        return kid

    def tally(self, key: str, n: int = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + n

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span of kind ``name`` per call."""
        kid = self.kind(name, layer)
        kinds_append = self.kinds.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = len(ends)
            kinds_append(kid)
            parents_append(stack[-1])
            ends_append(0.0)
            push(i)
            starts_append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                ends[i] = clock()
                pop()

        functools.update_wrapper(traced, fn)
        return traced

    def call(self, name: str, layer: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside one span of kind ``name``."""
        return self.wrap(fn, name, layer)(*args)

    def callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording a ``callback:<layer>`` span per call.

        Cached per callable, so the engine's per-callback tallies stay
        bounded by the number of distinct callbacks, not of events.
        """
        try:
            return self._callbacks[fn]
        except KeyError:
            pass
        except TypeError:  # unhashable callable: wrap it afresh
            return functools.partial(self._runner(layer_of(fn)), fn)
        cb = functools.partial(self._runner(layer_of(fn)), fn)
        self._callbacks[fn] = cb
        return cb

    def _runner(self, layer: str) -> Callable[..., Any]:
        runner = self._runners.get(layer)
        if runner is None:
            runner = self.wrap(_call, f"callback:{layer}", layer)
            self._runners[layer] = runner
        return runner

    def release_callbacks(self) -> None:
        """Drop cached callbacks (they hold the finished scenario alive)."""
        self._callbacks.clear()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Calls per kind."""
        per_kind = np.bincount(np.frombuffer(self.kinds, dtype=np.uint16), minlength=len(self.kind_names))
        return {name: int(n) for name, n in zip(self.kind_names, per_kind.tolist())}

    def self_times(self) -> Dict[str, float]:
        """Self time per layer (s): span durations minus child spans."""
        if self._stack != [-1]:
            raise RuntimeError("self times requested while spans are still open")
        kinds = np.frombuffer(self.kinds, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(self))
        layer_index = np.array([LAYERS.index(layer) for layer in self.kind_layers], dtype=np.intp)
        per_layer = np.bincount(layer_index[kinds], weights=dur - child, minlength=len(LAYERS))
        return dict(zip(LAYERS, per_layer.tolist()))

    def save(self, path: str) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        np.savez(
            path,
            kind=np.frombuffer(self.kinds, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            kind_names=np.array(self.kind_names),
            kind_layers=np.array(self.kind_layers),
        )


def _observers(recorder: SpanRecorder) -> Dict[str, Callable[[Tuple[Any, ...], Any], None]]:
    """Outcome tallies for the entry points whose ratio metrics need them."""
    tally = recorder.tally

    def busy_for(args: Sequence[Any], busy: bool) -> None:
        if busy:
            tally("mac.busy")

    def lost_receivers(args: Sequence[Any], lost: Any) -> None:
        tally("mac.offered", len(args[2]))
        tally("mac.lost", len(lost))

    def deliver_control_batch(args: Sequence[Any], _result: Any) -> None:
        tally("net.receivers", len(args[1].receivers))

    def check_and_add(args: Sequence[Any], new: bool) -> None:
        if new:
            tally("routing.flood_new")

    return {
        "CommonChannelMedium.busy_for": busy_for,
        "CommonChannelMedium.lost_receivers": lost_receivers,
        "Network.deliver_control_batch": deliver_control_batch,
        "FloodCache.check_and_add": check_and_add,
    }


def _entry_points() -> Iterator[Tuple[str, type, str]]:
    for layer, module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            yield layer, cls, method
    collector = importlib.import_module("repro.metrics.collector").MetricsCollector
    for method in sorted(vars(collector)):
        if method.startswith(_METRICS_PREFIX):
            yield "metrics", collector, method


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install span wrappers on every entry point; restore them on exit."""
    from repro.sim.engine import Simulator
    from repro.sim.timers import PeriodicTimer

    saved: List[Tuple[type, str, Any]] = []

    def patch(cls: type, name: str, value: Any) -> None:
        saved.append((cls, name, cls.__dict__.get(name)))
        setattr(cls, name, value)

    observers = _observers(recorder)
    try:
        for layer, cls, method in _entry_points():
            kind = f"{cls.__name__}.{method}"
            patch(cls, method, recorder.wrap(getattr(cls, method), kind, layer, observers.get(kind)))

        schedule_at = Simulator.schedule_at
        timer_init = PeriodicTimer.__init__
        callback = recorder.callback

        def traced_schedule_at(sim: Simulator, when: float, fn: Callable[..., Any], *args: Any):
            return schedule_at(sim, when, callback(fn), *args)

        def traced_timer_init(
            timer: PeriodicTimer, sim: Simulator, interval: float, fn: Callable[..., Any],
            *args: Any, start_delay: Optional[float] = None,
        ) -> None:
            timer_init(timer, sim, interval, callback(fn), *args, start_delay=start_delay)

        patch(Simulator, "schedule_at", traced_schedule_at)
        patch(PeriodicTimer, "__init__", traced_timer_init)
        yield recorder
    finally:
        for cls, name, original in reversed(saved):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        recorder.release_callbacks()
