"""Pluggable, fault-tolerant execution backends for campaign/sweep grids.

A campaign is an embarrassingly parallel list of independent grid cells:
each cell's trial seeds are derived from the *cell's own* scenario config
(``derive_seed(config.seed, "trial/i")``), never from execution order or
attempt number, so any backend that preserves result order produces
output identical to the serial run — including a retried cell, which
re-runs with the exact seeds of its first attempt.

:class:`SerialBackend` runs cells in-process; :class:`ProcessPoolBackend`
fans them out over a ``concurrent.futures`` process pool (``repro
campaign --jobs N`` on the CLI) and survives the three real-world
campaign killers:

* a cell raising an exception (retried with exponential backoff);
* a worker process dying — OOM kill, segfault, ``kill -9`` — which
  surfaces as :class:`BrokenProcessPool` and poisons the whole pool;
* a cell hanging forever (bounded by ``RetryPolicy.cell_timeout_s``).

The fault-tolerant entry point is :meth:`ExecutionBackend.map_outcomes`,
which yields one :class:`CellOutcome` per item, in item order — either a
value or a structured :class:`CellFailure` after retries are exhausted.
:meth:`ExecutionBackend.map` is the strict wrapper (raise on first
failure), byte-compatible with the historical interface.

The work function handed to either must be a module-level callable and
its items picklable (the process pool ships both to workers).
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError, ExecutionError

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "RetryPolicy",
    "CellFailure",
    "CellOutcome",
    "resolve_backend",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a backend fights for each cell before giving up.

    The defaults (no retries, no timeout) reproduce the historical
    fail-fast behaviour exactly; ``repro campaign --max-retries/
    --cell-timeout`` turns resilience on.
    """

    #: Extra attempts per cell after the first (0 = fail fast).
    max_retries: int = 0
    #: First retry waits this long; subsequent retries multiply by
    #: ``backoff_factor`` (exponential backoff).
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    #: Wall-clock bound on one cell attempt (None = unbounded).  Enforced
    #: by the process-pool backend, which can kill a hung worker; the
    #: serial backend cannot interrupt in-process work and ignores it.
    cell_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigurationError("cell_timeout_s must be positive (or None)")

    def backoff_s(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        return self.backoff_base_s * self.backoff_factor**attempt


@dataclass
class CellFailure:
    """Terminal failure of one grid cell, after all retries."""

    index: int
    #: "exception" (fn raised), "timeout" (cell_timeout_s exceeded) or
    #: "worker_crash" (the worker process died).
    kind: str
    error: str
    attempts: int
    #: The original exception for "exception" failures (not serialised).
    exception: Optional[BaseException] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering for failure reports."""
        return {
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }

    def to_exception(self) -> BaseException:
        """The exception strict ``map`` raises for this failure."""
        if self.exception is not None and self.kind == "exception":
            return self.exception
        return ExecutionError(
            f"cell {self.index} failed ({self.kind} after "
            f"{self.attempts} attempt(s)): {self.error}",
            failure=self,
        )


@dataclass
class CellOutcome:
    """Result of one grid cell: a value, or a structured failure."""

    index: int
    value: Any = None
    failure: Optional[CellFailure] = None

    @property
    def ok(self) -> bool:
        """True when the cell produced a value."""
        return self.failure is None


class ExecutionBackend(ABC):
    """Strategy for executing a list of independent work items."""

    @abstractmethod
    def map_outcomes(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[CellOutcome]:
        """Apply ``fn`` to every item, yielding outcomes in item order.

        Lazy: outcomes stream out as they complete (in order), so callers
        can report progress while later items are still running.  Never
        raises for a cell failure — the failure rides in the outcome.
        """

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
        """Strict variant: yield bare values, raise on the first failure."""
        for outcome in self.map_outcomes(fn, items):
            if outcome.failure is not None:
                raise outcome.failure.to_exception()
            yield outcome.value


def _serial_outcomes(
    fn: Callable[[Any], Any], items: Sequence[Any], policy: RetryPolicy
) -> Iterator[CellOutcome]:
    """In-process execution with the retry half of the policy."""
    for idx, item in enumerate(items):
        attempts = 0
        while True:
            attempts += 1
            try:
                value = fn(item)
            except Exception as exc:  # noqa: BLE001 - boundary by design
                if attempts > policy.max_retries:
                    yield CellOutcome(
                        idx,
                        failure=CellFailure(idx, "exception", repr(exc), attempts, exc),
                    )
                    break
                time.sleep(policy.backoff_s(attempts - 1))
            else:
                yield CellOutcome(idx, value=value)
                break


class SerialBackend(ExecutionBackend):
    """Run every cell in the calling process, one after another."""

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        self.policy = policy or RetryPolicy()

    def map_outcomes(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[CellOutcome]:
        return _serial_outcomes(fn, items, self.policy)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "SerialBackend()"


class ProcessPoolBackend(ExecutionBackend):
    """Fan cells out over a process pool, surviving worker failures.

    Results stream in submission order — combined with per-cell seed
    derivation this makes parallel runs byte-identical to serial ones.
    Cells that raise are resubmitted in place (the pool keeps serving the
    others); a worker *crash* or cell *timeout* poisons the executor, so
    the backend harvests every finished result, tears the pool down
    (terminating stragglers), and rebuilds it for the unresolved cells.
    A timeout is charged to the cell that ran out of time; a crash in a
    shared pool is charged to no cell, because the cell being waited on
    need not be the one whose worker died.  After ``max_retries`` such
    incidents the survivors run one-per-executor, so a crash is
    attributed to exactly the cell that caused it.
    """

    def __init__(self, jobs: int, policy: Optional[RetryPolicy] = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy or RetryPolicy()

    # ------------------------------------------------------------------
    def map_outcomes(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[CellOutcome]:
        items = list(items)
        if not items:
            return
        policy = self.policy
        workers = min(self.jobs, len(items))
        if workers <= 1 and policy.cell_timeout_s is None:
            # No parallelism and no need for a killable worker: stay
            # in-process (also keeps fn/items pickling out of the path).
            yield from _serial_outcomes(fn, items, policy)
            return
        ctx = self._mp_context()
        outcomes: Dict[int, CellOutcome] = {}
        attempts = [0] * len(items)
        unresolved = list(range(len(items)))
        incidents = 0
        next_emit = 0
        executor: Optional[ProcessPoolExecutor] = None
        try:
            while next_emit < len(items):
                if unresolved and incidents > policy.max_retries:
                    # Pool kept dying: exact-attribution fallback, one
                    # cell per single-worker executor.
                    for idx in unresolved:
                        outcomes[idx] = self._run_isolated(
                            ctx, fn, items[idx], idx, attempts
                        )
                    unresolved = []
                elif unresolved:
                    executor = ProcessPoolExecutor(
                        max_workers=min(workers, len(unresolved)), mp_context=ctx
                    )
                    incident = self._run_round(
                        executor, fn, items, unresolved, attempts, outcomes
                    )
                    if incident is None:
                        executor.shutdown(wait=True)
                        executor = None
                        unresolved = []
                    else:
                        self._teardown(executor)
                        executor = None
                        incidents += 1
                        unresolved = [i for i in unresolved if i not in outcomes]
                        if unresolved and incidents <= policy.max_retries:
                            time.sleep(policy.backoff_s(incidents - 1))
                while next_emit < len(items) and next_emit in outcomes:
                    yield outcomes.pop(next_emit)
                    next_emit += 1
        finally:
            # The historical leak: a consumer abandoning the generator
            # mid-iteration (or a raised failure in strict map) must not
            # strand a live executor.
            if executor is not None:
                self._teardown(executor)

    # ------------------------------------------------------------------
    def _run_round(
        self,
        executor: ProcessPoolExecutor,
        fn: Callable[[Any], Any],
        items: List[Any],
        unresolved: List[int],
        attempts: List[int],
        outcomes: Dict[int, CellOutcome],
    ) -> Optional[str]:
        """Submit every unresolved cell; collect results in index order.

        Returns None when the round fully resolved (every cell got a
        value or a recorded exception-failure), or the incident kind
        ("worker_crash"/"timeout") that poisoned the pool — in which case
        finished results are harvested first.  A timeout is charged to
        the cell being waited on.  A broken pool, whether ``submit`` or
        ``result`` reports it, is charged to no cell.
        """
        policy = self.policy
        futures: Dict[int, Any] = {}
        try:
            for idx in unresolved:
                futures[idx] = executor.submit(fn, items[idx])
            for idx in unresolved:
                while idx not in outcomes:
                    future = futures[idx]
                    try:
                        value = future.result(timeout=policy.cell_timeout_s)
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:  # noqa: BLE001 - fn raised in worker
                        # Python >= 3.11 aliases futures' TimeoutError to
                        # the builtin: a done future means fn itself raised
                        # TimeoutError — an ordinary cell error.
                        if isinstance(exc, FuturesTimeout) and not future.done():
                            self._harvest(futures, unresolved, attempts, outcomes, skip=idx)
                            self._charge_timeout(idx, exc, attempts, outcomes)
                            return "timeout"
                        if self._charge_error(idx, exc, attempts, outcomes):
                            break
                        # Charged: if the resubmit finds the pool broken,
                        # the harvest must not charge this error again.
                        del futures[idx]
                        time.sleep(policy.backoff_s(attempts[idx] - 1))
                        futures[idx] = executor.submit(fn, items[idx])
                    else:
                        attempts[idx] += 1
                        outcomes[idx] = CellOutcome(idx, value=value)
        except BrokenProcessPool:
            self._harvest(futures, unresolved, attempts, outcomes)
            return "worker_crash"
        return None

    def _charge_error(
        self,
        idx: int,
        exc: BaseException,
        attempts: List[int],
        outcomes: Dict[int, CellOutcome],
    ) -> bool:
        """Count one failed attempt; record the failure when exhausted.

        Returns True when the cell is terminally failed (caller stops
        retrying it).
        """
        attempts[idx] += 1
        if attempts[idx] > self.policy.max_retries:
            outcomes[idx] = CellOutcome(
                idx,
                failure=CellFailure(idx, "exception", repr(exc), attempts[idx], exc),
            )
            return True
        return False

    def _charge_timeout(
        self,
        idx: int,
        exc: BaseException,
        attempts: List[int],
        outcomes: Dict[int, CellOutcome],
    ) -> None:
        """Charge the cell that ran out of time."""
        attempts[idx] += 1
        if attempts[idx] > self.policy.max_retries:
            outcomes[idx] = CellOutcome(
                idx, failure=CellFailure(idx, "timeout", repr(exc), attempts[idx])
            )

    def _harvest(
        self,
        futures: Dict[int, Any],
        unresolved: List[int],
        attempts: List[int],
        outcomes: Dict[int, CellOutcome],
        skip: Optional[int] = None,
    ) -> None:
        """Bank results that finished before the pool went down.

        Cells whose futures were poisoned by the dying pool (they raise
        :class:`BrokenProcessPool`) are left unresolved — and uncharged —
        for the next round; genuine fn errors are charged normally.
        """
        for idx in unresolved:
            if idx == skip or idx in outcomes:
                continue
            future = futures.get(idx)
            if future is None or not future.done():
                continue
            try:
                value = future.result(timeout=0)
            except BrokenProcessPool:
                continue
            except Exception as exc:  # noqa: BLE001 - fn raised in worker
                self._charge_error(idx, exc, attempts, outcomes)
            else:
                attempts[idx] += 1
                outcomes[idx] = CellOutcome(idx, value=value)

    def _run_isolated(
        self,
        ctx,
        fn: Callable[[Any], Any],
        item: Any,
        idx: int,
        attempts: List[int],
    ) -> CellOutcome:
        """Run one cell in its own single-worker executor, with retries."""
        policy = self.policy
        while True:
            executor = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
            kind, exc = "exception", None
            try:
                future = executor.submit(fn, item)
                try:
                    value = future.result(timeout=policy.cell_timeout_s)
                except BrokenProcessPool as err:
                    kind, exc = "worker_crash", err
                except FuturesTimeout as err:
                    kind = "exception" if future.done() else "timeout"
                    exc = err
                except Exception as err:  # noqa: BLE001 - fn raised in worker
                    exc = err
                else:
                    attempts[idx] += 1
                    return CellOutcome(idx, value=value)
            finally:
                self._teardown(executor)
            attempts[idx] += 1
            if attempts[idx] > policy.max_retries:
                keep = exc if kind == "exception" else None
                return CellOutcome(
                    idx,
                    failure=CellFailure(idx, kind, repr(exc), attempts[idx], keep),
                )
            time.sleep(policy.backoff_s(attempts[idx] - 1))

    # ------------------------------------------------------------------
    @staticmethod
    def _mp_context():
        # Fork inherits sys.path and imported state but is only reliably
        # safe on Linux (macOS system frameworks are fork-hostile, which
        # is why CPython switched the darwin default to spawn).
        return multiprocessing.get_context("fork" if sys.platform == "linux" else None)

    @staticmethod
    def _teardown(executor: ProcessPoolExecutor) -> None:
        """Kill the pool without waiting on hung or dead workers."""
        processes = list(getattr(executor, "_processes", {}).values())
        for proc in processes:
            proc.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
                proc.kill()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProcessPoolBackend(jobs={self.jobs}, policy={self.policy})"


def resolve_backend(
    backend: Optional[ExecutionBackend] = None,
    jobs: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExecutionBackend:
    """Pick the backend: an explicit instance wins, then ``jobs``, then serial."""
    if backend is not None:
        if jobs is not None:
            raise ConfigurationError("pass either backend or jobs, not both")
        if policy is not None:
            raise ConfigurationError(
                "pass the policy to the backend constructor, not resolve_backend"
            )
        return backend
    if jobs is None or jobs <= 1:
        return SerialBackend(policy)
    return ProcessPoolBackend(jobs, policy)
