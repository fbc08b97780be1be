"""Fault-tolerant campaign execution: retries, timeouts, crashed workers.

The three real-world campaign killers, staged for real against the
process-pool backend: a cell that raises (retried with backoff), a worker
that dies mid-cell (``SIGKILL``, surfacing as ``BrokenProcessPool``), and
a cell that hangs (bounded by ``cell_timeout_s``).  Plus the regression
test for the historical executor leak: abandoning ``map``/``map_outcomes``
mid-iteration — or having a worker die — must never strand live worker
processes.

Work functions live at module level so the pool can pickle them; cross-
process attempt counters are files under ``tmp_path``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.experiments.backend import (
    CellFailure,
    CellOutcome,
    ExecutionBackend,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
)
from repro.experiments.campaign import (
    CampaignSpec,
    load_results,
    run_campaign,
    save_results,
)
from repro.experiments.scenario import ScenarioConfig

FAST = dict(backoff_base_s=0.0)


def _square(x):
    return x * x


def _kill_on(item):
    """Kill the worker for item 1; square everything else."""
    if item == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return item * item


def _hang_on(item):
    """Hang forever on item 1; square everything else."""
    if item == 1:
        time.sleep(300)
    return item * item


def _slow_innocent(item):
    """Sleep on item 0, kill the worker at once on item 1, square the rest."""
    if item == 0:
        time.sleep(0.5)
    if item == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return item * item


def _kill_once(item):
    """Kill the worker on the first attempt at item 1, succeed after."""
    path, x = item
    if x == 1 and not os.path.exists(path):
        open(path, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _flaky(item):
    """Raise on the first two attempts, then succeed (file = counter)."""
    path, x = item
    with open(path, "a") as fh:
        fh.write("!")
    if os.path.getsize(path) < 3:
        raise RuntimeError(f"flaky attempt {os.path.getsize(path)}")
    return x * x


def _chaos(item):
    """One of everything: a crasher, a hanger, and honest cells."""
    if item == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    if item == 3:
        time.sleep(300)
    return item * item


def _assert_workers_reaped():
    """No worker process outlives its backend (the leak regression bar)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()  # also reaps zombies
        if not children:
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked worker processes: {children}")


class TestRetryPolicyValidation:
    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)

    def test_rejects_negative_backoff_base(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-0.1)

    def test_rejects_sub_unit_backoff_factor(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(cell_timeout_s=0.0)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.25, backoff_factor=2.0)
        assert [policy.backoff_s(a) for a in range(3)] == [0.25, 0.5, 1.0]


class TestCellFailure:
    def test_as_dict_is_json_friendly(self):
        failure = CellFailure(3, "timeout", "TimeoutError()", 2)
        assert failure.as_dict() == {
            "kind": "timeout",
            "error": "TimeoutError()",
            "attempts": 2,
        }

    def test_to_exception_returns_original_for_fn_errors(self):
        original = ValueError("boom")
        failure = CellFailure(0, "exception", repr(original), 1, original)
        assert failure.to_exception() is original

    def test_to_exception_wraps_incidents(self):
        failure = CellFailure(0, "worker_crash", "BrokenProcessPool", 2)
        exc = failure.to_exception()
        assert isinstance(exc, ExecutionError)
        assert exc.failure is failure


class TestSerialRetries:
    def test_flaky_cell_succeeds_after_retries(self, tmp_path):
        counter = str(tmp_path / "attempts")
        backend = SerialBackend(RetryPolicy(max_retries=2, **FAST))
        outcomes = list(backend.map_outcomes(_flaky, [(counter, 7)]))
        assert [o.value for o in outcomes] == [49]
        assert os.path.getsize(counter) == 3  # two failures + the success

    def test_exhausted_retries_yield_structured_failure(self, tmp_path):
        counter = str(tmp_path / "attempts")
        backend = SerialBackend(RetryPolicy(max_retries=1, **FAST))
        (outcome,) = backend.map_outcomes(_flaky, [(counter, 7)])
        assert not outcome.ok
        assert outcome.failure.kind == "exception"
        assert outcome.failure.attempts == 2

    def test_strict_map_raises_the_original_exception(self, tmp_path):
        counter = str(tmp_path / "attempts")
        backend = SerialBackend(RetryPolicy(max_retries=0, **FAST))
        with pytest.raises(RuntimeError, match="flaky"):
            list(backend.map(_flaky, [(counter, 7)]))


class TestPoolResilience:
    def test_worker_crash_is_survived_and_attributed(self):
        backend = ProcessPoolBackend(jobs=2, policy=RetryPolicy(max_retries=0, **FAST))
        outcomes = list(backend.map_outcomes(_kill_on, [0, 1, 2, 3]))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert outcomes[1].failure is not None
        assert outcomes[1].failure.kind == "worker_crash"
        # The innocent bystanders all completed despite the poisoned pool.
        assert [o.value for o in outcomes if o.ok] == [0, 4, 9]
        _assert_workers_reaped()

    def test_crash_is_not_charged_to_the_cell_being_waited_on(self):
        """The round waits on slow cell 0 while cell 1's worker dies: the
        crash must land on cell 1, never on the innocent cell 0."""
        backend = ProcessPoolBackend(jobs=2, policy=RetryPolicy(max_retries=0, **FAST))
        outcomes = list(backend.map_outcomes(_slow_innocent, [0, 1, 2, 3]))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert outcomes[1].failure is not None
        assert outcomes[1].failure.kind == "worker_crash"
        assert [o.index for o in outcomes if o.ok] == [0, 2, 3]
        assert [o.value for o in outcomes if o.ok] == [0, 4, 9]
        _assert_workers_reaped()

    def test_worker_crash_retried_to_success(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        backend = ProcessPoolBackend(jobs=2, policy=RetryPolicy(max_retries=1, **FAST))
        items = [(flag, x) for x in range(4)]
        outcomes = list(backend.map_outcomes(_kill_once, items))
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert os.path.exists(flag)  # the crash really happened
        _assert_workers_reaped()

    def test_hung_cell_is_killed_and_reported(self):
        backend = ProcessPoolBackend(
            jobs=2, policy=RetryPolicy(max_retries=0, cell_timeout_s=0.5, **FAST)
        )
        start = time.monotonic()
        outcomes = list(backend.map_outcomes(_hang_on, [0, 1, 2]))
        wall = time.monotonic() - start
        assert outcomes[1].failure.kind == "timeout"
        assert [o.value for o in outcomes if o.ok] == [0, 4]
        # The hung worker was terminated, not waited out.
        assert wall < 60
        _assert_workers_reaped()

    def test_crash_plus_hang_completes_with_partial_results(self):
        """The acceptance scenario: one crasher, one hanger, retries on —
        the run completes, honest cells resolve, both incidents land as
        structured failures with their attempt counts."""
        backend = ProcessPoolBackend(
            jobs=2, policy=RetryPolicy(max_retries=1, cell_timeout_s=0.5, **FAST)
        )
        outcomes = list(backend.map_outcomes(_chaos, [0, 1, 2, 3, 4]))
        by_index = {o.index: o for o in outcomes}
        assert by_index[1].failure.kind == "worker_crash"
        assert by_index[3].failure.kind == "timeout"
        assert by_index[1].failure.attempts == 2
        assert by_index[3].failure.attempts == 2
        assert [by_index[i].value for i in (0, 2, 4)] == [0, 4, 16]
        _assert_workers_reaped()

    def test_flaky_exception_retried_in_pool(self, tmp_path):
        counter = str(tmp_path / "attempts")
        backend = ProcessPoolBackend(jobs=2, policy=RetryPolicy(max_retries=2, **FAST))
        outcomes = list(backend.map_outcomes(_flaky, [(counter, 5), (counter + "b", 6)]))
        # (counter, 5) fails twice then succeeds; retries happen in place
        # without poisoning the pool.
        assert not outcomes[0].ok or outcomes[0].value == 25
        assert os.path.getsize(counter) >= 1

    def test_single_job_stays_in_process(self):
        # jobs=1 with no timeout never pays pickling: a closure works.
        backend = ProcessPoolBackend(jobs=1)
        assert [o.value for o in backend.map_outcomes(lambda x: x + 1, [1, 2])] == [2, 3]

    def test_retried_cell_matches_serial_result(self, tmp_path):
        """Per-attempt determinism: a cell's value is a function of its
        item alone (campaign trial seeds derive from the cell config,
        never the attempt number), so a crash-then-retry run must equal
        the serial run bit for bit."""
        flag = str(tmp_path / "crashed-once")
        items = [(flag, x) for x in range(4)]
        pool = ProcessPoolBackend(jobs=2, policy=RetryPolicy(max_retries=1, **FAST))
        retried = [o.value for o in pool.map_outcomes(_kill_once, items)]
        # Serial reference over the same items, no crash (flag exists now).
        serial = [o.value for o in SerialBackend().map_outcomes(_kill_once, items)]
        assert retried == serial


class TestExecutorLeakRegression:
    def test_abandoned_iteration_reaps_workers(self):
        """The historical leak: a consumer walking away from the outcome
        stream mid-iteration stranded the executor and its workers."""
        backend = ProcessPoolBackend(jobs=2, policy=RetryPolicy(max_retries=1, **FAST))
        gen = backend.map_outcomes(_kill_on, [0, 1, 2, 3])
        first = next(gen)
        assert first.index == 0
        gen.close()  # GeneratorExit must run the teardown path
        _assert_workers_reaped()

    def test_strict_map_failure_reaps_workers(self):
        backend = ProcessPoolBackend(jobs=2, policy=RetryPolicy(max_retries=0, **FAST))
        with pytest.raises(ExecutionError):
            list(backend.map(_kill_on, [0, 1, 2, 3]))
        _assert_workers_reaped()


class _ScriptedBackend(ExecutionBackend):
    """Deterministic stand-in: scripted failures at chosen indices."""

    def __init__(self, fail_indices, policy):
        self.fail_indices = fail_indices
        self.policy = policy

    def map_outcomes(self, fn, items):
        for idx, item in enumerate(items):
            if idx in self.fail_indices:
                yield CellOutcome(
                    idx, failure=CellFailure(idx, "worker_crash", "scripted", 2)
                )
            else:
                yield CellOutcome(idx, value=fn(item))


def _tiny_spec():
    return CampaignSpec(
        name="resilience",
        base=ScenarioConfig(duration_s=2.0, n_nodes=8, n_flows=2, seed=5),
        protocols=["aodv"],
        mean_speeds_kmh=[0.0, 36.0, 72.0],
        rates_pps=[10.0],
        trials=1,
    )


class TestCampaignDegradation:
    def test_tolerant_campaign_returns_partial_results(self, tmp_path):
        spec = _tiny_spec()
        backend = _ScriptedBackend({1}, RetryPolicy(max_retries=1, **FAST))
        seen = []
        result = run_campaign(spec, progress=seen.append, backend=backend)
        keys = [key for key, _ in spec.cell_configs()]
        assert seen == keys  # progress still reports every cell
        assert not result.complete
        assert sorted(result.cells) == sorted([keys[0], keys[2]])
        assert result.failures == {
            keys[1]: {"kind": "worker_crash", "error": "scripted", "attempts": 2}
        }
        # The failure report survives the JSON round-trip.
        path = str(tmp_path / "partial.json")
        save_results(result, path)
        loaded = load_results(path)
        assert loaded.failures == result.failures
        assert sorted(loaded.cells) == sorted(result.cells)

    def test_default_policy_stays_fail_fast(self):
        backend = _ScriptedBackend({1}, RetryPolicy())
        with pytest.raises(ExecutionError):
            run_campaign(_tiny_spec(), backend=backend)

    def test_clean_run_json_has_no_failures_key(self, tmp_path):
        import json

        spec = _tiny_spec()
        backend = _ScriptedBackend(set(), RetryPolicy(max_retries=1, **FAST))
        result = run_campaign(spec, backend=backend)
        assert result.complete
        path = str(tmp_path / "clean.json")
        save_results(result, path)
        assert "failures" not in json.load(open(path))
