"""Lifecycle and determinism tests for the persistent campaign pool.

Covers the contract of :class:`repro.faults.pool.CampaignPool`:

* deterministic merge: pooled campaigns are bit-identical to the serial
  oracle, including across two successive campaigns on one pool (the
  reuse path, where workers serve from their subject/state caches),
* capacity slabbing: fault universes larger than the shared outcome
  array process in slabs with identical reports,
* an exception inside a job propagates its traceback and leaves the
  worker alive (no respawn needed),
* a worker *crash* (hard ``os._exit``) propagates a diagnostic and the
  pool self-heals by respawning the dead worker,
* ``close()`` twice and any use after ``close()`` raise cleanly.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import PoolClosed, ReproError
from repro.faults import CampaignPool, measure_coverage, simulate_patterns
from repro.faults.coverage import measure_coverage as serial_measure
from repro.faults.simulator import exhaustive_patterns
from repro.netlist.netlist import Fault
from repro.suite import shift_register
from repro.bist import build_conventional_bist

CYCLES = 32
SEED = 5


class _ExplodingController:
    """A picklable controller whose campaign state raises (soft failure)."""

    def fault_universe(self):
        return [("C", Fault(net="x", stuck_at=s)) for s in (0, 1)] * 4

    def self_test_signatures(self, fault=None, cycles=None, seed=1, **_options):
        raise ValueError("boom: exploding controller")


class _CrashingController:
    """A picklable controller that kills its worker process outright."""

    def fault_universe(self):
        return [("C", Fault(net="x", stuck_at=s)) for s in (0, 1)] * 4

    def self_test_signatures(self, fault=None, cycles=None, seed=1, **_options):
        os._exit(13)


@pytest.fixture(scope="module")
def controller():
    return build_conventional_bist(shift_register(2))


@pytest.fixture(scope="module")
def oracle(controller):
    return serial_measure(controller, cycles=CYCLES, seed=SEED)


@pytest.fixture()
def pool():
    with CampaignPool(2) as instance:
        yield instance


class TestDeterminism:
    def test_pooled_campaign_matches_serial_oracle(self, pool, controller, oracle):
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        assert report == oracle

    def test_merge_holds_across_two_campaigns_with_reuse(
        self, pool, controller, oracle
    ):
        first = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        assert pool.stats["reuse_hits"] == 0
        second = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        assert first == second == oracle
        # the second campaign found the controller already cached
        assert pool.stats["reuse_hits"] > 0
        assert pool.stats["campaigns"] == 2

    def test_capacity_slabbing_is_invisible(self, controller, oracle):
        universe = controller.fault_universe()
        with CampaignPool(2, capacity=7) as tiny:
            report = measure_coverage(
                controller, cycles=CYCLES, seed=SEED, dropping=True, pool=tiny
            )
            assert len(universe) > 7  # the test actually slabs
            assert report == oracle

    def test_explicit_fault_subset(self, pool, controller):
        universe = controller.fault_universe()
        subset = universe[:: max(1, len(universe) // 10)]
        from repro.faults.engine import run_campaign

        expected = run_campaign(
            controller, cycles=CYCLES, seed=SEED, faults=subset
        )
        pooled = run_campaign(
            controller, cycles=CYCLES, seed=SEED, faults=subset, pool=pool
        )
        assert pooled == expected

    def test_pooled_ppsfp_matches_in_process(self, pool, controller):
        network = controller.plain.network
        patterns = exhaustive_patterns(len(network.inputs))
        local = simulate_patterns(network, patterns)
        pooled = simulate_patterns(network, patterns, pool=pool)
        assert pooled == local
        assert pool.stats["ppsfp"] == 1

    def test_subject_cache_eviction_is_coordinated(self):
        """Sweeping more subjects than the per-worker cache bound works,
        and a subject evicted under LRU pressure transparently re-ships."""
        from repro.faults import pool as pool_module
        from repro.netlist import GateKind, Netlist

        def tiny_netlist(index):
            netlist = Netlist(f"tiny{index}")
            netlist.add_input("a")
            netlist.add_input("b")
            kind = (GateKind.AND, GateKind.OR, GateKind.XOR)[index % 3]
            netlist.add_gate(kind, "y", ["a", "b"])
            netlist.mark_output("y")
            return netlist.freeze()

        subjects = [
            tiny_netlist(index)
            for index in range(pool_module._SUBJECT_CACHE_LIMIT + 3)
        ]
        patterns = exhaustive_patterns(2)
        expected = [simulate_patterns(net, patterns) for net in subjects]
        with CampaignPool(1) as pool:
            first = [
                simulate_patterns(net, patterns, pool=pool) for net in subjects
            ]
            # the first subject has been evicted by now; using it again
            # must re-ship and still agree
            again = simulate_patterns(subjects[0], patterns, pool=pool)
        assert first == expected
        assert again == expected[0]

    def test_pooled_ppsfp_rejects_interpreted_engine(self, pool, controller):
        """The pool has no interpreted job kind; asking for the oracle
        through it must fail loudly instead of silently running compiled."""
        from repro.exceptions import FaultError

        network = controller.plain.network
        with pytest.raises(FaultError, match="interpreted"):
            simulate_patterns(
                network, ["0" * len(network.inputs)], engine="interpreted",
                pool=pool,
            )


class TestFailurePropagation:
    def test_job_exception_propagates_traceback(self, pool, controller, oracle):
        with pytest.raises(ReproError) as excinfo:
            measure_coverage(
                _ExplodingController(), cycles=CYCLES, seed=SEED,
                dropping=True, pool=pool,
            )
        message = str(excinfo.value)
        assert "boom: exploding controller" in message
        assert "ValueError" in message
        # soft failures do not kill workers -- no respawn, pool still serves
        assert pool.stats["respawns"] == 0
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        assert report == oracle

    def test_worker_crash_self_heals(self, pool, controller, oracle):
        with pytest.raises(ReproError) as excinfo:
            measure_coverage(
                _CrashingController(), cycles=CYCLES, seed=SEED,
                dropping=True, pool=pool,
            )
        assert "died" in str(excinfo.value)
        # the next campaign respawns the dead workers and still merges
        # deterministically
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        assert report == oracle
        assert pool.stats["respawns"] >= 1


class TestLifecycle:
    def test_double_close_is_idempotent(self):
        pool = CampaignPool(1)
        pool.close()
        pool.close()  # second close is a no-op, not an error

    def test_use_after_close_raises_pool_closed(self, controller):
        pool = CampaignPool(1)
        pool.close()
        with pytest.raises(PoolClosed, match="closed"):
            measure_coverage(
                controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
            )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ReproError):
            CampaignPool(0)
        with pytest.raises(ReproError):
            CampaignPool(1, capacity=0)
        with pytest.raises(ReproError):
            CampaignPool(1, retries=-1)
        with pytest.raises(ReproError):
            CampaignPool(1, timeout=0)

    def test_context_manager_closes(self, controller):
        with CampaignPool(1) as pool:
            measure_coverage(
                controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
            )
        with pytest.raises(PoolClosed, match="closed"):
            measure_coverage(
                controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
            )

    def test_close_leaves_no_live_children(self, controller):
        pool = CampaignPool(2)
        measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        children = [process for process, _connection in pool._members]
        assert all(process.is_alive() for process in children)
        pool.close()
        assert not any(process.is_alive() for process in children)

    def test_close_escalates_on_hung_worker(self, controller):
        # A worker wedged in an injected infinite hang cannot honour the
        # cooperative shutdown message; close() must escalate to
        # terminate/kill and still reap it.
        from repro.faults.chaos import ChaosEvent, ChaosPlan

        plan = ChaosPlan([ChaosEvent(kind="hang", worker=0, on_chunk=0)])
        pool = CampaignPool(2, timeout=1.0, retries=1, chaos=plan)
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        assert report.total > 0
        children = [process for process, _connection in pool._members]
        pool.close(timeout=1.0)
        assert not any(process.is_alive() for process in children)

    def test_sigint_leaves_no_orphans(self, tmp_path):
        # Interrupt a pooled campaign mid-flight with SIGINT: the parent
        # must exit its context manager cleanly, reap every worker, and
        # leave no orphan children or shared-memory leak warnings behind.
        import signal
        import subprocess
        import sys
        import textwrap
        import time

        script = textwrap.dedent(
            """
            import os, signal, sys, threading
            sys.path.insert(0, %r)
            from repro.suite import shift_register
            from repro.bist import build_conventional_bist
            from repro.faults import CampaignPool, measure_coverage

            controller = build_conventional_bist(shift_register(2))
            with CampaignPool(2) as pool:
                pids = [process.pid for process, _ in pool._members]
                print("PIDS", *pids, flush=True)
                def interrupt():
                    os.kill(os.getpid(), signal.SIGINT)
                threading.Timer(0.4, interrupt).start()
                try:
                    while True:
                        measure_coverage(
                            controller, cycles=64, seed=5,
                            dropping=True, pool=pool,
                        )
                except KeyboardInterrupt:
                    pass
            print("CLOSED", flush=True)
            """
        ) % (os.path.join(os.path.dirname(__file__), os.pardir, "src"),)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "CLOSED" in result.stdout
        pids = [
            int(token)
            for line in result.stdout.splitlines()
            if line.startswith("PIDS")
            for token in line.split()[1:]
        ]
        assert pids, result.stdout
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            live = [pid for pid in pids if _pid_alive(pid)]
            if not live:
                break
            time.sleep(0.1)
        assert not live, f"orphan worker pids after SIGINT: {live}"
        assert "leaked" not in result.stderr, result.stderr


_HOLD_WORKERS = {
    "campaign-pool": (
        "from repro.faults import CampaignPool\n"
        "pool = CampaignPool(2)\n"
        "pids = [process.pid for process, _ in pool._members]\n"
    ),
    "member-workers": (
        "from repro.suite.worker import MemberWorker\n"
        "workers = [MemberWorker(index) for index in range(2)]\n"
        "pids = [worker._process.pid for worker in workers]\n"
    ),
}


@pytest.mark.parametrize("owner", sorted(_HOLD_WORKERS))
def test_workers_exit_when_their_owner_is_killed(owner):
    """``kill -9`` of a process holding two workers: each worker sees its
    pipe reach EOF (no worker keeps an owner-side pipe end open) and
    exits on its own."""
    import signal
    import subprocess
    import sys
    import time

    script = (
        "import sys, time\n"
        f"sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir, 'src')!r})\n"
        + _HOLD_WORKERS[owner]
        + "print('PIDS', *pids, flush=True)\n"
        "time.sleep(600)\n"
    )
    process = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
    )
    pids = []
    try:
        line = process.stdout.readline()
        assert line.startswith("PIDS"), line
        pids = [int(token) for token in line.split()[1:]]
        assert len(pids) == 2
        process.kill()
        process.wait(30.0)
        deadline = time.monotonic() + 30.0
        while not all(_exited(pid) for pid in pids):
            assert time.monotonic() < deadline, f"orphan workers: {pids}"
            time.sleep(0.05)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(10.0)
        process.stdout.close()
        for pid in pids:  # only alive if the check above failed
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


def _exited(pid: int) -> bool:
    """True once ``pid`` has exited; an orphan zombie nobody reaped
    counts as exited."""
    if not _pid_alive(pid):
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class TestContentDigests:
    """Regression: the pool's subject/pattern cache keys are SHA-256,
    unified with the corpus/sweep ledgers and checkpoint keys (they were
    SHA-1 before, leaving two digest schemes for one notion of content
    identity)."""

    def test_subject_digest_is_sha256(self):
        import hashlib

        from repro.faults.pool import subject_digest

        payload = b"some pickled subject"
        assert subject_digest(payload) == hashlib.sha256(payload).hexdigest()
        assert len(subject_digest(b"")) == 64  # SHA-1 would be 40

    def test_worker_cache_keys_are_sha256_of_payload(self, pool, controller):
        import hashlib
        import pickle

        measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        keys = {key for cache in pool._worker_cache for key in cache}
        assert keys, "campaign should have cached its subject"
        assert all(len(key) == 64 for key in keys)
        expected = hashlib.sha256(
            pickle.dumps(controller, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        assert expected in keys
