"""Unit tests for the runtime interleaving sanitizer."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.sanitizer import KERNEL_ACTOR, SimSanitizer, active
from repro.sim.sync import Mutex, Semaphore


@pytest.fixture
def ssim():
    """A simulator with its own installed sanitizer.

    Deliberately not the shared ``sim`` fixture: only one sanitizer can
    hold the module-global hook, and these tests must own it even when
    the suite runs under ``--sanitize``.
    """
    prior = active()
    if prior is not None:
        prior.uninstall()
    sim = Simulator()
    sanitizer = SimSanitizer(sim)
    sanitizer.install()
    try:
        yield sim, sanitizer
    finally:
        sanitizer.uninstall()
        if prior is not None:
            prior.install()


def kinds(sanitizer):
    return [f.kind for f in sanitizer.findings]


class TestInstallation:
    def test_install_sets_global_and_sim_hook(self, ssim):
        sim, sanitizer = ssim
        assert active() is sanitizer
        assert sim.sanitizer is sanitizer

    def test_second_install_rejected(self, ssim):
        sim, _ = ssim
        other = SimSanitizer(Simulator())
        with pytest.raises(RuntimeError, match="already installed"):
            other.install()

    def test_uninstall_clears_hooks(self):
        sim = Simulator()
        sanitizer = SimSanitizer(sim)
        prior = active()
        if prior is not None:
            prior.uninstall()
        sanitizer.install()
        sanitizer.uninstall()
        assert active() is None
        assert sim.sanitizer is None
        if prior is not None:
            prior.install()


class TestActorAttribution:
    def test_labels_are_deterministic_sequence_numbers(self, ssim):
        sim, sanitizer = ssim

        def worker():
            yield 1.0

        sim.process(worker(), name="w")
        sim.process(worker(), name="w")
        sim.run()
        labels = sorted(sanitizer._proc_labels.values())
        assert labels == ["w#1", "w#2"]

    def test_new_process_never_inherits_a_dead_ones_label(self, ssim):
        # CPython hands a freed process's address to the next one; a
        # label that followed the address made findings (and chaos
        # fingerprints) depend on the allocator.
        sim, sanitizer = ssim

        def worker():
            yield 1.0

        labels = []
        for __ in range(20):
            labels.append(sanitizer._label_for(
                sim.process(worker(), name="w")))
            sim.run()
        assert labels == [f"w#{n}" for n in range(1, 21)]

    def test_current_actor_tracks_the_running_process(self, ssim):
        sim, sanitizer = ssim
        seen = []

        def worker():
            seen.append(sanitizer.current_actor)
            yield 1.0
            seen.append(sanitizer.current_actor)

        sim.process(worker(), name="w")
        sim.run()
        assert seen == ["w#1", "w#1"]
        assert sanitizer.current_actor == KERNEL_ACTOR

    def test_acting_as_attributes_handler_work(self, ssim):
        sim, sanitizer = ssim
        with sanitizer.acting_as("client-3"):
            assert sanitizer.current_actor == "client-3"
        assert sanitizer.current_actor == KERNEL_ACTOR


class TestStaleReadPairing:
    def test_interleaved_write_between_read_and_write_fires(self, ssim):
        sim, sanitizer = ssim

        def transition():
            sanitizer.record_read("config_id", "coordinator")
            yield 1.0  # reconfiguration window
            sanitizer.record_write("config_id", "coordinator")

        def interloper():
            yield 0.5
            sanitizer.record_write("config_id", "coordinator")

        sim.process(transition(), name="slow")
        sim.process(interloper(), name="fast")
        sim.run()
        assert kinds(sanitizer) == ["stale-read"]
        finding = sanitizer.findings[0]
        assert finding.actor == "slow#1"
        assert "fast#2" in finding.message
        assert "yield point" in finding.message

    def test_uninterleaved_pair_is_clean(self, ssim):
        sim, sanitizer = ssim

        def transition():
            sanitizer.record_read("config_id", "coordinator")
            yield 1.0
            sanitizer.record_write("config_id", "coordinator")

        sim.process(transition(), name="t")
        sim.run()
        assert sanitizer.ok

    def test_own_rewrite_is_clean(self, ssim):
        # The same actor writing twice is ordinary state evolution.
        sim, sanitizer = ssim

        def transition():
            sanitizer.record_read("config_id", "c")
            sanitizer.record_write("config_id", "c")
            yield 1.0
            sanitizer.record_read("config_id", "c")
            sanitizer.record_write("config_id", "c")

        sim.process(transition(), name="t")
        sim.run()
        assert sanitizer.ok

    def test_unpaired_domains_are_footprint_only(self, ssim):
        sim, sanitizer = ssim

        def transition():
            sanitizer.record_read("dirty", "fragment:1")
            yield 1.0
            sanitizer.record_write("dirty", "fragment:1")

        def interloper():
            yield 0.5
            sanitizer.record_write("dirty", "fragment:1")

        sim.process(transition(), name="slow")
        sim.process(interloper(), name="fast")
        sim.run()
        assert sanitizer.ok  # IQ leases make this window safe by design
        assert "dirty" in sanitizer.stats.domains

    def test_paired_domains_are_configurable(self, ssim):
        sim, _ = ssim
        sanitizer = SimSanitizer(sim, paired_domains={"dirty"})
        assert sanitizer.paired_domains == {"dirty"}


class TestLockChecks:
    def test_release_underflow_finding_and_error(self, ssim):
        sim, sanitizer = ssim
        gate = Mutex(sim, name="gate")
        with pytest.raises(SimulationError):
            gate.release()
        assert kinds(sanitizer) == ["lock-underflow"]
        assert "gate" in sanitizer.findings[0].message

    def test_acquisition_order_cycle_reported_once(self, ssim):
        sim, sanitizer = ssim
        a = Mutex(sim, name="lock-a")
        b = Mutex(sim, name="lock-b")

        def forward():
            yield a.acquire()
            yield b.acquire()
            b.release()
            a.release()

        def backward():
            yield 1.0  # run after forward released everything
            yield b.acquire()
            yield a.acquire()
            a.release()
            b.release()

        sim.process(forward(), name="f")
        sim.process(backward(), name="g")
        sim.process(backward(), name="h")
        sim.run()
        assert kinds(sanitizer) == ["lock-order"]
        assert "lock-a" in sanitizer.findings[0].message
        assert "lock-b" in sanitizer.findings[0].message

    def test_non_reentrant_reacquire_fires(self, ssim):
        sim, sanitizer = ssim
        gate = Semaphore(sim, capacity=2, name="gate")

        def greedy():
            yield gate.acquire()
            yield gate.acquire()
            gate.release()
            gate.release()

        sim.process(greedy(), name="g")
        sim.run()
        assert kinds(sanitizer) == ["lock-order"]
        assert "re-acquired" in sanitizer.findings[0].message

    def test_consistent_order_is_clean(self, ssim):
        sim, sanitizer = ssim
        a = Mutex(sim, name="lock-a")
        b = Mutex(sim, name="lock-b")

        def locker(delay):
            yield delay
            yield a.acquire()
            yield b.acquire()
            b.release()
            a.release()

        sim.process(locker(0.0), name="p")
        sim.process(locker(1.0), name="q")
        sim.run()
        assert sanitizer.ok


class TestRedExclusion:
    def test_grant_over_live_holder_fires(self, ssim):
        sim, sanitizer = ssim
        with sanitizer.acting_as("worker-0"):
            sanitizer.on_red_acquire("cache-1", "dirty:3", token=1,
                                     holder_alive=False)
        with sanitizer.acting_as("worker-1"):
            sanitizer.on_red_acquire("cache-1", "dirty:3", token=2,
                                     holder_alive=True)
        assert kinds(sanitizer) == ["red-exclusion"]
        assert "worker-0" in sanitizer.findings[0].message
        assert sanitizer.findings[0].actor == "worker-1"

    def test_reacquire_by_same_holder_is_clean(self, ssim):
        sim, sanitizer = ssim
        with sanitizer.acting_as("worker-0"):
            sanitizer.on_red_acquire("cache-1", "dirty:3", token=1,
                                     holder_alive=False)
            sanitizer.on_red_acquire("cache-1", "dirty:3", token=2,
                                     holder_alive=True)
        assert sanitizer.ok

    def test_release_clears_the_holder(self, ssim):
        sim, sanitizer = ssim
        with sanitizer.acting_as("worker-0"):
            sanitizer.on_red_acquire("cache-1", "dirty:3", token=1,
                                     holder_alive=False)
            sanitizer.on_red_release("cache-1", "dirty:3")
        with sanitizer.acting_as("worker-1"):
            sanitizer.on_red_acquire("cache-1", "dirty:3", token=2,
                                     holder_alive=False)
        assert sanitizer.ok


class TestConfigEpoch:
    def test_duplicate_commit_fires(self, ssim):
        _, sanitizer = ssim
        sanitizer.on_config_evolve(1, 2)
        sanitizer.on_config_evolve(1, 2)
        assert kinds(sanitizer) == ["config-epoch"]

    def test_regression_fires(self, ssim):
        _, sanitizer = ssim
        sanitizer.on_config_evolve(1, 5)
        sanitizer.on_config_evolve(5, 3)
        assert kinds(sanitizer) == ["config-epoch"]

    def test_monotonic_commits_are_clean(self, ssim):
        _, sanitizer = ssim
        for new_id in (2, 3, 4):
            sanitizer.on_config_evolve(new_id - 1, new_id)
        assert sanitizer.ok


class TestTeardownChecks:
    def test_unobserved_crash_reported(self, ssim):
        sim, sanitizer = ssim

        def doomed():
            yield 0.5
            raise ValueError("boom")

        sim.process(doomed(), name="d")
        sim.run()
        findings = sanitizer.finish()
        assert [f.kind for f in findings] == ["crashed-process"]
        assert "ValueError: boom" in findings[0].message
        assert findings[0].actor == "d#1"

    def test_observed_crash_not_reported(self, ssim):
        sim, sanitizer = ssim

        def doomed():
            yield 0.5
            raise ValueError("boom")

        process = sim.process(doomed(), name="d")
        with pytest.raises(ValueError):
            sim.run_until(process)
        assert sanitizer.finish() == []

    def test_leaked_process_on_drained_sim(self, ssim):
        sim, sanitizer = ssim

        def stuck():
            yield sim.event()  # nobody will ever trigger this

        sim.process(stuck(), name="s")
        sim.run()
        found = {f.kind for f in sanitizer.finish()}
        assert "leaked-process" in found

    def test_stranded_waiters_on_drained_sim(self, ssim):
        sim, sanitizer = ssim
        gate = Mutex(sim, name="gate")

        def holder():
            yield gate.acquire()
            # finishes while still holding the lock

        def waiter():
            yield 0.1
            yield gate.acquire()

        sim.process(holder(), name="h")
        sim.process(waiter(), name="w")
        sim.run()
        found = {f.kind for f in sanitizer.finish()}
        assert "stranded-waiters" in found

    def test_undrained_sim_skips_leak_checks(self, ssim):
        sim, sanitizer = ssim

        def stuck():
            yield sim.event()

        sim.process(stuck(), name="s")
        sim.schedule(100.0, lambda: None)
        sim.run(until=1.0)  # time horizon, work still pending
        assert sanitizer.finish() == []

    def test_finish_is_idempotent(self, ssim):
        sim, sanitizer = ssim

        def doomed():
            yield 0.5
            raise ValueError("boom")

        sim.process(doomed(), name="d")
        sim.run()
        first = sanitizer.finish()
        assert sanitizer.finish() is first

    def test_clean_run_has_no_findings(self, ssim):
        sim, sanitizer = ssim
        gate = Mutex(sim, name="gate")

        def worker():
            yield gate.acquire()
            yield 0.5
            gate.release()

        sim.process(worker(), name="w1")
        sim.process(worker(), name="w2")
        sim.run()
        assert sanitizer.finish() == []
        assert sanitizer.stats.lock_acquires == 2
