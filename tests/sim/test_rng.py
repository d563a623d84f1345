"""Unit tests for named RNG streams."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_different_names_independent(self):
        registry = RngRegistry(1)
        a = [registry.stream("a").random() for __ in range(5)]
        b = [registry.stream("b").random() for __ in range(5)]
        assert a != b

    def test_same_seed_reproducible(self):
        first = [RngRegistry(9).stream("x").random() for __ in range(3)]
        second = [RngRegistry(9).stream("x").random() for __ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_consuming_one_stream_does_not_shift_another(self):
        registry_a = RngRegistry(5)
        registry_b = RngRegistry(5)
        # Drain an unrelated stream in one registry only.
        for __ in range(100):
            registry_a.stream("noise").random()
        assert (registry_a.stream("data").random()
                == registry_b.stream("data").random())

    def test_fork_creates_distinct_registry(self):
        root = RngRegistry(3)
        fork = root.fork("rep-1")
        assert fork.seed != root.seed
        assert (fork.stream("x").random()
                != root.stream("x").random())

    def test_fork_deterministic(self):
        assert (RngRegistry(3).fork("a").seed
                == RngRegistry(3).fork("a").seed)

    def test_fork_child_streams_unaffected_by_parent_draws(self):
        # Forking derives the child seed from (seed, name) alone: the
        # child's streams must not depend on how much randomness the
        # parent consumed before forking.
        early = RngRegistry(3).fork("rep-1").stream("x").random()
        parent = RngRegistry(3)
        for __ in range(50):
            parent.stream("noise").random()
        late = parent.fork("rep-1").stream("x").random()
        assert early == late

    def test_fork_names_independent(self):
        root = RngRegistry(3)
        assert root.fork("rep-1").seed != root.fork("rep-2").seed

    def test_nested_fork_deterministic(self):
        a = RngRegistry(3).fork("rep-1").fork("worker-2").stream("x").random()
        b = RngRegistry(3).fork("rep-1").fork("worker-2").stream("x").random()
        assert a == b
