"""True-positive and false-positive cases for the determinism rules."""

from __future__ import annotations

from tests.lint.conftest import rule_ids

DET_RULES = ("det-wallclock", "det-unseeded-random", "det-env-read",
             "det-set-iter")


class TestWallClock:
    def test_flags_time_time_call(self, lint_snippet):
        result = lint_snippet(
            """
            import time

            def stamp():
                return time.time()
            """,
            rules=["det-wallclock"],
        )
        assert rule_ids(result) == ["det-wallclock"]
        assert result.findings[0].line == 5

    def test_flags_aliased_import(self, lint_snippet):
        result = lint_snippet(
            """
            import time as t

            def stamp():
                return t.perf_counter()
            """,
            rules=["det-wallclock"],
        )
        assert rule_ids(result) == ["det-wallclock"]

    def test_flags_from_import_reference_without_call(self, lint_snippet):
        # Passing the clock as a default argument smuggles it just as
        # effectively as calling it.
        result = lint_snippet(
            """
            from time import monotonic

            def make(clock=monotonic):
                return clock
            """,
            rules=["det-wallclock"],
        )
        assert rule_ids(result) == ["det-wallclock"]

    def test_flags_datetime_now(self, lint_snippet):
        result = lint_snippet(
            """
            import datetime

            def today():
                return datetime.datetime.now()
            """,
            rules=["det-wallclock"],
        )
        assert rule_ids(result) == ["det-wallclock"]

    def test_ignores_simulated_time_and_sleep(self, lint_snippet):
        result = lint_snippet(
            """
            import time

            def advance(soc, dt):
                soc.advance_time(dt)
                time.sleep(0)  # throttling, not a clock read
            """,
            rules=["det-wallclock"],
        )
        assert result.findings == []

    def test_ignores_local_attribute_named_time(self, lint_snippet):
        result = lint_snippet(
            """
            def run(event):
                return event.time
            """,
            rules=["det-wallclock"],
        )
        assert result.findings == []


class TestUnseededRandom:
    def test_flags_stdlib_global_rng(self, lint_snippet):
        result = lint_snippet(
            """
            import random

            def roll():
                return random.randint(1, 6)
            """,
            rules=["det-unseeded-random"],
        )
        assert rule_ids(result) == ["det-unseeded-random"]

    def test_flags_from_import_call(self, lint_snippet):
        result = lint_snippet(
            """
            from random import random

            def draw():
                return random()
            """,
            rules=["det-unseeded-random"],
        )
        assert rule_ids(result) == ["det-unseeded-random"]

    def test_flags_numpy_global_rng(self, lint_snippet):
        result = lint_snippet(
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
            rules=["det-unseeded-random"],
        )
        assert rule_ids(result) == ["det-unseeded-random"]

    def test_allows_seeded_generators(self, lint_snippet):
        result = lint_snippet(
            """
            import random
            import numpy as np

            def generators(seed):
                return random.Random(seed), np.random.default_rng(seed)
            """,
            rules=["det-unseeded-random"],
        )
        assert result.findings == []

    def test_allows_method_on_generator_object(self, lint_snippet):
        result = lint_snippet(
            """
            def draw(rng):
                return rng.normal()
            """,
            rules=["det-unseeded-random"],
        )
        assert result.findings == []


class TestEnvRead:
    def test_flags_environ_subscript_and_getenv(self, lint_snippet):
        result = lint_snippet(
            """
            import os

            def configured():
                return os.environ["JOBS"], os.getenv("SHARDS")
            """,
            rules=["det-env-read"],
        )
        assert rule_ids(result) == ["det-env-read", "det-env-read"]

    def test_allows_env_in_cli_module(self, lint_snippet):
        result = lint_snippet(
            """
            import os

            def configured():
                return os.getenv("JOBS")
            """,
            rules=["det-env-read"],
            filename="cli.py",
        )
        assert result.findings == []

    def test_ignores_unrelated_environ_attribute(self, lint_snippet):
        result = lint_snippet(
            """
            def read(config):
                return config.environ
            """,
            rules=["det-env-read"],
        )
        assert result.findings == []


class TestSetIteration:
    def test_flags_for_over_set_call(self, lint_snippet):
        result = lint_snippet(
            """
            def walk(names):
                for name in set(names):
                    print(name)
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]

    def test_flags_union_of_sets(self, lint_snippet):
        result = lint_snippet(
            """
            def merge(a, b):
                out = {}
                for key in set(a) | set(b):
                    out[key] = a.get(key, b.get(key))
                return out
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]

    def test_flags_comprehension_over_set_literal(self, lint_snippet):
        result = lint_snippet(
            """
            def squares():
                return [x * x for x in {1, 2, 3}]
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]

    def test_sorted_wrapper_is_clean(self, lint_snippet):
        result = lint_snippet(
            """
            def walk(a, b):
                for name in sorted(set(a) | set(b)):
                    print(name)
            """,
            rules=["det-set-iter"],
        )
        assert result.findings == []

    def test_plain_list_iteration_is_clean(self, lint_snippet):
        result = lint_snippet(
            """
            def walk(names):
                for name in names:
                    print(name)
            """,
            rules=["det-set-iter"],
        )
        assert result.findings == []


class TestSetTypedLocals:
    """The dataflow half of det-set-iter: locals that hold sets."""

    def test_flags_local_assigned_from_set_call(self, lint_snippet):
        result = lint_snippet(
            """
            def walk(names):
                unique = set(names)
                for name in unique:
                    print(name)
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]
        assert "'unique'" in result.findings[0].message
        assert "set-typed local" in result.findings[0].message

    def test_flags_set_annotated_local(self, lint_snippet):
        result = lint_snippet(
            """
            from typing import Set

            def walk(loader):
                names: Set[str] = loader.names()
                for name in names:
                    print(name)
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]

    def test_flags_module_level_set_local(self, lint_snippet):
        result = lint_snippet(
            """
            NAMES = frozenset(["a", "b"])

            for name in NAMES:
                print(name)
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]

    def test_local_rebound_to_a_list_is_clean(self, lint_snippet):
        # One binding is a set, but another makes the name a list —
        # the rule only fires when every binding is set-producing.
        result = lint_snippet(
            """
            def walk(names, ordered):
                unique = set(names)
                if ordered:
                    unique = sorted(names)
                for name in unique:
                    print(name)
            """,
            rules=["det-set-iter"],
        )
        assert result.findings == []

    def test_sorted_set_local_is_clean(self, lint_snippet):
        result = lint_snippet(
            """
            def walk(names):
                unique = set(names)
                for name in sorted(unique):
                    print(name)
            """,
            rules=["det-set-iter"],
        )
        assert result.findings == []

    def test_loop_target_name_is_not_treated_as_set(self, lint_snippet):
        # ``group`` is bound by the outer loop, not a set constructor.
        result = lint_snippet(
            """
            def walk(groups):
                for group in groups:
                    for item in group:
                        print(item)
            """,
            rules=["det-set-iter"],
        )
        assert result.findings == []


class TestSortedConsumer:
    """A comprehension whose only consumer is ``sorted(...)`` cannot
    carry its iteration order into the result; with ``key=`` it can,
    because ``sorted`` keeps equal-key elements in iteration order."""

    FIXTURE = """
        import os

        class Accumulator:
            def update(self, shard):
                self.kinds = sorted(k for k in {d.kind for d in shard.devices})

            def finalize(self, root):
                return sorted(n for n in os.listdir(root))
    """

    def test_sorted_comprehensions_in_fold_path_are_clean(self, lint_tree):
        result = lint_tree(
            {"fleet/reducers.py": self.FIXTURE},
            rules=["det-set-iter", "det-taint"],
        )
        assert result.findings == []

    def test_sorted_with_key_is_still_reported(self, lint_tree):
        result = lint_tree(
            {
                "fleet/reducers.py": """
                    import os

                    class Accumulator:
                        def update(self, shard):
                            self.kinds = sorted(
                                (k for k in {d.kind for d in shard.devices}),
                                key=len,
                            )

                        def finalize(self, root):
                            return sorted([n for n in os.listdir(root)], key=len)
                """,
            },
            rules=["det-set-iter", "det-taint"],
        )
        assert rule_ids(result) == ["det-set-iter", "det-taint-order", "det-taint-order"]

    def test_comprehension_inside_the_element_is_still_reported(self, lint_snippet):
        result = lint_snippet(
            """
            def groups(rows):
                return sorted(tuple(x for x in {r for r in row}) for row in rows)
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]

    def test_shadowed_sorted_is_still_reported(self, lint_snippet):
        result = lint_snippet(
            """
            from ordering import sorted

            def kinds(devices):
                return sorted(k for k in {d.kind for d in devices})
            """,
            rules=["det-set-iter"],
        )
        assert rule_ids(result) == ["det-set-iter"]
