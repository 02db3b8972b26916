"""Worker-boundary hazards: worker globals (``conc-global-mutation``),
closures on payloads (``pck-payload``) and unordered folds
(``det-taint``)."""

from __future__ import annotations

from tests.lint.conftest import rule_ids


# -- conc-global-mutation --------------------------------------------------


def test_worker_reachable_global_mutation_is_flagged_with_chain(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                from fleet.metrics import record

                def run_shard(task):
                    record(task)
            """,
            "fleet/metrics.py": """
                SEEN = []

                def record(task):
                    SEEN.append(task)
            """,
        },
        rules=["conc-global-mutation"],
    )
    assert rule_ids(result) == ["conc-global-mutation"]
    finding = result.findings[0]
    assert finding.path.endswith("metrics.py")
    assert "'SEEN'" in finding.message
    assert "fleet.work.run_shard -> fleet.metrics.record" in finding.message


def test_global_statement_rebind_in_worker_is_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                COUNTER = 0

                def run_shard(task):
                    global COUNTER
                    COUNTER = COUNTER + 1
            """,
        },
        rules=["conc-global-mutation"],
    )
    assert rule_ids(result) == ["conc-global-mutation"]
    assert "'COUNTER'" in result.findings[0].message


def test_local_shadowing_a_module_name_is_not_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                CACHE = {}

                def run_shard(task):
                    CACHE = {}
                    CACHE["x"] = task
                    return CACHE
            """,
        },
        rules=["conc-global-mutation"],
    )
    assert result.findings == []


def test_mutation_outside_the_worker_graph_is_not_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                def run_shard(task):
                    return task
            """,
            "fleet/registry.py": """
                REGISTRY = {}

                def register(name, value):
                    REGISTRY[name] = value
            """,
        },
        rules=["conc-global-mutation"],
    )
    assert result.findings == []


# -- pck-payload: closures built by helpers --------------------------------


def test_helper_returned_closure_stored_on_payload_is_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                from fleet.handlers import make_handler

                class ShardTask:
                    def __init__(self):
                        self.on_event = make_handler()
            """,
            "fleet/handlers.py": """
                def make_handler():
                    def handle(event):
                        return event
                    return handle
            """,
        },
        rules=["pck-payload"],
    )
    assert rule_ids(result) == ["pck-lambda"]
    assert "closure returned by fleet.handlers.make_handler" in (
        result.findings[0].message
    )


def test_closure_through_two_helpers_is_still_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                from fleet.handlers import default_handler

                class ShardResult:
                    def __init__(self):
                        self.callback = default_handler()
            """,
            "fleet/handlers.py": """
                def default_handler():
                    return build()

                def build():
                    return lambda event: event
            """,
        },
        rules=["pck-payload"],
    )
    assert rule_ids(result) == ["pck-lambda"]


def test_helper_returning_a_value_is_not_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                from fleet.handlers import default_limit

                class ShardTask:
                    def __init__(self):
                        self.limit = default_limit()
            """,
            "fleet/handlers.py": """
                def default_limit():
                    return 32
            """,
        },
        rules=["pck-payload"],
    )
    assert result.findings == []


def test_closure_on_a_non_payload_class_is_not_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                class ShardTask:
                    pass
            """,
            "fleet/local.py": """
                def make():
                    return lambda x: x

                class InProcessOnly:
                    def __init__(self):
                        self.fn = make()
            """,
        },
        rules=["pck-payload"],
    )
    assert result.findings == []


# -- det-taint: unordered folds --------------------------------------------


def test_float_accumulation_over_set_in_fold_path_is_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/reducers.py": """
                class Accumulator:
                    def update(self, shard):
                        pass

                class EnergyAccumulator(Accumulator):
                    def update(self, shard):
                        total = 0.0
                        for device in {d for d in shard.devices}:
                            total += device.joules
                        self.total = total
            """,
        },
        rules=["det-taint"],
    )
    assert rule_ids(result) == ["det-taint-order"]
    assert "a set expression" in result.findings[0].message


def test_accumulation_over_os_listing_in_fold_helper_is_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/reducers.py": """
                from fleet.disk import sum_sizes

                class Accumulator:
                    def update(self, shard):
                        pass

                class SizeAccumulator(Accumulator):
                    def update(self, shard):
                        self.bytes = sum_sizes(shard.root)
            """,
            "fleet/disk.py": """
                import os

                def sum_sizes(root):
                    total = 0.0
                    for name in os.listdir(root):
                        total = total + len(name)
                    return total
            """,
        },
        rules=["det-taint"],
    )
    assert rule_ids(result) == ["det-taint-order"]
    assert "os.listdir" in result.findings[0].message


def test_sorted_iteration_in_fold_path_is_not_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/reducers.py": """
                class Accumulator:
                    def update(self, shard):
                        pass

                class EnergyAccumulator(Accumulator):
                    def update(self, shard):
                        total = 0.0
                        for device in sorted({d for d in shard.devices}):
                            total += device.joules
                        self.total = total
            """,
        },
        rules=["det-taint"],
    )
    assert result.findings == []


def test_accumulation_outside_fold_paths_is_not_flagged(lint_tree):
    result = lint_tree(
        {
            "fleet/reducers.py": """
                class Accumulator:
                    def update(self, shard):
                        pass
            """,
            "fleet/elsewhere.py": """
                def tally(items):
                    total = 0.0
                    for item in {i for i in items}:
                        total += item
                    return total
            """,
        },
        rules=["det-taint"],
    )
    assert result.findings == []


# -- one owner per hazard ----------------------------------------------------


def test_each_worker_boundary_hazard_is_reported_once(lint_tree):
    result = lint_tree(
        {
            "fleet/work.py": """
                from fleet.handlers import make_handler

                class ShardTask:
                    def __init__(self):
                        self.key = lambda event: event
                        self.on_event = make_handler()
            """,
            "fleet/handlers.py": """
                def make_handler():
                    def handle(event):
                        return event
                    return handle
            """,
            "fleet/reducers.py": """
                import os

                class Accumulator:
                    def update(self, shard):
                        total = 0.0
                        for device in {d for d in shard.devices}:
                            total += device.joules
                        self.total = total

                    def finalize(self, root):
                        total = 0.0
                        for name in os.listdir(root):
                            total += len(name)
                        return total
            """,
        },
    )
    sites = sorted(
        (finding.path.rsplit("/", 1)[-1], finding.line, finding.rule_id)
        for finding in result.findings
    )
    # Each stored closure is one pck-lambda; the set loop keeps its
    # file-scope rule and its taint counterpart; the listing is one
    # det-taint-order.
    assert sites == [
        ("reducers.py", 7, "det-set-iter"),
        ("reducers.py", 7, "det-taint-order"),
        ("reducers.py", 13, "det-taint-order"),
        ("work.py", 6, "pck-lambda"),
        ("work.py", 7, "pck-lambda"),
    ]
