"""repro.lint.flow: the interprocedural side of the fact-based rules.

Each rule gets bad/good fixture pairs built as a small multi-file
package under tmp_path, run through the real Linter with only that rule
selected -- the same path ``repro lint`` takes, so these tests cover the
extract -> link -> check pipeline end to end rather than poking rule
internals.
"""

import textwrap

from repro.lint import default_rules
from repro.lint.core import LintConfig, Linter


def run_rules(tmp_path, files, select):
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    config = LintConfig(select=set(select), baseline_path=None)
    return Linter(default_rules(config), config).run([tmp_path.as_posix()])


TASK_BASE = """
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class EvalTask:
        seed: int

        def run(self):
            raise NotImplementedError
"""


class TestRngTaint:
    def test_unplumbed_rng_on_run_path_is_flagged_with_chain(self, tmp_path):
        result = run_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": TASK_BASE,
            "pkg/probe.py": """
                from dataclasses import dataclass

                import numpy as np

                from pkg.base import EvalTask


                def entropy():
                    return np.random.default_rng().normal()


                @dataclass(frozen=True)
                class ProbeTask(EvalTask):
                    def run(self):
                        return entropy()
            """,
        }, {"rng-taint"})
        (finding,) = result.findings
        assert finding.rule == "rng-taint"
        assert "entropy" in finding.message
        assert " <- " in finding.message
        assert "ProbeTask.run" in finding.message

    def test_seed_plumbed_from_task_field_is_clean(self, tmp_path):
        result = run_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": TASK_BASE,
            "pkg/probe.py": """
                from dataclasses import dataclass

                import numpy as np

                from pkg.base import EvalTask


                def sample(seed):
                    return np.random.default_rng(seed).normal()


                @dataclass(frozen=True)
                class ProbeTask(EvalTask):
                    def run(self):
                        return sample(self.seed)
            """,
        }, {"rng-taint"})
        assert result.findings == []

    def test_constant_seed_off_run_path_is_not_this_rules_business(self, tmp_path):
        result = run_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": TASK_BASE,
            "pkg/loose.py": """
                import numpy as np


                def rehearse():
                    return np.random.default_rng(42)
            """,
        }, {"rng-taint"})
        assert result.findings == []

    def test_unseeded_site_is_flagged_anywhere_and_once(self, tmp_path):
        result = run_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": TASK_BASE,
            "pkg/loose.py": """
                import numpy as np


                def rehearse():
                    return np.random.default_rng()
            """,
        }, {"rng-taint"})
        (finding,) = result.findings
        assert finding.symbol == "numpy.random.default_rng"
        assert "task-reachable" not in finding.message

    def test_site_pragma_suppresses(self, tmp_path):
        result = run_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": TASK_BASE,
            "pkg/probe.py": """
                from dataclasses import dataclass

                import numpy as np

                from pkg.base import EvalTask


                @dataclass(frozen=True)
                class ProbeTask(EvalTask):
                    def run(self):
                        return np.random.default_rng().normal()  # lint: ignore[rng-taint]
            """,
        }, {"rng-taint"})
        assert result.findings == []


WORKER_POOL = textwrap.dedent("""
    _REGISTRY = {}


    def get_shared_world(key):
        return _REGISTRY[key]


    def _run_task_timed(task):
        return _apply(task)
""")


class TestWorkerStateMutation:
    def test_global_and_shared_writes_in_worker_closure_are_flagged(self, tmp_path):
        files = {"pool.py": WORKER_POOL + textwrap.dedent("""
            def _apply(task):
                world = get_shared_world(task)
                world.items[task] = 1
                _REGISTRY[task] = world
                return world
        """)}
        result = run_rules(tmp_path, files, {"worker-state-mutation"})
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 2
        assert any("_REGISTRY" in m for m in messages)
        assert any("world" in m for m in messages)

    def test_local_state_in_worker_closure_is_clean(self, tmp_path):
        files = {"pool.py": WORKER_POOL + textwrap.dedent("""
            def _apply(task):
                scratch = {}
                scratch[task] = 1
                return scratch
        """)}
        result = run_rules(tmp_path, files, {"worker-state-mutation"})
        assert result.findings == []

    def test_writes_outside_worker_closure_are_clean(self, tmp_path):
        result = run_rules(tmp_path, {
            "config.py": """
                _SETTINGS = {}


                def configure(key, value):
                    _SETTINGS[key] = value
            """,
        }, {"worker-state-mutation"})
        assert result.findings == []

    def test_sanctioned_shared_registry_is_clean(self, tmp_path):
        result = run_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/exec/__init__.py": "",
            "repro/exec/tasks.py": """
                _SHARED = {}


                def _run_task_timed(task):
                    _SHARED[task] = 1
                    return task
            """,
        }, {"worker-state-mutation"})
        assert result.findings == []


class TestPickleReachability:
    def test_opaque_and_transitive_fields_are_flagged(self, tmp_path):
        result = run_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": TASK_BASE,
            "pkg/tasks.py": """
                from dataclasses import dataclass
                from typing import Callable

                from pkg.base import EvalTask


                @dataclass(frozen=True)
                class Inner:
                    fn: object


                @dataclass(frozen=True)
                class OpaqueTask(EvalTask):
                    payload: object
                    hook: Callable
                    inner: Inner

                    def run(self):
                        return self.payload
            """,
        }, {"pickle-safety"})
        flagged = sorted(f.message for f in result.findings)
        assert len(flagged) == 3
        assert any("payload" in m for m in flagged)
        assert any("hook" in m for m in flagged)
        assert any("inner" in m for m in flagged)

    def test_picklable_and_numpy_fields_are_clean(self, tmp_path):
        result = run_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": TASK_BASE,
            "pkg/tasks.py": """
                from dataclasses import dataclass
                from typing import Optional, Tuple

                import numpy as np

                from pkg.base import EvalTask


                @dataclass(frozen=True)
                class Leaf:
                    weight: float
                    name: str


                @dataclass(frozen=True)
                class GoodTask(EvalTask):
                    values: np.ndarray
                    label: Optional[str]
                    leaves: Tuple[Leaf, ...]

                    def run(self):
                        return float(self.values.sum())
            """,
        }, {"pickle-safety"})
        assert result.findings == []


class TestWallclockFingerprint:
    FILES = {
        "repro/__init__.py": "",
        "repro/exec/__init__.py": "",
        "repro/exec/hashing.py": """
            def derive_seed(*parts):
                return 0
        """,
    }

    def test_clock_reaching_hash_feed_is_flagged_at_feed_site(self, tmp_path):
        files = dict(self.FILES)
        files["repro/keys.py"] = """
            import time

            from repro.exec.hashing import derive_seed


            def now_tag():
                return int(time.time())  # lint: ignore[wall-clock]


            def fingerprint(root):
                return derive_seed(root, now_tag())
        """
        result = run_rules(tmp_path, files, {"wall-clock"})
        (finding,) = result.findings
        assert finding.rule == "wall-clock"
        assert "now_tag" in finding.message
        assert finding.path.endswith("keys.py")

    def test_pure_inputs_are_clean(self, tmp_path):
        files = dict(self.FILES)
        files["repro/keys.py"] = """
            from repro.exec.hashing import derive_seed


            def label(root):
                return str(root)


            def fingerprint(root):
                return derive_seed(root, label(root))
        """
        result = run_rules(tmp_path, files, {"wall-clock"})
        assert result.findings == []

    def test_interprocedural_pragma_at_clock_site_suppresses(self, tmp_path):
        """Pragmas act per line: one at the clock read sanctions the read
        only, and the fingerprint chain through it is suppressed at the
        feed site or not at all."""
        files = dict(self.FILES)
        files["repro/keys.py"] = """
            import time

            from repro.exec.hashing import derive_seed


            def coarse_day():
                return int(time.time() // 86400)  # lint: ignore[wall-clock]


            def fingerprint(root):
                return derive_seed(root, coarse_day())
        """
        result = run_rules(tmp_path, files, {"wall-clock"})
        (finding,) = result.findings
        assert "coarse_day" in finding.message
        assert finding.line == 12

        files["repro/keys.py"] = files["repro/keys.py"].replace(
            "derive_seed(root, coarse_day())",
            "derive_seed(root, coarse_day())  # lint: ignore[wall-clock]",
        )
        result = run_rules(tmp_path, files, {"wall-clock"})
        assert result.findings == []
        assert result.pragma_suppressed == 2


class TestSpanEscape:
    FILES = {
        "repro/__init__.py": "",
        "repro/obs/__init__.py": """
            class span:
                def __init__(self, name):
                    self.name = name

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False
        """,
    }

    def test_bare_call_to_span_returning_helper_is_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["repro/phases.py"] = """
            from repro.obs import span


            def open_phase(name):
                return span(name)  # lint: ignore[span-balance]


            def run_phase(name):
                open_phase(name)
                return name
        """
        result = run_rules(tmp_path, files, {"span-balance"})
        (finding,) = result.findings
        assert finding.rule == "span-balance"
        assert "open_phase" in finding.message

    def test_with_consumed_helper_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["repro/phases.py"] = """
            from repro.obs import span


            def open_phase(name):
                return span(name)  # lint: ignore[span-balance]


            def run_phase(name):
                with open_phase(name):
                    return name
        """
        result = run_rules(tmp_path, files, {"span-balance"})
        assert result.findings == []

    def test_wrapper_chains_propagate_span_returning(self, tmp_path):
        files = dict(self.FILES)
        files["repro/phases.py"] = """
            from repro.obs import span


            def open_phase(name):
                return span(name)  # lint: ignore[span-balance]


            def open_wrapped(name):
                return open_phase(name)


            def run_phase(name):
                open_wrapped(name)
                return name
        """
        result = run_rules(tmp_path, files, {"span-balance"})
        (finding,) = result.findings
        assert "open_wrapped" in finding.message
