"""repro.lint.graph: summary extraction and linking.

Every lint rule is only as good as the facts under it, so this suite
pins the graph layer directly: what one module's summary records
(calls, taint verdicts, writes, clock reads, span facts, module-scope
code), and how the linker binds names across modules -- imports,
package re-exports, annotation- and constructor-driven method binding,
subclass fan-out, and the unique-name fallback for dynamic dispatch.
"""

import textwrap
from pathlib import Path

from repro.lint.core import ModuleSource, walk_python_files
from repro.lint.graph import build_program, extract_summary, module_name_for


def write_tree(tmp_path, files):
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return tmp_path


def parse_one(tmp_path, source, filename="mod.py"):
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return ModuleSource.parse(target.as_posix(), target.read_text())


def build(tmp_path, files):
    write_tree(tmp_path, files)
    summaries = []
    for path in walk_python_files([str(tmp_path)]):
        module = ModuleSource.parse(path.as_posix(), path.read_text())
        summaries.append(extract_summary(module))
    return build_program(summaries)


def fn(program, name):
    (fid,) = program.find_functions(name)
    return program.functions[fid]


class TestModuleNaming:
    def test_package_climb(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "",
        })
        assert module_name_for(tmp_path / "pkg/sub/mod.py") == "pkg.sub.mod"
        assert module_name_for(tmp_path / "pkg/sub/__init__.py") == "pkg.sub"

    def test_bare_file_keeps_stem(self, tmp_path):
        write_tree(tmp_path, {"loose.py": ""})
        assert module_name_for(tmp_path / "loose.py") == "loose"


class TestExtraction:
    def test_rng_sites_classify_seeding_and_taint(self, tmp_path):
        module = parse_one(tmp_path, """
            import numpy as np

            def unseeded():
                return np.random.default_rng()

            def constant():
                return np.random.default_rng(42)

            def plumbed(seed):
                return np.random.default_rng(seed)
        """)
        summary = extract_summary(module)
        by_fn = {
            name: facts.rng_sites[0]
            for name, facts in summary.functions.items()
        }
        assert not by_fn["unseeded"]["seeded"]
        assert by_fn["constant"]["seeded"] and not by_fn["constant"]["tainted"]
        assert by_fn["plumbed"]["seeded"] and by_fn["plumbed"]["tainted"]

    def test_taint_flows_through_assignment_loop_and_comprehension(self, tmp_path):
        module = parse_one(tmp_path, """
            import numpy as np

            def spawn(rng, count):
                children = rng.bit_generator.seed_seq.spawn(count)
                return [np.random.default_rng(c) for c in children]

            def loop(seed_root):
                derived = seed_root + 1
                out = []
                for item in [derived]:
                    out.append(np.random.default_rng(item))
                return out
        """)
        summary = extract_summary(module)
        for facts in summary.functions.values():
            for site in facts.rng_sites:
                assert site["tainted"], facts.name

    def test_global_and_shared_writes(self, tmp_path):
        module = parse_one(tmp_path, """
            _CACHE = {}
            _FLAG = False

            def get_shared_world(key):
                return _CACHE[key]

            def mutate(key, task):
                global _FLAG
                _FLAG = True
                world = get_shared_world(key)
                world.items[key] = task
                _CACHE[key] = world

            def harmless(key):
                local = {}
                local[key] = 1
                return local
        """)
        summary = extract_summary(module)
        mutate = summary.functions["mutate"]
        global_names = {w["name"] for w in mutate.global_writes}
        assert global_names == {"_FLAG", "_CACHE"}
        assert [w["name"] for w in mutate.shared_writes] == ["world"]
        assert not summary.functions["harmless"].global_writes

    def test_hash_feed_collects_nested_call_targets(self, tmp_path):
        module = parse_one(tmp_path, """
            from repro.exec.hashing import derive_seed

            def now_tag():
                return 0

            def fingerprint(root):
                return derive_seed(root, now_tag())
        """)
        summary = extract_summary(module)
        (feed,) = summary.functions["fingerprint"].hash_feeds
        assert feed["api"] == "derive_seed"
        assert ["local", "now_tag"] in feed["targets"]

    def test_span_return_direct_and_via_name(self, tmp_path):
        module = parse_one(tmp_path, """
            from repro.obs import span

            def direct(name):
                return span(name)

            def via_name(name):
                record = span(name)
                return record

            def unrelated(name):
                return name
        """)
        summary = extract_summary(module)
        assert summary.functions["direct"].returns_span
        assert summary.functions["via_name"].returns_span
        assert not summary.functions["unrelated"].returns_span

    def test_module_scope_code_lands_in_body(self, tmp_path):
        module = parse_one(tmp_path, """
            import time
            import numpy as np
            from repro.obs import span

            stamp = time.time()

            class Config:
                created = time.time()

                def reseed(self, rng=np.random.default_rng()):
                    return rng

            with span("setup"):
                pass
            opened = span("leak")
        """)
        summary = extract_summary(module)
        body = summary.body
        assert body.name == "<module>"
        assert [c["line"] for c in body.wallclock] == [6, 9]
        assert [s["seeded"] for s in body.rng_sites] == [False]
        assert [s["line"] for s in body.span_sites] == [16]
        assert not summary.classes["Config"].methods["reseed"].rng_sites

    def test_local_defs_and_pool_names(self, tmp_path):
        module = parse_one(tmp_path, """
            class Top:
                def method(self):
                    class Inner:
                        pass
                    return Inner

            def outer(tasks):
                def score(x):
                    return x
                pool = ProcessPoolExecutor(2)
                return pool.map(score, tasks)
        """)
        summary = extract_summary(module)
        assert summary.local_defs == ["Inner", "score"]
        assert "pool" in summary.pool_names
        (payload,) = summary.functions["outer"].payloads
        assert payload["sink"] == "pool.map(...)"
        assert payload["args"][0]["candidates"] == [["locally-defined 'score'", "score"]]


class TestLinking:
    def test_cross_module_and_reexport_resolution(self, tmp_path):
        program = build(tmp_path, {
            "pkg/__init__.py": "from pkg.inner import helper\n",
            "pkg/inner.py": """
                def helper():
                    return 1
            """,
            "user.py": """
                import pkg
                from pkg.inner import helper

                def direct():
                    return helper()

                def through_package():
                    return pkg.helper()
            """,
        })
        helper_id = program.find_functions("helper")[0]
        assert fn(program, "direct").edges == [helper_id]
        assert fn(program, "through_package").edges == [helper_id]

    def test_annotation_binding_includes_subclass_overrides(self, tmp_path):
        program = build(tmp_path, {
            "shapes.py": """
                class Base:
                    def run(self):
                        return 0

                class Derived(Base):
                    def run(self):
                        return 1

                def drive(task: Base):
                    return task.run()
            """,
        })
        edges = set(fn(program, "drive").edges)
        assert edges == {"shapes:Base.run", "shapes:Derived.run"}

    def test_constructor_assignment_binds_attribute_methods(self, tmp_path):
        program = build(tmp_path, {
            "engine.py": """
                class Worker:
                    def step(self):
                        return 1

                class Engine:
                    def __init__(self):
                        self.worker = Worker()

                    def tick(self):
                        return self.worker.step()
            """,
        })
        assert fn(program, "tick").edges == ["engine:Worker.step"]

    def test_dynamic_dispatch_binds_only_unique_names(self, tmp_path):
        program = build(tmp_path, {
            "a.py": """
                def only_here():
                    return 1

                def twice():
                    return 1
            """,
            "b.py": """
                def twice():
                    return 2

                def caller(x):
                    x.only_here()
                    x.twice()
            """,
        })
        assert fn(program, "caller").edges == ["a:only_here"]

    def test_reachability_keeps_parent_chains(self, tmp_path):
        program = build(tmp_path, {
            "chain.py": """
                def top():
                    return mid()

                def mid():
                    return bottom()

                def bottom():
                    return 1

                def island():
                    return 2
            """,
        })
        parents = program.reachable(["chain:top"])
        assert set(parents) == {"chain:top", "chain:mid", "chain:bottom"}
        assert program.chain(parents, "chain:bottom") == [
            "chain:top", "chain:mid", "chain:bottom",
        ]
        assert "chain:island" not in parents

    def test_task_classes_span_modules(self, tmp_path):
        program = build(tmp_path, {
            "base.py": """
                class EvalTask:
                    def run(self):
                        raise NotImplementedError
            """,
            "derived.py": """
                from base import EvalTask

                class ProbeTask(EvalTask):
                    def run(self):
                        return 1.0
            """,
        })
        assert program.task_classes() == ["base:EvalTask", "derived:ProbeTask"]

    def test_reverse_dependency_closure(self, tmp_path):
        program = build(tmp_path, {
            "core_mod.py": "def f():\n    return 1\n",
            "mid_mod.py": "from core_mod import f\n",
            "top_mod.py": "import mid_mod\n",
            "island_mod.py": "def g():\n    return 2\n",
        })
        core_path = (tmp_path / "core_mod.py").as_posix()
        wanted = program.reverse_dependency_closure([core_path])
        names = {Path(p).name for p in wanted}
        assert names == {"core_mod.py", "mid_mod.py", "top_mod.py"}
        unknown = program.reverse_dependency_closure(["nowhere.py"])
        assert unknown == {"nowhere.py"}
