"""Project graph: symbol collection, call resolution, reachability."""

import ast

from repro.checks.graph import ProjectGraph


class TestSymbolCollection:
    def test_functions_classes_and_methods(self, write_module, tmp_path):
        write_module(
            "repro.core.widget",
            """
            class Widget:
                def spin(self):
                    return 1

            def make():
                return Widget()
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        assert "repro.core.widget.make" in graph.functions
        assert "repro.core.widget.Widget" in graph.classes
        assert (
            graph.classes["repro.core.widget.Widget"].methods["spin"]
            == "repro.core.widget.Widget.spin"
        )

    def test_syntax_error_file_skipped(self, write_module, tmp_path):
        write_module("repro.core.good", "def fine(): pass\n")
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.write_text("def broken(:\n")
        graph = ProjectGraph.build([tmp_path])
        assert "repro.core.good.fine" in graph.functions
        assert all("bad" not in q for q in graph.functions)


class TestCallResolution:
    def test_direct_function_call(self, write_module, tmp_path):
        write_module(
            "repro.core.a",
            """
            def helper():
                return 1

            def caller():
                return helper()
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        calls = graph.functions["repro.core.a.caller"].calls
        assert any("repro.core.a.helper" in site.targets for site in calls)

    def test_cross_module_import_call(self, write_module, tmp_path):
        write_module("repro.core.util", "def shared(): pass\n")
        write_module(
            "repro.core.user",
            """
            from repro.core.util import shared

            def go():
                shared()
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        calls = graph.functions["repro.core.user.go"].calls
        assert any("repro.core.util.shared" in site.targets for site in calls)

    def test_typed_attribute_method_resolution(self, write_module, tmp_path):
        write_module(
            "repro.core.typed",
            """
            class Controller:
                def execute(self):
                    return 1

            class Executor:
                def __init__(self, controller: Controller):
                    self.controller = controller

                def run(self):
                    return self.controller.execute()
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        calls = graph.functions["repro.core.typed.Executor.run"].calls
        resolved = [t for site in calls for t in site.targets]
        assert "repro.core.typed.Controller.execute" in resolved
        # Typed resolution must not fall back to "every method named
        # execute" when the receiver's class is known.
        assert all("Executor.execute" not in t for t in resolved)

    def test_external_dotted_call_recorded(self, write_module, tmp_path):
        write_module(
            "repro.core.ext",
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        calls = graph.functions["repro.core.ext.stamp"].calls
        assert any(site.external == "time.perf_counter" for site in calls)


class TestReachability:
    def test_bfs_chain_is_shortest(self, write_module, tmp_path):
        write_module(
            "repro.core.chain",
            """
            def leaf():
                pass

            def mid():
                leaf()

            def entry():
                mid()
                leaf()
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        chains = graph.reachable(["repro.core.chain.entry"])
        assert set(chains) == {
            "repro.core.chain.entry",
            "repro.core.chain.mid",
            "repro.core.chain.leaf",
        }
        # leaf is called both directly and via mid; BFS keeps the
        # direct (shorter) chain.
        assert chains["repro.core.chain.leaf"] == (
            "repro.core.chain.entry",
            "repro.core.chain.leaf",
        )

    def test_unreached_function_absent(self, write_module, tmp_path):
        write_module(
            "repro.core.island",
            """
            def entry():
                pass

            def stranded():
                pass
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        chains = graph.reachable(["repro.core.island.entry"])
        assert "repro.core.island.stranded" not in chains


class TestCallableRefs:
    def test_name_and_dotted_refs_resolve(self, write_module, tmp_path):
        write_module(
            "repro.core.refs",
            """
            def worker():
                pass
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        name_ref = ast.parse("worker", mode="eval").body
        assert (
            graph.resolve_callable_ref("repro.core.refs", name_ref)
            == "repro.core.refs.worker"
        )


class TestEdgeCases:
    def test_decorated_function_is_collected_and_resolved(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.deco",
            """
            import functools

            @functools.lru_cache(maxsize=None)
            def cached(x):
                return x

            def use():
                return cached(3)
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        assert "repro.core.deco.cached" in graph.functions
        calls = graph.functions["repro.core.deco.use"].calls
        assert any("repro.core.deco.cached" in site.targets for site in calls)

    def test_lambda_callables_are_opaque_not_fatal(
        self, write_module, tmp_path
    ):
        # A lambda body belongs to a scope the graph does not model: the
        # call through it resolves to no targets, and a lambda handed to
        # pool.submit contributes no worker entry — but neither crashes
        # graph construction or reachability.
        write_module(
            "repro.core.lam",
            """
            from concurrent.futures import ProcessPoolExecutor

            def indirect():
                f = lambda v: v + 1
                return f(2)

            def launch(pool: ProcessPoolExecutor):
                pool.submit(lambda: 1)
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        calls = graph.functions["repro.core.lam.indirect"].calls
        assert all(site.targets == () for site in calls)
        assert graph.reachable(["repro.core.lam.indirect"]) == {
            "repro.core.lam.indirect": ("repro.core.lam.indirect",)
        }

    def test_method_resolution_through_dataclass_attribute(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.holder",
            """
            from dataclasses import dataclass

            class Engine:
                def run(self):
                    return 1

            @dataclass
            class Holder:
                engine: Engine

                def go(self):
                    return self.engine.run()
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        calls = graph.functions["repro.core.holder.Holder.go"].calls
        assert any(
            "repro.core.holder.Engine.run" in site.targets for site in calls
        )

    def test_call_cycle_reachability_terminates(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.cycle",
            """
            def ping(n):
                return pong(n)

            def pong(n):
                if n:
                    return ping(n - 1)
                return 0
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        chains = graph.reachable(["repro.core.cycle.ping"])
        assert set(chains) == {
            "repro.core.cycle.ping",
            "repro.core.cycle.pong",
        }
        # Shortest chains, not cycle-inflated ones.
        assert chains["repro.core.cycle.pong"] == (
            "repro.core.cycle.ping",
            "repro.core.cycle.pong",
        )
