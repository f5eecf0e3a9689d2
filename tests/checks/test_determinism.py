"""Worker-path rules: each hazard fires, and suppresses."""

from repro.checks.determinism import (
    DETERMINISM_RULES,
    discover_worker_entries,
)
from repro.checks.engine import run_checks, run_project_checks
from repro.checks.graph import ProjectGraph
from repro.checks.rules import UnseededRandomRule


def _findings(tmp_path, rule_id=None):
    findings = run_project_checks([tmp_path], rules=DETERMINISM_RULES)
    if rule_id is not None:
        findings = [f for f in findings if f.rule == rule_id]
    return findings


class TestEntryDiscovery:
    def test_conventional_names_and_submit_targets(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.pool",
            """
            from concurrent.futures import ProcessPoolExecutor

            def _init_worker(state):
                pass

            def _run_shard(shard):
                pass

            def _task(x):
                return x

            def launch():
                with ProcessPoolExecutor(initializer=_init_worker) as pool:
                    pool.submit(_task, 1)
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        entries = {e.qualname: e.kind for e in discover_worker_entries(graph)}
        assert "repro.core.pool._init_worker" in entries
        assert entries["repro.core.pool._run_shard"] == "conventional"
        assert entries["repro.core.pool._task"] == "submitted"


class TestWorkerWallClock:
    SOURCE = """
        import time

        def _run_shard(shard):
            start = time.perf_counter()  {suffix}
            return shard, start
        """

    def test_fires_with_chain_note(self, write_module, tmp_path):
        write_module("repro.core.clock", self.SOURCE.format(suffix=""))
        findings = _findings(tmp_path, "worker-wall-clock")
        assert len(findings) == 1
        assert "time.perf_counter" in findings[0].message
        assert "_run_shard" in findings[0].message

    def test_suppressed(self, write_module, tmp_path):
        write_module(
            "repro.core.clock",
            self.SOURCE.format(suffix="# repro: ignore[worker-wall-clock]"),
        )
        assert _findings(tmp_path, "worker-wall-clock") == []

    def test_setup_adoption_clock_fires(self, write_module, tmp_path):
        # The setup-token adoption runs in pool children before every
        # shard; it may write worker state, but not read the clock.
        write_module(
            "repro.core.adopt",
            """
            import pickle
            import time

            _WORKER_SETUP = None

            def _adopt_setup(setup_key, setup):
                global _WORKER_SETUP
                if _WORKER_SETUP is None or _WORKER_SETUP[0] != setup_key:
                    state = pickle.loads(setup)
                    _WORKER_SETUP = (setup_key, state, time.time())
                return _WORKER_SETUP
            """,
        )
        graph = ProjectGraph.build([tmp_path])
        entries = {e.qualname: e.kind for e in discover_worker_entries(graph)}
        assert "repro.core.adopt._adopt_setup" in entries
        findings = _findings(tmp_path, "worker-wall-clock")
        assert len(findings) == 1
        assert "time.time" in findings[0].message
        assert "_adopt_setup" in findings[0].message

    def test_parent_side_clock_is_clean(self, write_module, tmp_path):
        write_module(
            "repro.core.parent",
            """
            import time

            def _run_shard(shard):
                return shard

            def orchestrate(pool, shards):
                start = time.perf_counter()
                futures = [pool.submit(_run_shard, s) for s in shards]
                return time.perf_counter() - start, futures
            """,
        )
        assert _findings(tmp_path, "worker-wall-clock") == []


class TestWorkerEntropy:
    """Entropy drawn on the worker path is an ``unseeded-random`` finding."""

    def _findings(self, path):
        return [
            f
            for f in run_checks([path], rules=[UnseededRandomRule()])
            if f.rule == "unseeded-random"
        ]

    def _source(self, call):
        return f"""
            import os
            import random
            import numpy

            def _run_shard(shard):
                return {call}
            """

    def test_stdlib_random_fires(self, write_module):
        path = write_module("repro.core.ent", self._source("random.random()"))
        findings = self._findings(path)
        assert len(findings) == 1
        assert "uses global state" in findings[0].message

    def test_legacy_numpy_global_fires(self, write_module):
        path = write_module(
            "repro.core.ent", self._source("numpy.random.rand(3)")
        )
        findings = self._findings(path)
        assert len(findings) == 1
        assert "hidden global state" in findings[0].message

    def test_unseeded_default_rng_fires(self, write_module):
        path = write_module(
            "repro.core.ent",
            """
            from numpy.random import default_rng

            def _run_shard(shard):
                return default_rng().integers(0, 10)
            """,
        )
        assert len(self._findings(path)) == 1

    def test_seeded_default_rng_is_clean(self, write_module):
        path = write_module(
            "repro.core.ent",
            """
            from numpy.random import default_rng

            def _run_shard(shard):
                return default_rng(shard).integers(0, 10)
            """,
        )
        assert self._findings(path) == []


class TestSanctionedTelemetry:
    """The ``repro.obs`` allowlist: clocks are sanctioned there, nowhere else."""

    OBS_HELPER = """
        import time

        def stamp():
            return time.perf_counter_ns()
        """

    WORKER = """
        from repro.obs.fake import stamp

        def _run_shard(shard):
            return shard, stamp()
        """

    def test_obs_module_clock_is_clean(self, write_module, tmp_path):
        write_module("repro.obs.fake", self.OBS_HELPER)
        write_module("repro.core.pool", self.WORKER)
        assert _findings(tmp_path, "worker-wall-clock") == []

    def test_results_path_clock_still_fires(self, write_module, tmp_path):
        # The allowlist keys on the *defining* module: the same clock call
        # in a results-path module is still a hazard.
        write_module(
            "repro.core.clockhelper",
            """
            import time

            def stamp():
                return time.perf_counter_ns()

            def _run_shard(shard):
                return shard, stamp()
            """,
        )
        assert len(_findings(tmp_path, "worker-wall-clock")) == 1

    def test_worker_calling_into_obs_and_core_fires_once(
        self, write_module, tmp_path
    ):
        # Mixed closure: the obs-side read is sanctioned, the core-side
        # read is not — exactly one finding.
        write_module("repro.obs.fake", self.OBS_HELPER)
        write_module(
            "repro.core.pool",
            """
            import time

            from repro.obs.fake import stamp

            def _run_shard(shard):
                started = time.perf_counter()
                return shard, stamp(), started
            """,
        )
        findings = _findings(tmp_path, "worker-wall-clock")
        assert len(findings) == 1
        assert findings[0].path.endswith("pool.py")

    def test_predicate(self):
        from repro.checks.determinism import is_sanctioned_telemetry

        assert is_sanctioned_telemetry("repro.obs")
        assert is_sanctioned_telemetry("repro.obs.trace")
        assert not is_sanctioned_telemetry("repro.observability")
        assert not is_sanctioned_telemetry("repro.core.executor")


class TestWorkerExceptionSwallow:
    def test_bare_except_pass_fires(self, write_module, tmp_path):
        write_module(
            "repro.core.swallow",
            """
            def _run_shard(shard):
                try:
                    return compute(shard)
                except:
                    pass

            def compute(shard):
                return shard
            """,
        )
        findings = _findings(tmp_path, "worker-exception-swallow")
        assert len(findings) == 1
        assert "bare 'except:'" in findings[0].message
        assert "let it propagate" in findings[0].message

    def test_broad_except_on_called_path_fires(self, write_module, tmp_path):
        write_module(
            "repro.core.swallow",
            """
            def _run_shard(shard):
                return compute(shard)

            def compute(shard):
                for item in shard:
                    try:
                        item.work()
                    except (ValueError, Exception):
                        continue
            """,
        )
        findings = _findings(tmp_path, "worker-exception-swallow")
        assert len(findings) == 1
        assert "'except Exception:'" in findings[0].message
        assert "compute" in findings[0].message

    def test_handler_that_reraises_is_clean(self, write_module, tmp_path):
        write_module(
            "repro.core.swallow",
            """
            def _run_shard(shard):
                try:
                    return compute(shard)
                except Exception:
                    raise RuntimeError("shard failed")

            def compute(shard):
                return shard
            """,
        )
        assert _findings(tmp_path, "worker-exception-swallow") == []

    def test_specific_exception_is_clean(self, write_module, tmp_path):
        write_module(
            "repro.core.swallow",
            """
            def _run_shard(shard):
                try:
                    return compute(shard)
                except OSError:
                    pass

            def compute(shard):
                return shard
            """,
        )
        assert _findings(tmp_path, "worker-exception-swallow") == []

    def test_parent_side_code_is_exempt(self, write_module, tmp_path):
        write_module(
            "repro.core.swallow",
            """
            def dispatcher_only(pool):
                try:
                    pool.poke()
                except Exception:
                    pass
            """,
        )
        assert _findings(tmp_path, "worker-exception-swallow") == []

    def test_suppressed(self, write_module, tmp_path):
        write_module(
            "repro.core.swallow",
            """
            def _run_shard(shard):
                try:
                    return compute(shard)
                except Exception:  # repro: ignore[worker-exception-swallow]
                    pass

            def compute(shard):
                return shard
            """,
        )
        assert _findings(tmp_path, "worker-exception-swallow") == []


class TestChainRendering:
    def test_deep_chain_is_elided(self, write_module, tmp_path):
        body = ["import time", "", "def _run_shard(x):", "    f1(x)", ""]
        for i in range(1, 7):
            body.append(f"def f{i}(x):")
            body.append(
                f"    f{i + 1}(x)" if i < 6 else "    time.time()"
            )
            body.append("")
        write_module("repro.core.deep", "\n".join(body))
        findings = _findings(tmp_path, "worker-wall-clock")
        assert len(findings) == 1
        assert "…" in findings[0].message
