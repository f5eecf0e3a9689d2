"""The interprocedural flow analysis: exception escape."""

from repro.checks.flow import EscapeAnalysis
from repro.checks.graph import ProjectGraph


def _graph(tmp_path):
    return ProjectGraph.build([tmp_path])


def _qual(graph, suffix):
    matches = [q for q in graph.functions if q.endswith(suffix)]
    assert len(matches) == 1, (suffix, matches)
    return matches[0]


def _class_qual(graph, suffix):
    matches = [q for q in graph.classes if q.endswith(suffix)]
    assert len(matches) == 1, (suffix, matches)
    return matches[0]


class TestEscapeAnalysis:
    def test_raise_escapes_and_propagates_up_call_chain(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.esc",
            """
            def low():
                raise RuntimeError("boom")

            def mid():
                return low()

            def top():
                return mid()
            """,
        )
        graph = _graph(tmp_path)
        analysis = EscapeAnalysis(graph)
        escapes = analysis.escapes(_qual(graph, ".top"))
        assert "RuntimeError" in escapes
        # The origin names the actual raise site, not the call chain.
        assert escapes["RuntimeError"].qualname.endswith(".low")

    def test_enclosing_handler_absorbs_subclasses(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.absorb",
            """
            def read():
                raise FileNotFoundError("gone")

            def guarded():
                try:
                    return read()
                except OSError:
                    return None
            """,
        )
        graph = _graph(tmp_path)
        analysis = EscapeAnalysis(graph)
        # except OSError absorbs FileNotFoundError via the builtin MRO.
        assert analysis.escapes(_qual(graph, ".guarded")) == {}

    def test_reraising_handler_is_transparent(self, write_module, tmp_path):
        write_module(
            "repro.core.reraise",
            """
            def low():
                raise RuntimeError("boom")

            def logged():
                try:
                    return low()
                except RuntimeError:
                    raise
            """,
        )
        graph = _graph(tmp_path)
        analysis = EscapeAnalysis(graph)
        assert "RuntimeError" in analysis.escapes(_qual(graph, ".logged"))

    def test_internal_hierarchy_resolves_to_builtin_mro(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.hier",
            """
            class CampaignError(RuntimeError):
                pass

            class ShardCrash(CampaignError):
                pass

            def crash():
                raise ShardCrash("dead worker")

            def typed_guard():
                try:
                    crash()
                except CampaignError:
                    pass

            def generic_guard():
                try:
                    crash()
                except ValueError:
                    pass
            """,
        )
        graph = _graph(tmp_path)
        analysis = EscapeAnalysis(graph)
        shard = _class_qual(graph, ".ShardCrash")
        assert "RuntimeError" in analysis.ancestors(shard)
        assert analysis.escapes(_qual(graph, ".typed_guard")) == {}
        assert shard in analysis.escapes(_qual(graph, ".generic_guard"))

    def test_handler_body_raises_are_not_protected(
        self, write_module, tmp_path
    ):
        write_module(
            "repro.core.handler",
            """
            def translate():
                try:
                    risky()
                except ValueError:
                    raise KeyError("translated")

            def risky():
                raise ValueError("bad")
            """,
        )
        graph = _graph(tmp_path)
        analysis = EscapeAnalysis(graph)
        escapes = analysis.escapes(_qual(graph, ".translate"))
        # The except absorbed the ValueError, but the KeyError raised
        # *inside* the handler body escapes freely.
        assert "ValueError" not in escapes
        assert "KeyError" in escapes
