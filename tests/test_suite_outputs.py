"""Tests for the DPF-style output-file writer and registry consistency."""

import pytest

from repro.suite import REGISTRY, SMALL_PARAMS, run_benchmark
from repro.suite.outputs import render_output, write_outputs


class TestOutputs:
    def test_render_contains_metrics(self, session):
        rep = run_benchmark("diff-3d", session, nx=8, steps=2)
        text = render_output(rep, session.machine.describe())
        assert "busy time" in text
        assert "elapsed floprate" in text
        assert "verification observables" in text
        assert "CM-5/32" in text

    def test_write_outputs_files(self, tmp_path, session_factory):
        reports = write_outputs(
            tmp_path,
            session_factory,
            names=["gmo", "diff-3d"],
            params={
                "gmo": {"ns": 64, "ntr": 8},
                "diff-3d": {"nx": 8, "steps": 2},
            },
        )
        assert set(reports) == {"gmo", "diff-3d"}
        assert (tmp_path / "gmo.out").exists()
        assert (tmp_path / "diff-3d.out").exists()
        csv_text = (tmp_path / "suite.csv").read_text()
        assert "gmo" in csv_text and "diff-3d" in csv_text
        body = (tmp_path / "diff-3d.out").read_text()
        assert "communication profile" in body
        assert "stencil" in body


class TestRegistryConsistency:
    """The registry metadata must match what the benchmarks report."""

    @pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
    def test_local_access_matches_registry(self, session_factory, name):
        rep = run_benchmark(name, session_factory(), **SMALL_PARAMS[name])
        assert rep.local_access is REGISTRY[name].local_access, name


class TestDocgen:
    def test_generated_reference_in_sync(self):
        """docs/BENCHMARKS.md must match a fresh generation."""
        import pathlib

        from repro.suite.docgen import generate

        committed = (
            pathlib.Path(__file__).parent.parent / "docs" / "BENCHMARKS.md"
        ).read_text()
        assert committed == generate()

    def test_reference_covers_all_benchmarks(self):
        from repro.suite.docgen import generate

        text = generate()
        for name in REGISTRY:
            assert f"### `{name}`" in text

    def test_reference_mentions_paper_tables(self):
        from repro.suite.docgen import generate

        text = generate()
        for marker in ("Table 1", "Tables 2/5", "Tables 3/7", "Table 8"):
            assert marker in text
