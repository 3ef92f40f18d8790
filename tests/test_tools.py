"""Tests for repository tooling (docs generator)."""

import importlib.util
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO_ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiDocsGenerator:
    def test_generates_all_sections(self, tmp_path, monkeypatch, capsys):
        generator = load_generator()
        # Redirect output into a scratch docs dir.
        monkeypatch.setattr(
            generator, "__file__", str(tmp_path / "tools" / "gen_api_docs.py")
        )
        (tmp_path / "tools").mkdir()
        (tmp_path / "docs").mkdir()
        generator.main()
        text = (tmp_path / "docs" / "API.md").read_text()
        for package in generator.PACKAGES:
            if package == "repro.cli":
                continue  # small module, still has __all__; keep the loop honest
            assert f"## `{package}`" in text
        assert "DARMiner" in text
        assert ".mine(" in text

    def test_output_is_deterministic(self, tmp_path, monkeypatch, capsys):
        """No object addresses leak in, so regenerating never shows a diff."""
        generator = load_generator()
        monkeypatch.setattr(
            generator, "__file__", str(tmp_path / "tools" / "gen_api_docs.py")
        )
        (tmp_path / "tools").mkdir()
        (tmp_path / "docs").mkdir()
        out = tmp_path / "docs" / "API.md"
        generator.main()
        first = out.read_bytes()
        generator.main()
        assert out.read_bytes() == first
        assert b"at 0x" not in first
        assert b"= repro.metrics.distance.euclidean)" in first

    def test_callable_defaults_render_by_qualified_name(self):
        generator = load_generator()

        def documented(metric=math.sqrt, count=3, kind=dict):
            """Defaults of every sort."""

        assert generator.signature_of(documented) == (
            "(metric=math.sqrt, count=3, kind=builtins.dict)"
        )

    def test_first_paragraph_extraction(self):
        generator = load_generator()

        def documented():
            """First line.

            Second paragraph."""

        assert generator.first_paragraph(documented) == "First line."

    def test_signature_of_uncallable(self):
        generator = load_generator()
        assert generator.signature_of(42) == ""
