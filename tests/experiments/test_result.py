"""The ExperimentResult container and the artifacts' commit stamp."""

import shutil
import subprocess

import pytest

from repro.experiments.result import ExperimentResult, commit_stamp


@pytest.fixture
def result():
    return ExperimentResult(
        experiment_id="figX",
        title="demo",
        paper_claim="things hold",
        headers=["benchmark", "value"],
        rows=[["a", 1.5], ["b", 2.5]],
        notes=["a note"],
    )


class TestAccessors:
    def test_column(self, result):
        assert result.column("value") == [1.5, 2.5]
        assert result.column("benchmark") == ["a", "b"]

    def test_unknown_column_raises(self, result):
        with pytest.raises(ValueError):
            result.column("nope")

    def test_row_map(self, result):
        rows = result.row_map("benchmark")
        assert rows["a"] == ["a", 1.5]
        assert set(rows) == {"a", "b"}

    def test_render_contains_everything(self, result):
        text = result.render()
        assert "figX" in text
        assert "things hold" in text
        assert "note: a note" in text
        assert "2.5" in text

    def test_chart_requires_spec(self, result):
        assert result.chart() is None


class TestSerialization:
    def test_json_is_valid(self, result):
        import json

        data = json.loads(result.to_json())
        assert data["paper_claim"] == "things hold"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_stamp_marks_a_dirty_tree(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=stamp", "-c", "user.email=stamp@test",
             *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("measured\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "measured tree")
    head = git("rev-parse", "--short", "HEAD")
    assert commit_stamp(tmp_path) == head
    tracked.write_text("edited after measuring\n")
    assert commit_stamp(tmp_path) == f"{head}-dirty"
