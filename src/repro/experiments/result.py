"""The common result type every experiment returns, plus artifact stamps."""

import json
import pathlib
from dataclasses import dataclass, field

from repro.util.tables import render_table


def commit_stamp(repo_root):
    """The short commit hash of the checkout at ``repo_root``, suffixed
    ``-dirty`` when its tracked files differ from that commit (a number
    measured before committing then names no commit it did not run), or
    ``"unknown"`` outside a git checkout."""
    import subprocess as sp

    try:
        return sp.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
            capture_output=True, text=True, cwd=repo_root, check=True,
        ).stdout.strip()
    except (OSError, sp.CalledProcessError):
        return "unknown"


def environment_stamp():
    """Provenance for benchmark artifacts: commit, devices and scale.

    Regression comparisons are only meaningful between runs of the same
    engine configuration; the stamp records the configuration a number was
    measured under so a mismatch is visible in the artifact itself.  Both
    ``bench_hotpath`` and ``bench_executor`` stamp their JSON with this.
    """
    commit = commit_stamp(pathlib.Path(__file__).resolve().parents[3])
    from repro.experiments.common import active_scale
    from repro.hw.specs import GTX280, OPTERON_2222, PCIE_2_0_X16

    return {
        "commit": commit,
        # No REPRO_SCALE override means the quick presets are in effect.
        "scale": active_scale() or "quick",
        "devices": {
            "cpu": OPTERON_2222.name,
            "gpu": GTX280.name,
            "link": PCIE_2_0_X16.name,
        },
    }


@dataclass
class ExperimentResult:
    """One regenerated paper artifact: a table plus context."""

    experiment_id: str
    title: str
    paper_claim: str
    headers: list
    rows: list
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: Optional (x_header, [y_headers]) for ASCII chart rendering of
    #: figure-shaped results (Figures 9, 11, 12).
    chart_spec: tuple = None

    def render(self):
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper: {self.paper_claim}",
            "",
            render_table(self.headers, self.rows),
        ]
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def chart(self, height=12):
        """Render the result as a log-scale ASCII chart, if chartable."""
        if self.chart_spec is None:
            return None
        from repro.util.charts import chart_from_result

        x_header, y_headers = self.chart_spec
        return chart_from_result(self, x_header, y_headers, height=height)

    def column(self, header):
        """All values of one column, by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_map(self, key_header="benchmark"):
        """Rows indexed by the value of one column."""
        index = self.headers.index(key_header)
        return {row[index]: row for row in self.rows}

    # -- serialization (for downstream plotting / regression tracking) --------

    def to_json(self):
        """A JSON document with the full table and metadata."""
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "paper_claim": self.paper_claim,
                "headers": list(self.headers),
                "rows": [list(row) for row in self.rows],
                "notes": list(self.notes),
            },
            indent=2,
        )
