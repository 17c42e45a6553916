"""Every example script runs end to end (imported, main() invoked)."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _load(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "coherence_protocols",
        "mri_pipeline",
        "portable_machines",
        "transfer_overlap_timeline",
    ],
)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    output = capsys.readouterr().out
    assert output.strip(), f"example {name} printed nothing"


def test_examples_directory_is_covered():
    scripts = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == {
        "quickstart",
        "coherence_protocols",
        "mri_pipeline",
        "portable_machines",
        "transfer_overlap_timeline",
    }
