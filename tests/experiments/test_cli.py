"""The experiments CLI (`python -m repro.experiments`)."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "maxIPC" in output
        assert "regenerated in" in output

    def test_motivation(self, capsys):
        assert main(["motivation", "--quick"]) == 0
        assert "kernel fraction" in capsys.readouterr().out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["fig99"])

    def test_table_experiment(self, capsys):
        assert main(["tab2", "--quick"]) == 0
        out = capsys.readouterr().out
        for name in ("cp", "mri-fhd", "tpacf"):
            assert name in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_jobs_flag_accepted(self, jobs, capsys):
        assert main(["fig11", "--quick", "--no-cache", "--jobs", jobs]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_unverified_outcome_fails_and_is_named(
            self, monkeypatch, capsys):
        from repro.experiments import common
        from repro.workloads.vecadd import VectorAdd

        monkeypatch.setattr(common, "_memory", {})
        monkeypatch.setattr(VectorAdd, "_verify", lambda self, outputs: False)
        assert main(["fig11", "--quick", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "5 outcome(s) failed verification" in err
        assert err.count('"workload": "vecadd"') == 5

    def test_gave_up_specs_are_not_unverified(self, monkeypatch):
        from repro.experiments import __main__ as cli
        from repro.experiments import common
        from repro.experiments.executor import expand

        monkeypatch.setattr(common, "_memory", {})
        specs = expand(["fig11"], quick=True)
        # Nothing primed: a spec without an outcome (as after a recovery
        # gave up) is not an unverified one.
        assert cli.unverified(specs) == []
