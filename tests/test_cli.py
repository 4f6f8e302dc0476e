"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_requires_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--workload", "FFT"])


class TestDesign:
    def test_named_workload(self, capsys):
        assert main(["design", "--workload", "Radix", "--budget", "20000", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal platform for Radix" in out
        assert "Section 6 rule" in out

    def test_custom_triple(self, capsys):
        rc = main(
            ["design", "--alpha", "1.5", "--beta", "50", "--gamma", "0.3",
             "--budget", "8000", "--top", "1"]
        )
        assert rc == 0
        assert "custom" in capsys.readouterr().out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["design", "--workload", "nope", "--budget", "5000"])

    def test_missing_workload_spec(self):
        with pytest.raises(SystemExit, match="provide 'workload' or all of"):
            main(["design", "--budget", "5000"])


class TestPredict:
    def test_cluster(self, capsys):
        assert main(
            ["predict", "--workload", "FFT", "--machines", "4", "--network", "atm"]
        ) == 0
        out = capsys.readouterr().out
        assert "E(Instr)" in out and "cycles/reference" in out

    def test_single_smp(self, capsys):
        assert main(
            ["predict", "--workload", "EDGE", "--machines", "1",
             "--procs-per-machine", "4"]
        ) == 0
        assert "a single SMP" in capsys.readouterr().out


class TestUpgrade:
    def test_upgrade(self, capsys):
        rc = main(
            ["upgrade", "--workload", "EDGE", "--budget-increase", "2000",
             "--machines", "4", "--network", "ethernet100", "--memory-mb", "32"]
        )
        assert rc == 0
        assert "upgrade for EDGE" in capsys.readouterr().out


class TestRecommend:
    def test_recommend(self, capsys):
        assert main(["recommend", "--workload", "TPC-C"]) == 0
        assert "SMP" in capsys.readouterr().out


class TestCharacterize:
    def test_characterize_small_app(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.apps.registry import make_application
        from tests.conftest import SMALL_APP_KWARGS

        # shrink the app so the CLI test stays fast
        import repro.apps.registry as registry

        orig = registry.make_application

        def small(name, num_procs=1, seed=0, **kw):
            kw = {**SMALL_APP_KWARGS[name], **kw}
            return orig(name, num_procs=num_procs, seed=seed, **kw)

        monkeypatch.setattr("repro.apps.registry.make_application", small)
        assert main(["characterize", "--app", "EDGE", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "alpha=" in out and "sharing" in out


class TestPredictModes:
    @pytest.mark.parametrize("mode", ["open", "throttled", "mva"])
    def test_all_contention_modes(self, capsys, mode):
        rc = main(
            ["predict", "--workload", "EDGE", "--machines", "1",
             "--procs-per-machine", "2", "--mode", mode]
        )
        assert rc == 0
        assert "E(Instr)" in capsys.readouterr().out


class TestL2Flag:
    def test_predict_with_l2(self, capsys):
        rc = main(
            ["predict", "--workload", "Radix", "--machines", "1",
             "--procs-per-machine", "4", "--l2-kb", "2048"]
        )
        assert rc == 0
        assert "shared L2 cache" in capsys.readouterr().out

    def test_l2_reduces_predicted_time(self, capsys):
        main(["predict", "--workload", "Radix", "--machines", "1",
              "--procs-per-machine", "4"])
        base = capsys.readouterr().out
        main(["predict", "--workload", "Radix", "--machines", "1",
              "--procs-per-machine", "4", "--l2-kb", "2048"])
        with_l2 = capsys.readouterr().out

        def t(text):
            return float(text.split("E(Instr) = ")[1].split(" ")[0])

        assert t(with_l2) < t(base)


class TestSchedule:
    def test_builtin_mixed_tree(self, capsys):
        assert main(
            ["schedule", "--workload", "LU", "--platform", "mixed-cow"]
        ) == 0
        out = capsys.readouterr().out
        assert "memory-aware" in out and "round-robin" in out
        assert "speedup over round-robin" in out

    def test_policy_subset(self, capsys):
        assert main(
            ["schedule", "--workload", "LU", "--platform", "mixed-cow",
             "--policy", "speed"]
        ) == 0
        out = capsys.readouterr().out
        assert "speed" in out and "memory-aware" not in out

    def test_json_output(self, capsys):
        import json

        assert main(
            ["schedule", "--workload", "LU", "--platform", "mixed-cow",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "memory-aware" in payload

    def test_platform_file(self, capsys, tmp_path):
        import json

        from repro.scheduling import builtin_hetero_platform

        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(builtin_hetero_platform("mixed-cow").to_dict()))
        assert main(
            ["schedule", "--workload", "LU", "--platform", str(path)]
        ) == 0
        assert "heterogeneous" in capsys.readouterr().out

    def test_unknown_platform_lists_builtins(self, capsys):
        # argparse surfaces ArgumentTypeError on stderr and exits 2.
        with pytest.raises(SystemExit):
            main(["schedule", "--workload", "LU", "--platform", "mixed-tower"])
        assert "mixed-clump" in capsys.readouterr().err


class TestPredictPolicy:
    def test_policy_on_homogeneous_cluster(self, capsys):
        assert main(
            ["predict", "--workload", "FFT", "--machines", "4",
             "--network", "atm", "--policy", "memory-aware",
             "--mode", "open"]
        ) == 0
        assert "E(Instr)" in capsys.readouterr().out

    def test_policy_requires_open_mode(self):
        with pytest.raises(SystemExit, match="open"):
            main(
                ["predict", "--workload", "FFT", "--machines", "4",
                 "--network", "atm", "--policy", "speed",
                 "--mode", "throttled"]
            )


class TestDesignMix:
    def test_mix_enumerates_machine_mixes(self, capsys):
        assert main(
            ["design", "--workload", "LU", "--budget", "12000",
             "--mix", "--top", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "mix" in out and "$" in out
