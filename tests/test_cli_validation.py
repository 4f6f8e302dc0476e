"""Argument validation and the ``faults`` subcommand.

Bad numeric inputs must die at parse time with argparse's clear
``error: argument --x: ...`` message (SystemExit 2), never as a
traceback from deep inside the model.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def _parse(argv):
    return build_parser().parse_args(argv)


class TestNumericValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--alpha", "0", "--beta", "50", "--gamma", "0.3",
             "--budget", "8000"],
            ["design", "--alpha", "-1.5", "--beta", "50", "--gamma", "0.3",
             "--budget", "8000"],
            ["design", "--workload", "FFT", "--budget", "0"],
            ["design", "--workload", "FFT", "--budget", "-100"],
            ["design", "--workload", "FFT", "--budget", "1e4", "--top", "0"],
        ],
        ids=["alpha-zero", "alpha-negative", "budget-zero", "budget-negative",
             "top-zero"],
    )
    def test_design_rejects_bad_numbers(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gamma", ["0", "-0.2", "1.5", "nan", "abc"],
    )
    def test_gamma_must_be_a_fraction(self, gamma, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["design", "--alpha", "1.5", "--beta", "50",
                    "--gamma", gamma, "--budget", "8000"])
        assert exc.value.code == 2
        assert "--gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--workload", "FFT", "--machines", "0"],
            ["predict", "--workload", "FFT", "--machines", "-2"],
            ["predict", "--workload", "FFT", "--procs-per-machine", "0"],
            ["predict", "--workload", "FFT", "--cache-kb", "0"],
            ["predict", "--workload", "FFT", "--memory-mb", "0"],
            ["predict", "--workload", "FFT", "--l2-kb", "0"],
        ],
        ids=["machines-zero", "machines-negative", "procs-zero",
             "cache-zero", "memory-zero", "l2-zero"],
    )
    def test_platform_rejects_zero_sizes(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["predict", "--workload", "FFT", "--machines", "1",
              "--procs-per-machine", "1"], "predict: bad platform: a 1x1 platform"),
            (["predict", "--workload", "FFT", "--l2-kb", "128"],
             "predict: bad platform: l2_bytes must sit strictly between"),
            (["predict", "--workload", "FFT", "--cache-kb", "131072",
              "--memory-mb", "64"],
             "predict: bad platform: memory must be larger than the cache"),
            (["simulate", "--app", "FFT", "--machines", "1",
              "--procs-per-machine", "1", "--cache-dir", ""],
             "simulate: bad platform: a 1x1 platform"),
            (["upgrade", "--workload", "FFT", "--budget-increase", "2000",
              "--machines", "1", "--procs-per-machine", "1"],
             "upgrade: bad platform: a 1x1 platform"),
        ],
        ids=["one-by-one", "l2-below-cache", "memory-below-cache",
             "simulate-one-by-one", "upgrade-one-by-one"],
    )
    def test_bad_platform_shape_is_a_clean_exit(self, argv, message):
        """Flags that parse but describe no platform exit with the
        command and the spec's own reason, not a ValueError traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["predict", "--alpha", "0.5", "--beta", "5", "--gamma", "0.3"],
             "predict: bad workload: alpha must be > 1"),
            (["predict", "--alpha", "inf", "--beta", "5", "--gamma", "0.3"],
             "predict: bad workload: alpha and beta must be finite"),
            (["design", "--alpha", "0.5", "--beta", "5", "--gamma", "0.3",
              "--budget", "8000"],
             "design: bad workload: alpha must be > 1"),
        ],
        ids=["predict-alpha-below-one", "predict-alpha-inf", "design-alpha-below-one"],
    )
    def test_bad_workload_is_a_clean_exit(self, argv, message):
        """A locality triple the model cannot take exits with the command
        and the parameters' own reason, not a ValueError traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--app", "FFT", "--jobs", "0"],
            ["simulate", "--app", "FFT", "--jobs", "-1"],
            ["simulate", "--app", "FFT", "--horizon", "-5"],
            ["simulate", "--app", "FFT", "--sample-every", "0"],
            ["simulate", "--app", "FFT", "--cell-timeout", "0"],
        ],
        ids=["jobs-zero", "jobs-negative", "horizon-negative",
             "sample-every-zero", "cell-timeout-zero"],
    )
    def test_runner_knobs_validated(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_max_retries_validated_at_dispatch(self):
        with pytest.raises(SystemExit, match="--max-retries"):
            main(["faults", "--app", "FFT", "--max-retries", "-1",
                  "--cache-dir", ""])


class TestDesignBatchOptions:
    def test_repeated_budgets_answered_in_order(self, capsys):
        rc = main(
            ["design", "--workload", "LU", "--budget", "8000",
             "--budget", "16000", "--top", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.index("$8,000") < out.index("$16,000")
        assert out.count("search:") == 2

    def test_json_output_is_machine_readable(self, capsys):
        import json

        rc = main(
            ["design", "--workload", "Radix", "--budget", "9000",
             "--budget", "15000", "--json", "--pareto"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [q["budget"] for q in payload] == [9000.0, 15000.0]
        for q in payload:
            assert q["best"]["price"] <= q["budget"]
            assert q["stats"]["candidates"] > 0
            prices = [c["price"] for c in q["frontier"]]
            assert prices == sorted(prices)
            assert q["upgrade_path"]

    def test_pareto_flag_prints_frontier(self, capsys):
        rc = main(
            ["design", "--workload", "EDGE", "--budget", "12000",
             "--pareto", "--top", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "price/performance frontier" in out

    def test_method_choices_enforced(self, capsys):
        for method in ("genetic", "pruned"):
            with pytest.raises(SystemExit) as exc:
                _parse(["design", "--workload", "LU", "--budget", "8000",
                        "--method", method])
            assert exc.value.code == 2
            assert "--method" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["design", "--workload", "LU", "--budget", "8000",
                    "--jobs", "0"])
        assert exc.value.code == 2

    def test_infeasible_budget_is_a_clean_exit(self):
        with pytest.raises(SystemExit, match="no feasible"):
            main(["design", "--workload", "LU", "--budget", "50"])


class TestUpgradeGrowthValidation:
    BASE = ["upgrade", "--workload", "FFT", "--budget-increase", "2000"]

    def test_odd_cache_size_rejected_at_cli(self):
        with pytest.raises(SystemExit, match="--cache-kb"):
            main(self.BASE + ["--cache-kb", "128"])

    def test_odd_l2_size_rejected_at_cli(self):
        with pytest.raises(SystemExit, match="--l2-kb"):
            main(self.BASE + ["--l2-kb", "333"])

    def test_too_many_machines_rejected_at_cli(self):
        with pytest.raises(SystemExit, match="--machines"):
            main(self.BASE + ["--machines", "99"])

    def test_too_many_procs_rejected_at_cli(self):
        with pytest.raises(SystemExit, match="--procs-per-machine"):
            main(self.BASE + ["--procs-per-machine", "8"])

    def test_oversized_memory_rejected_at_cli(self):
        with pytest.raises(SystemExit, match="--memory-mb"):
            main(self.BASE + ["--memory-mb", "4096"])

    def test_growable_current_still_accepted(self, capsys):
        rc = main(self.BASE + ["--machines", "2", "--memory-mb", "32"])
        assert rc == 0
        assert "upgrade for FFT" in capsys.readouterr().out


class TestPlatformArg:
    """``--platform`` resolves built-in names and topology files at the
    argparse layer; anything malformed dies as SystemExit 2 there."""

    def test_builtin_name_accepted(self):
        args = _parse(["simulate", "--app", "FFT", "--platform", "clump-of-smps"])
        assert args.platform.name == "clump-of-smps"
        assert args.platform.topology is not None
        assert args.platform.topology.depth == 2

    def test_platform_file_accepted(self, tmp_path):
        import json

        from repro.topology import clump_of_smps_spec

        p = tmp_path / "plat.json"
        p.write_text(json.dumps(clump_of_smps_spec().to_dict()))
        args = _parse(["simulate", "--app", "FFT", "--platform", str(p)])
        assert args.platform == clump_of_smps_spec()

    def test_unknown_name_lists_builtins(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["simulate", "--app", "FFT", "--platform", "hypercube"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "clump-of-smps" in err

    def test_malformed_file_rejected_at_parse_time(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            _parse(["simulate", "--app", "FFT", "--platform", str(p)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "invalid JSON" in err

    def test_bad_topology_file_rejected_at_parse_time(self, tmp_path, capsys):
        import json

        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"name": "x", "topology": {"type": "torus"}}))
        with pytest.raises(SystemExit) as exc:
            _parse(["faults", "--app", "FFT", "--platform", str(p)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestPlatformFileBound:
    """A loaded platform file gets the processor bound the shape flags
    have: above ``MAX_PROCESSORS`` it dies at parse time, naming the
    file, before any model is evaluated."""

    @staticmethod
    def _cow_file(tmp_path, machines):
        import json

        from repro.core.platform import PlatformSpec
        from repro.sim.latencies import NetworkKind
        from repro.topology.canned import topology_for_spec

        spec = PlatformSpec(
            "wide-cow", n=1, N=machines, cache_bytes=256 * 1024,
            memory_bytes=64 * 1024 * 1024, network=NetworkKind.ETHERNET_100,
        )
        path = tmp_path / f"cow{machines}.json"
        path.write_text(json.dumps(
            {"name": "wide-cow", "topology": topology_for_spec(spec).to_dict()}
        ))
        return str(path)

    @staticmethod
    def _refuse_models(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a model was evaluated")

        monkeypatch.setattr("repro.cli._predict", refuse)
        monkeypatch.setattr("repro.scheduling.compare_policies", refuse)

    @pytest.mark.parametrize("command", ["predict", "schedule"])
    def test_too_many_processors_exit_2_naming_the_file(
        self, command, tmp_path, monkeypatch, capsys
    ):
        from repro.service.api import MAX_PROCESSORS

        path = self._cow_file(tmp_path, 2 * MAX_PROCESSORS)
        self._refuse_models(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main([command, "--workload", "FFT", "--platform", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{path}: 2048 processors exceed the limit of 1024" in err

    def test_the_limit_itself_is_accepted(self, tmp_path, capsys):
        from repro.service.api import MAX_PROCESSORS

        path = self._cow_file(tmp_path, MAX_PROCESSORS)
        assert main(["predict", "--workload", "FFT", "--platform", path]) == 0
        assert "E(Instr) =" in capsys.readouterr().out
        args = _parse(["schedule", "--workload", "FFT", "--platform", path])
        assert args.platform.total_processors == MAX_PROCESSORS


class TestDesignTopologyOptions:
    def test_rack_size_must_hold_two_machines(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["design", "--workload", "LU", "--budget", "9000",
                    "--rack-size", "1"])
        assert exc.value.code == 2
        assert "--rack-size" in capsys.readouterr().err

    def test_unpriceable_extra_platform_is_clean_exit(self):
        # the demo platform's 2KB cache is not a catalog option
        with pytest.raises(SystemExit, match="--add-platform"):
            main(["design", "--workload", "LU", "--budget", "9000",
                  "--add-platform", "clump-of-smps"])

    def test_rack_mutation_competes(self, capsys):
        rc = main(["design", "--workload", "LU", "--budget", "9000",
                   "--rack-size", "2", "--top", "1"])
        assert rc == 0
        assert "optimal platform" in capsys.readouterr().out


class TestInjectSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            "bogus:proc=0",
            "delay:proc=0",
            "delay:proc=0,at=1,cycles=-5",
            "slow:proc=0,start=9,end=1,factor=2",
        ],
    )
    def test_bad_inject_spec_is_a_clean_exit(self, spec):
        with pytest.raises(SystemExit, match="--inject"):
            main(["faults", "--app", "FFT", "--app-arg", "points=64",
                  "--inject", spec, "--cache-dir", ""])


class TestProfileValidation:
    """`repro profile` / `--profile-out`: bad paths and unknown causes
    die at the argparse layer, and the diff/app requirement is a clean
    SystemExit, never a traceback."""

    def test_profile_out_parent_must_exist(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["simulate", "--app", "FFT", "--profile-out",
                    str(tmp_path / "missing" / "prof.json")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_out_must_not_be_a_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["profile", "--app", "FFT", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_out_in_existing_dir_accepted(self, tmp_path):
        target = tmp_path / "prof.json"
        args = _parse(["profile", "--app", "FFT", "--out", str(target)])
        assert str(args.out) == str(target)

    def test_diff_files_must_exist(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["profile", "--diff", str(tmp_path / "a.json"),
                    str(tmp_path / "b.json")])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_diff_wants_exactly_two_files(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            _parse(["profile", "--diff", str(a)])
        assert exc.value.code == 2

    def test_unknown_cause_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["profile", "--app", "FFT", "--cause", "vibes"])
        assert exc.value.code == 2
        assert "--cause" in capsys.readouterr().err

    def test_known_causes_accepted(self):
        args = _parse(["profile", "--app", "FFT",
                       "--cause", "compute", "--cause", "contention"])
        assert args.cause == ["compute", "contention"]

    def test_app_or_diff_required_at_dispatch(self):
        with pytest.raises(SystemExit, match="--app"):
            main(["profile"])

    def test_diff_rejects_non_profile_json(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"schema": "not-a-profile"}')
        b.write_text('{"schema": "not-a-profile"}')
        with pytest.raises(SystemExit, match="--diff"):
            main(["profile", "--diff", str(a), str(b)])

    def test_ledger_last_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["obs", "ledger", "--last", "0"])
        assert exc.value.code == 2


class TestFaultsCommand:
    ARGS = [
        "faults", "--app", "FFT", "--app-arg", "points=64",
        "--machines", "1", "--procs-per-machine", "2",
        "--cache-dir", "",
    ]

    def test_injected_delay_demo(self, capsys):
        rc = main(
            self.ARGS + ["--inject", "delay:proc=0,at=100,cycles=5000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean" in out and "faulted" in out
        assert "delay" in out

    def test_generated_plan_demo(self, capsys):
        assert main(self.ARGS + ["--gen-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out

    def test_propagation_sweep(self, capsys):
        rc = main(
            self.ARGS
            + ["--inject", "delay:proc=0,at=100,cycles=1000", "--propagation"]
        )
        assert rc == 0
        assert "delay propagation" in capsys.readouterr().out
