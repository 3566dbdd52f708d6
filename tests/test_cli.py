"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.scenario import ScenarioSpec, default_spec, resolve, run_spec, scenario_names
from repro.telemetry.diagnostics import strip_diagnostics


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1-delay-ping", "fig11-disjoint", "overheads"):
            assert name in out

    def test_every_registered_experiment_has_help(self):
        for name in scenario_names():
            assert resolve(name).help, name

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "fig99-unknown"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_experiment_rejected(self, capsys):
        assert main(["run"]) == 2
        assert "repro list" in capsys.readouterr().err

    def test_k_list_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig1-delay-ping", "--k", "2,4,8"])
        assert args.k == (2, 4, 8)

    def test_churn_rate_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig2-churn-rate", "--churn-rates", "0.001,0.1"])
        assert args.churn_rates == (0.001, 0.1)

    def test_malformed_param_rejected(self, capsys):
        assert main(["run", "fig1-delay-ping", "--param", "oops"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["fig2-efficiency-vs-k", "fig2-churn-rate"])
    def test_empty_k_list_rejected(self, experiment, capsys):
        """An empty --k is a k_grid error, also for fixed-k experiments
        (which read params["k"] from it)."""
        assert main(["run", experiment, "--k", ","]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k_grid" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig3-rewirings", "--sequential"],
            ["run", "fig3-rewirings", "--verbose"],
            ["sweep", "t.json", "--sequential"],
            ["sweep-worker", "t.json", "--sequential"],
            ["serve", "--spec", "s.json", "--socket", "s.sock", "--sequential"],
            ["chaos", "c.json", "--sequential"],
            ["serve-replay", "log.jsonl", "--sequential"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-1]}",
    )
    def test_no_execution_tier_options(self, argv, capsys):
        """Every front door runs the lockstep tier; the sequential one is
        the library's reference (run_spec(spec, batched=False))."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestListJson:
    def test_list_json_is_a_machine_readable_registry_dump(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in entries]
        assert names == sorted(names)  # deterministic ordering
        assert set(names) == set(scenario_names())
        for entry in entries:
            assert entry["help"]
            assert entry["default_spec"]["experiment"] == entry["name"]
            assert isinstance(entry["smoke_args"], list)

    def test_list_json_specs_round_trip(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        for entry in entries:
            ScenarioSpec.from_dict(entry["default_spec"])


class TestSpecErrorReporting:
    def test_invalid_spec_field_named_in_exit2_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        spec = default_spec("fig1-delay-ping").to_dict()
        spec["n"] = 1
        path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario field 'n'" in err
        assert str(path) in err

    def test_multiple_invalid_fields_all_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        spec = default_spec("fig1-delay-ping").to_dict()
        spec["n"] = 1
        spec["metric"] = "nope"
        spec["epochs"] = -3
        path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        for fragment in ("'n'", "'metric'", "'epochs'", "invalid scenario fields"):
            assert fragment in err

    def test_wrongly_typed_field_reported_with_type(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        spec = default_spec("fig1-delay-ping").to_dict()
        spec["n"] = "fifty"
        path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario field 'n'" in err
        assert "wrong type" in err


class TestRun:
    def test_run_overheads_prints_table(self, capsys):
        code = main(["run", "overheads", "--n", "50", "--k", "2,5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "section-4.3" in out
        assert "ping measurement (bps)" in out

    def test_run_small_fig1_and_json_output(self, tmp_path, capsys):
        output = tmp_path / "fig1.json"
        code = main(
            [
                "run",
                "fig1-delay-ping",
                "--n",
                "12",
                "--k",
                "2,3",
                "--br-rounds",
                "2",
                "--seed",
                "3",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert data["figure"] == "fig1-delay-ping"
        assert "best-response" in data["series"]
        assert data["metadata"]["scenario"]["experiment"] == "fig1-delay-ping"
        out = capsys.readouterr().out
        assert "best-response" in out

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_registered_experiment_smokes(self, name, capsys):
        """``repro run`` succeeds for every experiment at tiny scale."""
        args = ["run", name, "--seed", "5", *resolve(name).smoke_args]
        assert main(args) == 0, name
        out = capsys.readouterr().out
        assert "\t" in out, name  # a table was printed


    @pytest.mark.parametrize(
        "args",
        [
            ["fig5-sampling-br", "--n", "24", "--k", "2", "--trials", "1",
             "--param", "sample_sizes=40"],
            ["fig2-churn-rate", "--n", "10", "--k", "2", "--epochs", "2",
             "--param", "churn_rates=0.5"],
        ],
    )
    def test_a_single_value_list_param_is_a_one_point_sweep(self, args, tmp_path, capsys):
        """``--param key=value`` parses one value as a scalar; the runner
        reads it as a one-element sweep."""
        output = tmp_path / "result.json"
        assert main(["run", *args, "--output", str(output)]) == 0
        data = json.loads(output.read_text())
        assert {len(series["x"]) for series in data["series"].values()} == {1}

    @pytest.mark.parametrize(
        "args,param",
        [
            (["fig5-sampling-br", "--n", "24", "--k", "2", "--trials", "0",
              "--param", "sample_sizes=4,6"], "trials"),
            (["fig2-churn-rate", "--n", "10", "--k", "2", "--epochs", "2",
              "--param", "churn_rates="], "churn_rates"),
            (["fig2-churn-rate", "--n", "10", "--k", "2", "--epochs", "2",
              "--churn-rates", ""], "churn_rates"),
        ],
    )
    def test_a_degenerate_sweep_param_is_exit_2_naming_it(self, args, param, capsys):
        assert main(["run", *args]) == 2
        err = capsys.readouterr().err
        assert f"'{param}'" in err and args[0] in err


class TestBatchedSequentialParity:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_registered_experiment_is_tier_identical(self, name, capsys):
        """At its registered smoke sizes, every experiment's batched run
        equals its sequential run (``batched=False``), diagnostics aside:
        ``metadata["cache"]`` counts the sequential engines' memo, so it
        reads 0 on the batched tier only."""
        assert main(["spec", name, "--seed", "5", *resolve(name).smoke_args]) == 0
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        batched = run_spec(spec).as_dict()
        sequential = run_spec(spec, batched=False).as_dict()
        strip_diagnostics(batched)
        strip_diagnostics(sequential)
        assert sequential == batched


class TestSpecRoundTrip:
    def test_spec_subcommand_writes_loadable_spec(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        code = main(
            ["spec", "fig1-node-load", "--n", "14", "--k", "2,3", "--output", str(path)]
        )
        assert code == 0
        spec = ScenarioSpec.load(str(path))
        assert spec.experiment == "fig1-node-load"
        assert spec.n == 14
        assert spec.k_grid == (2, 3)

    def test_run_from_spec_reproduces_named_run(self, tmp_path, capsys):
        """A spec saved to JSON reruns to the byte-identical result."""
        spec_path = tmp_path / "scenario.json"
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        common = ["--n", "12", "--k", "2,3", "--br-rounds", "1", "--seed", "9"]
        assert main(["spec", "fig1-delay-ping", *common, "--output", str(spec_path)]) == 0
        assert main(["run", "fig1-delay-ping", *common, "--output", str(out_a)]) == 0
        assert main(["run", "--spec", str(spec_path), "--output", str(out_b)]) == 0
        assert json.loads(out_a.read_text()) == json.loads(out_b.read_text())

    def test_spec_json_round_trip_is_stable(self):
        spec = default_spec("fig2-churn-rate")
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.to_dict() == spec.to_dict()

    def test_spec_and_experiment_name_conflict(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        default_spec("overheads").save(str(path))
        assert main(["run", "overheads", "--spec", str(path)]) == 2
        assert "only one" in capsys.readouterr().err

    def test_missing_spec_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_invalid_spec_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--spec", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_overrides_apply_on_top_of_spec_file(self, tmp_path):
        """--spec composes with the other flags instead of dropping them."""
        path = tmp_path / "scenario.json"
        out = tmp_path / "out.json"
        default_spec("overheads").override(n=20, k_grid=(2,)).save(str(path))
        assert main(["run", "--spec", str(path), "--n", "14", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metadata"]["scenario"]["n"] == 14

    def test_validate_with_engine_param_runs_engine_rows(self, tmp_path, capsys):
        code = main(
            [
                "run", "overheads", "--n", "10", "--k", "2",
                "--param", "validate_with_engine=true",
            ]
        )
        assert code == 0
        assert "link-state measured (bps, simulated)" in capsys.readouterr().out


class TestSweep:
    TEMPLATE = {
        "name": "cli-sweep",
        "base": {
            "experiment": "fig1-delay-ping",
            "n": 10,
            "k_grid": [2],
            "br_rounds": 1,
            "seed": 3,
        },
        "axes": {
            "panel": [
                {"label": "ping", "experiment": "fig1-delay-ping", "metric": "delay-ping"},
                {"label": "load", "experiment": "fig1-node-load", "metric": "load"},
            ]
        },
    }

    def _write_template(self, tmp_path):
        path = tmp_path / "template.json"
        path.write_text(json.dumps(self.TEMPLATE))
        return str(path)

    def test_dry_run_plans_without_running(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        store = tmp_path / "store"
        code = main(["sweep", template, "--dry-run", "--store", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cells (0 complete)" in out
        assert "pending" in out
        assert not list(store.glob("*.json"))  # nothing executed

    def test_dry_run_json_plan(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        code = main(
            ["sweep", template, "--dry-run", "--json", "--store", str(tmp_path / "s")]
        )
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["total"] == 2 and plan["complete"] == 0
        assert [cell["experiment"] for cell in plan["cells"]] == [
            "fig1-delay-ping",
            "fig1-node-load",
        ]
        assert all(len(cell["key"]) == 32 for cell in plan["cells"])

    def test_dry_run_shows_the_groups_a_run_executes(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        store = tmp_path / "store"
        assert main(["sweep", template, "--dry-run", "--store", str(store)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("in 1 groups")
        assert all(" g0 " in line for line in lines[1:])
        # The pool halves the group so both workers get one.
        args = ["sweep", template, "--dry-run", "--json", "--store", str(store)]
        assert main(args + ["--workers", "2"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["groups"] == 2
        assert [cell["group"] for cell in plan["cells"]] == [0, 1]
        # A complete cell is in no group.
        assert main(["sweep", template, "--store", str(store)]) == 0
        capsys.readouterr()
        (store / f"{plan['cells'][1]['key']}.json").unlink()
        assert main(args) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["groups"] == 1
        assert [cell["group"] for cell in plan["cells"]] == [None, 0]
        assert main(["sweep", template, "--resume", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(args + ["--workers", "2"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["groups"] == 0
        assert [cell["group"] for cell in plan["cells"]] == [None, None]

    def test_sweep_runs_aggregates_and_resumes(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        output = tmp_path / "agg"
        assert main(
            ["sweep", template, "--workers", "2", "--store", store,
             "--output", str(output)]
        ) == 0
        out = capsys.readouterr().out
        assert "SWEEP total=2 executed=2 skipped=0 failed=0 workers=2" in out
        assert "fig1-node-load" in out
        assert (output / "fig1-delay-ping.json").exists()
        assert json.loads((output / "summary.json").read_text())["report"]["total"] == 2
        # Resume: both cells are complete, nothing re-executes.
        assert main(["sweep", template, "--resume", "--store", store]) == 0
        assert (
            "SWEEP total=2 executed=0 skipped=2 failed=0 workers=1"
            in capsys.readouterr().out
        )
        # Dry-run agrees the store is complete.
        assert main(["sweep", template, "--dry-run", "--store", store]) == 0
        assert "2 cells (2 complete)" in capsys.readouterr().out

    def test_sweep_resume_completes_only_missing_cells(self, tmp_path, capsys):
        """Kill-and-resume: delete one stored cell, --resume refills just it."""
        template = self._write_template(tmp_path)
        store = tmp_path / "store"
        assert main(["sweep", template, "--store", str(store)]) == 0
        capsys.readouterr()
        victim = sorted(store.glob("*.json"))[0]
        victim.unlink()
        assert main(["sweep", template, "--resume", "--store", str(store)]) == 0
        assert "executed=1 skipped=1" in capsys.readouterr().out
        assert victim.exists()

    def test_sweep_missing_template_is_exit_2(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "nope.json")]) == 2
        assert "cannot read sweep template" in capsys.readouterr().err

    def test_sweep_with_failing_cell_exits_nonzero(self, tmp_path, capsys):
        """A crashing cell is reported per key and fails the command."""
        template = dict(self.TEMPLATE)
        template["axes"] = {
            "panel": [
                {"label": "good", "experiment": "fig1-delay-ping"},
                # Passes template validation but the runner raises: the
                # fig2 experiment refuses to run without a churn spec.
                {"label": "bad", "experiment": "fig2-efficiency-vs-k",
                 "metric": "delay-true", "epochs": 1},
            ]
        }
        path = tmp_path / "template.json"
        path.write_text(json.dumps(template))
        store = tmp_path / "store"
        code = main(["sweep", str(path), "--store", str(store)])
        captured = capsys.readouterr()
        assert code == 1
        assert "SWEEP total=2 executed=1 skipped=0 failed=1 workers=1" in captured.out
        assert "FAILED" in captured.err and "churn" in captured.err
        assert "aggregation skipped" in captured.err

    def test_sweep_matches_single_runs_byte_for_byte(self, tmp_path, capsys):
        """A sweep cell equals `repro run --spec` of the same spec."""
        from repro.sweep import SweepStore, expand_corpus, load_templates

        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        assert main(["sweep", template, "--store", store]) == 0
        capsys.readouterr()
        cells = expand_corpus(load_templates(template))
        cell = cells[0]
        spec_path = tmp_path / "cell.json"
        cell.spec.save(str(spec_path))
        out_path = tmp_path / "single.json"
        assert main(["run", "--spec", str(spec_path), "--output", str(out_path)]) == 0
        single = json.loads(out_path.read_text())
        assert SweepStore(store).get(cell.key)["result"] == single

    def test_sweep_json_without_dry_run_rejected(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        assert main(["sweep", template, "--json"]) == 2
        assert "--dry-run" in capsys.readouterr().err

    def test_sweep_failure_output_carries_the_traceback(self, tmp_path, capsys):
        """The stderr report includes the failing cell's full traceback."""
        template = dict(self.TEMPLATE)
        template["axes"] = {
            "panel": [
                {"label": "bad", "experiment": "fig2-efficiency-vs-k",
                 "metric": "delay-true", "epochs": 1},
            ]
        }
        path = tmp_path / "template.json"
        path.write_text(json.dumps(template))
        assert main(["sweep", str(path), "--store", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "Traceback (most recent call last)" in err


class TestSweepStatus:
    def _write_template(self, tmp_path):
        path = tmp_path / "template.json"
        path.write_text(json.dumps(TestSweep.TEMPLATE))
        return str(path)

    def test_status_reports_store_progress(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        assert main(["sweep", template, "--status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "SWEEP-STATUS total=2 done=0 claimed=0 orphaned=0 failed=0 pending=2" in out
        assert main(["sweep", template, "--store", store]) == 0
        capsys.readouterr()
        assert main(["sweep", template, "--status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "SWEEP-STATUS total=2 done=2 claimed=0 orphaned=0 failed=0 pending=0" in out
        assert "# host " in out  # per-host throughput line

    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        assert main(["sweep", template, "--store", store]) == 0
        capsys.readouterr()
        assert main(["sweep", template, "--status", "--json", "--store", store]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["total"] == 2 and document["done"] == 2
        assert len(document["cells"]) == 2
        assert document["hosts"][0]["cells"] == 2

    def test_status_shows_orphaned_claims(self, tmp_path, capsys):
        from repro.sweep import SweepStore
        from repro.sweep.dist import ClaimStore

        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        dead = ClaimStore(
            SweepStore(store).backend, lease_seconds=1e-9, host="dead-host", pid=7
        )
        from repro.sweep import expand_corpus, load_templates

        cells = expand_corpus(load_templates(template))
        assert dead.try_claim(cells[0].key) is not None
        assert main(["sweep", template, "--status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "orphaned=1" in out
        assert "dead-host:7" in out and "lease expired" in out

    def test_status_with_dry_run_rejected(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        assert main(["sweep", template, "--status", "--dry-run"]) == 2
        assert "at most one" in capsys.readouterr().err


class TestSweepWorker:
    def _write_template(self, tmp_path):
        path = tmp_path / "template.json"
        path.write_text(json.dumps(TestSweep.TEMPLATE))
        return str(path)

    def test_worker_drains_the_corpus(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        assert main(["sweep-worker", template, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "SWEEP total=2 executed=2 skipped=0 failed=0 workers=1" in out
        assert "host=" in out and "pid=" in out
        # A second worker over the complete store executes nothing.
        assert main(["sweep-worker", template, "--store", store]) == 0
        assert "executed=0 skipped=2" in capsys.readouterr().out

    def test_worker_output_byte_identical_to_sweep(self, tmp_path, capsys):
        template = self._write_template(tmp_path)
        assert main(["sweep", template, "--store", str(tmp_path / "a")]) == 0
        assert main(["sweep-worker", template, "--store", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        for cell in sorted((tmp_path / "a").glob("*.json")):
            assert cell.read_bytes() == (tmp_path / "b" / cell.name).read_bytes()

    def test_worker_timeout_on_foreign_lease_exits_1(self, tmp_path, capsys):
        from repro.sweep import SweepStore, expand_corpus, load_templates
        from repro.sweep.dist import ClaimStore

        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        cells = expand_corpus(load_templates(template))
        holder = ClaimStore(
            SweepStore(store).backend, lease_seconds=300.0, host="other", pid=1
        )
        assert holder.try_claim(cells[0].key) is not None
        code = main(
            ["sweep-worker", template, "--store", store,
             "--poll", "0.05", "--timeout", "0.3"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "timed out" in captured.err
        assert "executed=1" in captured.out

    def test_worker_reports_foreign_failure_records(self, tmp_path, capsys):
        from repro.sweep import SweepStore, expand_corpus, load_templates
        from repro.sweep.dist import ClaimStore

        template = self._write_template(tmp_path)
        store = str(tmp_path / "store")
        cells = expand_corpus(load_templates(template))
        marker = ClaimStore(SweepStore(store).backend, host="other", pid=1)
        marker.mark_failed(cells[0].key, error="Boom", traceback_text="TB")
        code = main(["sweep-worker", template, "--store", store])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed on another worker" in captured.err
        assert "failed=1" in captured.out


class TestServeRecovery:
    """``serve`` on a populated --log serves the scenario the log holds."""

    @staticmethod
    def _spec(n: int) -> ScenarioSpec:
        return ScenarioSpec(
            experiment="live-overlay",
            n=n,
            k_grid=(3,),
            policies=("best-response",),
            metric="delay-ping",
            epochs=3,
            seed=5,
        )

    @pytest.fixture
    def served_log(self, tmp_path):
        from repro.serve.service import OverlayService

        spec_path = tmp_path / "a.json"
        self._spec(12).save(str(spec_path))
        log = tmp_path / "serve.jsonl"
        service = OverlayService(self._spec(12), log_path=str(log))
        service.tick()
        service.close()
        return spec_path, log

    @pytest.fixture
    def served(self, monkeypatch):
        """Services handed to the server loop (which returns at once)."""
        import repro.serve.server

        services = []

        def run_server(service, **_options):
            services.append(service)
            service.close()

        monkeypatch.setattr(repro.serve.server, "run_server", run_server)
        return services

    @staticmethod
    def _serve(spec_path, log, tmp_path) -> int:
        return main(
            ["serve", "--spec", str(spec_path), "--socket",
             str(tmp_path / "ov.sock"), "--log", str(log)]
        )

    def test_banner_names_the_recovered_scenario(
        self, served_log, served, tmp_path, capsys
    ):
        spec_path, log = served_log
        assert self._serve(spec_path, log, tmp_path) == 0
        out = capsys.readouterr().out
        assert "RECOVERY " in out
        assert "# serving live-overlay (n=12, 1 deployments, 1 epochs committed)" in out
        (service,) = served
        assert service.spec.n == 12

    def test_another_scenario_than_the_log_is_refused(
        self, served_log, served, tmp_path, capsys
    ):
        from repro.serve.oplog import list_segments

        _spec_path, log = served_log
        other = tmp_path / "b.json"
        self._spec(20).save(str(other))
        assert self._serve(other, log, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(other) in err and str(log) in err
        assert served == []
        assert list_segments(str(log)) == []  # the log was left as it was


class TestServeLoadUnreachable:
    """No server at the address: one ``error:`` line and exit 2."""

    @staticmethod
    def _closed_port() -> int:
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_missing_socket_and_refused_port_are_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sock")
        assert main(["serve-load", "--socket", missing, "--lookups", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot connect to {missing}: ")
        assert "Traceback" not in err
        port = self._closed_port()
        assert main(["serve-load", "--port", str(port), "--lookups", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot connect to 127.0.0.1:{port}: ")


class TestTelemetryCLI:
    def test_run_trace_writes_trace_and_prints_summary_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["run", "fig3-rewirings", "--n", "10", "--k", "2",
             "--epochs", "2", "--seed", "4", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "# TELEMETRY spans=" in out
        assert f"trace={trace}" in out
        first = json.loads(trace.read_text().splitlines()[0])
        assert first == {"kind": "begin", "schema": 1, "clock": "perf_counter"}

    def test_trace_summarize_table_json_and_coverage_gate(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["run", "fig3-rewirings", "--n", "10", "--k", "2",
             "--epochs", "2", "--seed", "4", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "batch.steps" in out
        assert "TRACE wall=" in out

        assert main(
            ["trace", "summarize", str(trace), "--check-coverage", "0.9"]
        ) == 0
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["coverage"] >= 0.9
        assert any(p["name"] == "run" for p in summary["phases"])

    def test_check_coverage_failure_is_exit_1(self, tmp_path, capsys):
        trace = tmp_path / "sparse.jsonl"
        trace.write_text(
            "\n".join(
                [
                    '{"kind":"begin","schema":1,"clock":"perf_counter"}',
                    '{"kind":"span","seq":0,"name":"a","ts":0.0,"dur":1.0,"depth":0}',
                    '{"kind":"span","seq":1,"name":"b","ts":9.0,"dur":1.0,"depth":0}',
                    '{"kind":"end","spans":2,"events":0}',
                ]
            )
            + "\n"
        )
        assert main(
            ["trace", "summarize", str(trace), "--check-coverage", "0.9"]
        ) == 1
        captured = capsys.readouterr()
        assert "below the required" in captured.err

    def test_sweep_telemetry_prints_summary_line(self, tmp_path, capsys):
        template = tmp_path / "template.json"
        template.write_text(
            json.dumps(
                {
                    "name": "cli-telemetry",
                    "base": {
                        "experiment": "fig1-delay-ping",
                        "n": 10,
                        "k_grid": [2],
                        "br_rounds": 1,
                        "seed": 3,
                    },
                    "axes": {"n": [10, 11]},
                }
            )
        )
        trace = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", str(template), "--store", str(tmp_path / "store"),
             "--workers", "1", "--telemetry", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "# TELEMETRY spans=" in out
        assert trace.exists()
