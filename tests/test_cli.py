"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_arguments(self):
        args = build_parser().parse_args(
            ["solve", "airplane", "--mdata-mb", "15", "--speed", "20"]
        )
        assert args.command == "solve"
        assert args.scenario == "airplane"
        assert args.mdata_mb == 15.0
        assert args.speed == 20.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "zeppelin"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve", "airplane", "--rho", "nan", "--json"], "--rho"),
            (["solve", "airplane", "--speed", "inf", "--json"], "--speed"),
            (
                ["sweep", "airplane", "--param", "mdata_mb",
                 "--linspace", "1", "nan", "5", "--json"],
                "--linspace",
            ),
            (["relay", "--deadline=-inf", "--json"], "--deadline"),
        ],
    )
    def test_non_finite_numbers_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be a finite number" in captured.err

    def test_unparseable_number_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "airplane", "--d0", "far"])
        assert exit_info.value.code == 2
        assert "invalid float value: 'far'" in capsys.readouterr().err


class TestSolveCommand:
    def test_solve_quadrocopter(self, capsys):
        assert main(["solve", "quadrocopter"]) == 0
        out = capsys.readouterr().out
        assert "optimal distance" in out
        assert "56.2 MB" in out

    def test_solve_with_overrides(self, capsys):
        assert main(["solve", "airplane", "--mdata-mb", "5", "--rho", "0.0001"]) == 0
        out = capsys.readouterr().out
        assert "5.0 MB" in out
        assert "transmit immediately" in out

    def test_solve_with_d0_override(self, capsys):
        assert main(["solve", "airplane", "--d0", "100"]) == 0
        assert "contact distance  : 100 m" in capsys.readouterr().out

    def test_solve_with_sensitivity(self, capsys):
        assert main(["solve", "airplane", "--mdata-mb", "15",
                     "--sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "dominant parameter" in out


class TestSolveJson:
    def test_solve_json_payload(self, capsys):
        assert main(["solve", "airplane", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "airplane"
        assert payload["contact_distance_m"] == 300.0
        assert 20.0 <= payload["distance_m"] <= 300.0
        assert isinstance(payload["transmit_immediately"], bool)

    def test_solve_json_with_overrides(self, capsys):
        assert main(
            ["solve", "quadrocopter", "--json", "--mdata-mb", "10",
             "--d0", "80"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data_bits"] == pytest.approx(10 * 8e6)
        assert payload["contact_distance_m"] == 80.0

    def test_solve_json_with_sensitivity(self, capsys):
        assert main(["solve", "airplane", "--json", "--sensitivity"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sensitivity"]["dominant_parameter"] in (
            "rho", "speed", "mdata"
        )


class TestExperimentJson:
    def test_fig9_json_lines(self, capsys):
        assert main(["experiment", "fig9", "--json"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        decisions = [l for l in lines if "distance_m" in l]
        # 6 Mdata values x 5 speeds
        assert len(decisions) == 30
        assert all(l["experiment"] == "fig9" for l in decisions)
        assert all("path" in l for l in decisions)

    def test_fig8_json_lines(self, capsys):
        assert main(["experiment", "fig8", "--json"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        paths = {l["path"] for l in lines}
        assert any(p.startswith("airplane/") for p in paths)
        assert any(p.startswith("quadrocopter/") for p in paths)

    def test_table1_json_fallback(self, capsys):
        """Experiments without decisions emit a summary object."""
        assert main(["experiment", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert payload["decisions"] == 0


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Airplane" in out and "Quadrocopter" in out

    def test_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        assert "dopt" in capsys.readouterr().out


class TestMissionCommand:
    def test_small_mission_run(self, capsys):
        assert main(["mission", "--episodes", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "immediate" in out and "closest" in out


class TestBenchCommand:
    BENCH_ARGS = [
        "bench", "--replicas", "4", "--duration", "2",
        "--distances", "80", "240", "--seed", "3", "--no-parallel",
    ]

    def test_bench_text_report(self, capsys):
        assert main(self.BENCH_ARGS) == 0
        out = capsys.readouterr().out
        assert "scalar engine" in out
        assert "batched engine" in out
        assert "speedup" in out
        assert "stage channel" in out
        assert "median @" in out

    def test_bench_json_payload(self, capsys):
        assert main(self.BENCH_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "bench"
        assert payload["schema_version"] == 1
        assert payload["config"]["n_replicas"] == 4
        assert payload["config"]["distances_m"] == [80.0, 240.0]
        assert payload["seeds"] == {"campaign": 3}
        outputs = payload["outputs"]
        assert outputs["speedup"] > 0
        telemetry = outputs["batched"]["telemetry"]
        for stage in ("channel", "control", "error", "mac",
                      "delivery", "feedback"):
            assert telemetry["stages"][stage]["calls"] > 0
        assert telemetry["counters"]["mean_cache_hits"] > 0
        assert telemetry["counters"]["replica_epochs"] == 2 * 4 * 100
        assert set(outputs["solver_cache"]) == {
            "hits", "misses", "currsize", "maxsize",
        }
        for rel in outputs["median_agreement"].values():
            assert rel >= 0.0
        # Campaign metrics (both engines) land in the manifest.
        counters = payload["metrics"]["counters"]
        assert counters["campaign.replicas"] > 0
        assert counters["campaign.epochs"] > 0

    def test_bench_json_stamps_creation_time(self, capsys):
        """created_unix_s is stamped once, at the CLI boundary."""
        assert main(self.BENCH_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["created_unix_s"], float)
        assert payload["created_unix_s"] > 0

    def test_bench_scalar_slice_extrapolates(self, capsys):
        assert main(self.BENCH_ARGS + ["--scalar-replicas", "2",
                                       "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["scalar_replicas_timed"] == 2
        scalar = payload["outputs"]["scalar"]
        assert scalar["wall_s"] == pytest.approx(
            scalar["measured_wall_s"] * 2, rel=1e-9
        )

    def test_bench_rejects_bad_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--profile", "zeppelin"])


class TestSolveObs:
    def test_trace_prints_digest(self, capsys):
        assert main(["solve", "airplane", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "engine.solve" in out

    def test_json_stdout_shape_unchanged_with_trace(self, capsys):
        """--trace must not pollute the pinned --json stdout contract."""
        assert main(["solve", "airplane", "--json", "--trace"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # still exactly one object
        assert payload["scenario"] == "airplane"
        assert "trace:" in captured.err  # digest goes to stderr

    def test_metrics_out_writes_manifest(self, tmp_path, capsys):
        target = tmp_path / "manifest.json"
        assert main(["solve", "quadrocopter",
                     "--metrics-out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["kind"] == "solve"
        assert payload["schema_version"] == 1
        assert payload["config"]["scenario"] == "quadrocopter"
        assert payload["outputs"]["distance_m"] > 0

    def test_metrics_out_matches_library_manifest(self, tmp_path, capsys):
        """CLI-written manifests serialise exactly like library ones."""
        from repro.api import scenario, solve
        from repro.obs import ObsContext

        target = tmp_path / "cli.json"
        assert main(["solve", "airplane", "--metrics-out", str(target)]) == 0
        capsys.readouterr()
        obs = ObsContext.enabled(deterministic=True)
        lib = solve(scenario("airplane"), obs=obs).manifest
        cli_payload = json.loads(target.read_text())
        lib_payload = json.loads(lib.to_json())
        # The engine memo cache is process-wide, so hit/miss counters
        # depend on what ran before; everything else must be identical.
        cli_payload.pop("metrics")
        lib_payload.pop("metrics")
        assert cli_payload == lib_payload


class TestObsCommand:
    def _write_manifest(self, tmp_path):
        target = tmp_path / "manifest.json"
        assert main(["solve", "airplane", "--trace",
                     "--metrics-out", str(target)]) == 0
        return target

    def test_summarize(self, tmp_path, capsys):
        target = self._write_manifest(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(target)]) == 0
        out = capsys.readouterr().out
        assert "kind=solve" in out
        assert "engine.solve" in out

    def test_summarize_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.json")]) == 1
        assert "no such manifest" in capsys.readouterr().err

    def test_summarize_rejects_schema_drift(self, tmp_path, capsys):
        target = self._write_manifest(tmp_path)
        payload = json.loads(target.read_text())
        payload["schema_version"] += 1
        target.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["obs", "summarize", str(target)]) == 1
        assert "not a run manifest" in capsys.readouterr().err


class TestSweepCommand:
    def test_text_summary(self, capsys):
        assert main(["sweep", "quadrocopter", "--param", "mdata_mb",
                     "--values", "1,10,30", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "swept parameter   : mdata_mb (3 value(s), 1..30)" in out
        assert "optimal distance" in out

    def test_json_manifest(self, capsys):
        assert main(["sweep", "airplane", "--param", "rho_per_m",
                     "--geomspace", "1e-5", "1e-3", "5",
                     "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep"
        assert payload["config"]["scenario"] == "airplane"
        assert payload["config"]["param"] == "rho_per_m"
        assert payload["outputs"]["n"] == 5

    def test_linspace_values(self, capsys):
        assert main(["sweep", "quadrocopter", "--param", "mdata_mb",
                     "--linspace", "1", "5", "5", "--json",
                     "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["n"] == 5

    def test_exactly_one_value_spec_required(self):
        with pytest.raises(SystemExit):
            main(["sweep", "airplane", "--param", "mdata_mb"])
        with pytest.raises(SystemExit):
            main(["sweep", "airplane", "--param", "mdata_mb",
                  "--values", "1,2", "--linspace", "1", "2", "2"])

    def test_bad_values_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "airplane", "--param", "mdata_mb",
                  "--values", "1,zeppelin"])
        with pytest.raises(SystemExit):
            main(["sweep", "airplane", "--param", "mdata_mb",
                  "--linspace", "1", "2", "2.5"])

    def test_manifest_out_cold_warm_byte_identity(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        args = ["sweep", "quadrocopter", "--param", "mdata_mb",
                "--linspace", "1", "40", "300"]
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        assert main(args + ["--manifest-out", str(cold)]) == 0
        assert main(args + ["--manifest-out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()

    def test_manifest_out_stays_obs_free_next_to_metrics_out(
            self, tmp_path, monkeypatch, capsys):
        # --metrics-out forces an obs context; --manifest-out in the
        # same invocation must still get the obs-free bytes, so a
        # bare cold run and a combined warm run write identical files.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        args = ["sweep", "quadrocopter", "--param", "mdata_mb",
                "--linspace", "1", "40", "60"]
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        metrics = tmp_path / "metrics.json"
        assert main(args + ["--manifest-out", str(cold)]) == 0
        assert main(args + ["--manifest-out", str(warm),
                            "--metrics-out", str(metrics)]) == 0
        assert cold.read_bytes() == warm.read_bytes()
        assert json.loads(warm.read_text())["metrics"] is None
        assert json.loads(metrics.read_text())["metrics"] is not None

    def test_metrics_out_records_store_provenance(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        args = ["sweep", "quadrocopter", "--param", "mdata_mb",
                "--linspace", "1", "40", "120"]
        assert main(args) == 0  # populate the store
        target = tmp_path / "metrics.json"
        assert main(args + ["--metrics-out", str(target)]) == 0
        counters = json.loads(target.read_text())["metrics"]["counters"]
        assert counters["store.points.warm"] == 120
        assert counters["store.hits"] >= 1
        assert not any(k.startswith("engine.") for k in counters)


class TestCacheCommand:
    def _populate(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(["sweep", "quadrocopter", "--param", "mdata_mb",
                     "--values", "1,5,10"]) == 0
        return cache_dir

    def test_stats(self, tmp_path, monkeypatch, capsys):
        cache_dir = self._populate(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == str(cache_dir)
        assert payload["entries"] >= 1
        assert payload["total_bytes"] > 0

    def test_explicit_dir_flag(self, tmp_path, monkeypatch, capsys):
        cache_dir = self._populate(tmp_path, monkeypatch)
        monkeypatch.delenv("REPRO_CACHE_DIR")
        capsys.readouterr()
        assert main(["cache", "--dir", str(cache_dir), "stats"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] >= 1

    def test_gc_and_clear(self, tmp_path, monkeypatch, capsys):
        self._populate(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "gc", "--max-bytes", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["evicted"] >= 1
        assert main(["cache", "clear"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 0

    def test_verify_clean_store(self, tmp_path, monkeypatch, capsys):
        self._populate(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] == 0
        assert payload["checked"] >= 1

    def test_verify_no_repair_flags_corruption(self, tmp_path,
                                               monkeypatch, capsys):
        cache_dir = self._populate(tmp_path, monkeypatch)
        victim = next((cache_dir / "objects").rglob("*.json"))
        victim.write_text("broken")
        capsys.readouterr()
        assert main(["cache", "verify", "--no-repair"]) == 1
        assert json.loads(capsys.readouterr().out)["corrupt"] == 1
        assert victim.exists()  # report-only: entry kept
        assert main(["cache", "verify"]) == 0  # repair drops it
        assert not victim.exists()

    def test_no_cache_flag_bypasses_the_store(self, tmp_path,
                                              monkeypatch, capsys):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(["sweep", "quadrocopter", "--param", "mdata_mb",
                     "--values", "1,5", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0


class TestChaosJsonManifest:
    CHAOS_ARGS = ["chaos", "quadrocopter", "--outage", "5:3", "--seed", "7"]

    def test_chaos_json_is_a_manifest(self, capsys):
        assert main(self.CHAOS_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "chaos"
        assert payload["outputs"]["completed"] is True
        assert payload["metrics"]["counters"]["faults.link_outage"] == 1
        assert payload["seeds"] == {"chaos": 7}

    @staticmethod
    def _unstamped(document: str) -> str:
        """The manifest bytes with the CLI's wall-clock stamp removed.

        ``created_unix_s`` is the only manifest field allowed to differ
        across replays — it is stamped at the CLI boundary, below which
        the chaos pipeline stays byte-deterministic.
        """
        payload = json.loads(document)
        payload["created_unix_s"] = None
        return json.dumps(payload, sort_keys=True)

    def test_chaos_json_replays_identically(self, capsys):
        assert main(self.CHAOS_ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.CHAOS_ARGS + ["--json"]) == 0
        second = capsys.readouterr().out
        assert self._unstamped(first) == self._unstamped(second)

    def test_chaos_json_stamps_creation_time(self, capsys):
        assert main(self.CHAOS_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["created_unix_s"], float)
        assert payload["created_unix_s"] > 0

    def test_chaos_json_matches_library_bytes(self, capsys):
        from repro.api import FaultPlan, chaos

        assert main(self.CHAOS_ARGS + ["--json"]) == 0
        cli_line = capsys.readouterr().out
        plan = FaultPlan(name="cli", seed=7).with_outage(5.0, 3.0)
        result = chaos(plan, scenario_name="quadrocopter", seed=7)
        assert (
            self._unstamped(cli_line.rstrip("\n"))
            == self._unstamped(result.manifest.to_json())
        )


class TestRelayCommand:
    RELAY_ARGS = ["relay", "--hops", "quadrocopter,airplane",
                  "--mdata-mb", "2", "--deadline", "300"]

    def test_text_summary(self, capsys):
        assert main(self.RELAY_ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "chain             : quadrocopter-airplane (2 hop(s))" in out
        assert "chain utility" in out
        assert "deadline 300 s, met" in out

    def test_json_manifest_shape(self, capsys):
        assert main(self.RELAY_ARGS + ["--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "relay"
        assert payload["config"]["n_hops"] == 2
        assert [h["policy"] for h in payload["outputs"]["hops"]]
        assert payload["outputs"]["meets_deadline"] is True
        # No CLI-boundary wall-clock stamp: relay manifests must be
        # byte-reproducible across cold and warm runs.
        assert payload["created_unix_s"] is None

    def test_missed_deadline_exits_nonzero(self, capsys):
        args = ["relay", "--hops", "quadrocopter,quadrocopter",
                "--deadline", "1", "--no-cache"]
        assert main(args) == 1
        assert "MISSED" in capsys.readouterr().out

    def test_single_hop_matches_solve(self, capsys):
        from repro.api import scenario, solve

        assert main(["relay", "--hops", "quadrocopter", "--json",
                     "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        decision = solve(scenario("quadrocopter")).outputs
        (hop,) = payload["outputs"]["hops"]
        assert hop["distance_m"] == decision.distance_m
        assert payload["outputs"]["utility"] == (
            decision.discount / decision.cdelay_s
        )

    def test_unknown_hop_rejected(self, capsys):
        assert main(["relay", "--hops", "zeppelin", "--no-cache"]) == 2
        assert "zeppelin" in capsys.readouterr().err

    def test_empty_hops_rejected(self, capsys):
        assert main(["relay", "--hops", ",", "--no-cache"]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_json_cold_warm_byte_identity(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(self.RELAY_ARGS + ["--json"]) == 0
        cold = capsys.readouterr().out
        assert main(self.RELAY_ARGS + ["--json"]) == 0
        warm = capsys.readouterr().out
        assert cold == warm

    def test_json_matches_library_bytes(self, tmp_path, monkeypatch,
                                        capsys):
        from repro.api import scenario, solve_relay
        from repro.relay import RelayChain

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(self.RELAY_ARGS + ["--json"]) == 0
        cli_line = capsys.readouterr().out.rstrip("\n")
        chain = RelayChain.of(
            [scenario("quadrocopter"), scenario("airplane")],
            handoff_s=5.0,
            name="quadrocopter-airplane",
            deadline_s=300.0,
            mdata_mb=2.0,
        )
        assert cli_line == solve_relay(chain).manifest.to_json()
