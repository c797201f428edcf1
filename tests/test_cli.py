"""CLI behaviour (python -m repro ...) via direct main() calls."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "nosuchapp"])

    def test_registry_store_dir_accepted_at_either_position(self):
        parser = build_parser()
        root = parser.parse_args(["--store-dir", "/x", "registry"])
        local = parser.parse_args(["registry", "--store-dir", "/x"])
        assert root.store_dir == local.store_dir == "/x"

    def test_store_compact_store_dir_accepted_at_either_position(self):
        parser = build_parser()
        root = parser.parse_args(["--store-dir", "/x", "store", "compact"])
        local = parser.parse_args(["store", "compact",
                                   "--store-dir", "/x"])
        assert root.store_dir == local.store_dir == "/x"


class TestApps:
    def test_lists_all_ten(self, capsys):
        code, out = run(capsys, "apps")
        assert code == 0
        for app in ("cg", "mg", "is", "lu", "bt", "sp", "dc", "ft",
                    "kmeans", "lulesh"):
            assert f"\n{app} " in out or out.startswith(f"{app} ")


class TestSample:
    def test_leveugle_default(self, capsys):
        code, out = run(capsys, "sample", "100000")
        assert code == 0
        assert "1056" in out  # 95%/3% on a large population

    def test_custom_margin(self, capsys):
        code, out = run(capsys, "sample", "100000", "--margin", "0.01")
        assert code == 0
        # 99%... no: default confidence 0.95, margin 1% -> ~8763
        n = int(out.rsplit(" ", 2)[-2])
        assert n > 5000


class TestTraceRegionsIO:
    def test_trace_kmeans(self, capsys):
        code, out = run(capsys, "trace", "kmeans")
        assert code == 0
        assert "records" in out and "PASS" in out

    def test_regions_lists_loop_regions(self, capsys):
        code, out = run(capsys, "regions", "kmeans", "--instance", "0")
        assert code == 0
        assert "k_f" in out and "loop" in out

    def test_io_summary(self, capsys):
        code, out = run(capsys, "io", "kmeans", "k_f", "-v", "--limit", "3")
        assert code == 0
        assert "in /" in out and "internal" in out
        assert "loc " in out


class TestTrackerClosed:
    @pytest.mark.parametrize("argv", [
        ("trace", "kmeans"),
        ("rates", "kmeans"),
        ("--seed", "7", "inject", "kmeans", "k_d", "--kind", "internal"),
    ])
    def test_command_closes_its_tracker(self, capsys, monkeypatch, argv):
        from repro.core import FlipTracker
        closed = []
        close = FlipTracker.close

        def spy(self):
            closed.append(self)
            close(self)
        monkeypatch.setattr(FlipTracker, "close", spy)
        code, _out = run(capsys, *argv)
        assert code == 0
        assert len(closed) == 1 and isinstance(closed[0], FlipTracker)


class TestInjectAndACL:
    def test_inject_reports_manifestation(self, capsys):
        code, out = run(capsys, "--seed", "7", "inject", "kmeans", "k_d",
                        "--kind", "internal")
        assert code == 0
        assert "manifestation:" in out
        assert "ACL: peak=" in out

    def test_inject_deterministic_across_calls(self, capsys):
        _, out1 = run(capsys, "--seed", "9", "inject", "kmeans", "k_d")
        _, out2 = run(capsys, "--seed", "9", "inject", "kmeans", "k_d")
        assert out1.splitlines()[0] == out2.splitlines()[0]

    def test_acl_chart_renders(self, capsys):
        code, out = run(capsys, "--seed", "7", "acl", "kmeans", "k_d")
        assert code == 0
        assert "dynamic instructions" in out


class TestCampaign:
    def test_small_campaign(self, capsys):
        code, out = run(capsys, "--seed", "3", "campaign", "kmeans", "k_d",
                        "-n", "6")
        assert code == 0
        assert "success_rate=" in out
        assert "6 injections" in out


class TestRates:
    def test_rates_table(self, capsys):
        code, out = run(capsys, "rates", "is")
        assert code == 0
        assert "shift" in out and "overwrite" in out


class TestDot:
    def test_dot_stdout(self, capsys):
        code, out = run(capsys, "dot", "kmeans", "k_d")
        assert code == 0
        assert out.startswith("digraph")

    def test_dot_to_file(self, capsys, tmp_path):
        path = tmp_path / "g.dot"
        code, out = run(capsys, "dot", "kmeans", "k_d", "-o", str(path))
        assert code == 0
        assert path.read_text().startswith("digraph")
        assert "wrote" in out


class TestRecover:
    def test_policy_table(self, capsys):
        code, out = run(capsys, "--seed", "20181111", "recover", "kmeans",
                        "--region", "k_d",
                        "--policy", "abort,recompute-region", "-n", "2")
        assert code == 0
        assert "abort" in out and "recompute-region" in out
        assert "success_rate=" in out

    def test_json_envelope(self, capsys):
        from repro.api import ExperimentResult
        code, out = run(capsys, "--seed", "20181111", "recover", "kmeans",
                        "--region", "k_d", "-n", "2", "--json")
        assert code == 0
        result = ExperimentResult.from_json(out)
        (spec_result,) = result.results
        assert spec_result.mode == "recovery"
        assert spec_result.recovery["policy"] == "recompute-region"
        regions = spec_result.recovery["regions"]
        assert regions and all(r["n"] == 2 for r in regions)

    def test_bad_policy_fails_cleanly(self, capsys):
        code = main(["recover", "kmeans", "--policy", "pray"])
        assert code == 1
        assert "pray" in capsys.readouterr().err


class TestStore:
    def test_compact_accepts_flag_at_either_position(self, capsys,
                                                     tmp_path):
        from repro.profiles import ResultStore
        store_dir = str(tmp_path / "store")
        with ResultStore(store_dir) as store:
            store.put("deadbeef", {"region": "k_d"})
        code, out = run(capsys, "store", "compact",
                        "--store-dir", store_dir)
        assert code == 0 and "1 live" in out
        code, out = run(capsys, "--store-dir", store_dir,
                        "store", "compact")
        assert code == 0 and "1 live" in out

    def test_compact_requires_store_dir(self, capsys):
        code = main(["store", "compact"])
        assert code == 1
        assert "--store-dir" in capsys.readouterr().err


class TestRunSpec:
    SPEC = """{
      "schema_version": 1,
      "name": "cli-mini",
      "apps": ["kmeans"],
      "seed": 3,
      "specs": [
        {"type": "campaign", "region": "k_d", "kind": "internal", "n": 4},
        {"type": "campaign", "region": "k_d", "kind": "input", "n": 4}
      ]
    }"""

    def spec_file(self, tmp_path, text=None):
        path = tmp_path / "spec.json"
        path.write_text(text or self.SPEC)
        return str(path)

    def test_run_summary_table(self, capsys, tmp_path):
        code, out = run(capsys, "run", self.spec_file(tmp_path))
        assert code == 0
        assert "cli-mini" in out
        assert "kmeans/k_d/internal" in out and "kmeans/k_d/input" in out
        assert "2 dispatches" in out  # one per kind, not one per spec

    def test_run_json_envelope_round_trips(self, capsys, tmp_path):
        import json

        from repro.api import ExperimentResult
        code, out = run(capsys, "run", self.spec_file(tmp_path), "--json")
        assert code == 0
        result = ExperimentResult.from_json(out)
        assert result.experiment.name == "cli-mini"
        assert result.campaign("kmeans", 0).total == 4
        assert len(json.loads(out)["dispatches"]) == 2

    def test_canonical_json_is_deterministic(self, capsys, tmp_path):
        path = self.spec_file(tmp_path)
        _, out1 = run(capsys, "run", path, "--json", "--canonical")
        _, out2 = run(capsys, "run", path, "--json", "--canonical")
        assert out1 == out2
        assert "seconds" not in out1 and "elapsed" not in out1

    def test_cli_flags_override_spec(self, capsys, tmp_path):
        import json
        path = self.spec_file(tmp_path)
        code, out = run(capsys, "--seed", "777", "--shard-size", "2",
                        "run", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"]["seed"] == 777
        assert payload["experiment"]["shard_size"] == 2

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == 1
        assert "cannot read spec" in capsys.readouterr().err

    def test_bad_spec_reports_spec_error(self, tmp_path, capsys):
        path = self.spec_file(tmp_path, text='{"schema_version": 1}')
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad spec" in err

    def test_unknown_field_named_in_error(self, tmp_path, capsys):
        bad = self.SPEC.replace('"seed": 3', '"sede": 3')
        path = self.spec_file(tmp_path, text=bad)
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == 1 and "sede" in err

    def test_explicitly_set_default_still_overrides_spec(self, capsys,
                                                         tmp_path):
        import json
        spec = json.loads(self.SPEC)
        spec["backend"] = "socket"
        path = self.spec_file(tmp_path, text=json.dumps(spec))
        # --backend local equals the built-in default but was explicit,
        # so it must beat the spec's socket backend
        _, out = run(capsys, "--backend", "local", "run", path, "--json")
        payload = json.loads(out)
        assert payload["experiment"]["backend"] == "local"
        assert payload["dispatches"][0]["backend"] == "local"

    def test_unknown_app_fails_cleanly(self, capsys, tmp_path):
        bad = self.SPEC.replace('"kmeans"', '"nosuchapp"')
        code = main(["run", self.spec_file(tmp_path, text=bad)])
        err = capsys.readouterr().err
        assert code == 1 and "nosuchapp" in err

    def test_unknown_region_fails_cleanly(self, capsys, tmp_path):
        bad = self.SPEC.replace('"k_d"', '"nope"')
        code = main(["run", self.spec_file(tmp_path, text=bad)])
        err = capsys.readouterr().err
        assert code == 1 and "bad spec target" in err
