"""Tests for the command-line interface and text report formatting."""

import json

import pytest

from repro.cli import build_parser, main
from repro.report import format_table, metrics_report_text


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [100, 3.25]])
        lines = text.splitlines()
        assert lines[0].endswith("bb")
        assert "---" in lines[1]
        assert lines[2].split() == ["1", "2.5"]
        assert lines[3].split() == ["100", "3.2"]

    def test_floats_formatted_to_one_decimal(self):
        text = format_table(["x"], [[1.2345]])
        assert "1.2" in text and "1.2345" not in text


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("characterize", "timing", "flow", "schedule",
                        "export"):
            args = parser.parse_args([command]
                                     + (["--design", "idct"]
                                        if command in ("flow", "schedule")
                                        else []))
            assert args.command == command

    def test_years_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["timing", "--years", "1,5,10"])
        assert args.years == [1.0, 5.0, 10.0]

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_timing_command(self, capsys):
        code = main(["timing", "--component", "adder", "--width", "8",
                     "--years", "10", "--effort", "high"])
        out = capsys.readouterr().out
        assert code == 0
        assert "critical path" in out
        assert "10y_worst" in out
        assert "guardband" in out

    def test_characterize_command_with_output(self, capsys, tmp_path):
        path = tmp_path / "lib.json"
        code = main(["characterize", "--component", "adder", "--width",
                     "8", "--years", "10", "--sweep-bits", "3",
                     "--effort", "high", "--output", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "required precision" in out
        assert path.exists()
        from repro.core import AgingApproximationLibrary
        store = AgingApproximationLibrary.load(path)
        assert "adder_w8" in store

    def test_characterize_update_merges(self, capsys, tmp_path):
        path = tmp_path / "lib.json"
        main(["characterize", "--component", "adder", "--width", "8",
              "--years", "10", "--sweep-bits", "2", "--effort", "high",
              "--output", str(path)])
        capsys.readouterr()
        code = main(["characterize", "--component", "multiplier",
                     "--width", "6", "--years", "10", "--sweep-bits",
                     "2", "--effort", "high", "--output", str(path),
                     "--update"])
        assert code == 0
        from repro.core import AgingApproximationLibrary
        store = AgingApproximationLibrary.load(path)
        assert len(store) == 2

    def test_flow_command(self, capsys):
        code = main(["flow", "--design", "fir", "--width", "10",
                     "--years", "10", "--effort", "high"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validated: True" in out
        assert "mult" in out

    @pytest.mark.parametrize("command", ["flow", "schedule"])
    def test_stress_balance_is_used(self, command, capsys):
        """``--stress balance`` ages the design under balanced stress:
        its report differs from the worst-case one and names the
        balanced scenario."""
        outputs = {}
        for stress in ("worst", "balance"):
            code = main([command, "--design", "fir", "--width", "10",
                         "--years", "10", "--effort", "high",
                         "--stress", stress])
            assert code == 0
            outputs[stress] = capsys.readouterr().out
        assert outputs["balance"] != outputs["worst"]
        if command == "flow":
            assert "10y_balance" in outputs["balance"]
            assert "10y_worst" not in outputs["balance"]

    def test_flow_unknown_design(self, capsys):
        code = main(["flow", "--design", "gpu", "--width", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown design" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_component(self, capsys):
        code = main(["timing", "--component", "divider"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown component" in err
        assert len(err.strip().splitlines()) == 1

    def test_schedule_command(self, capsys):
        code = main(["schedule", "--design", "fir", "--width", "10",
                     "--years", "1,10", "--effort", "high"])
        out = capsys.readouterr().out
        assert code == 0
        assert "graceful-degradation schedule" in out
        assert "age_years" in out

    def test_export_command(self, capsys, tmp_path):
        verilog = tmp_path / "adder.v"
        sdf = tmp_path / "adder.sdf"
        code = main(["export", "--component", "adder", "--width", "8",
                     "--effort", "high", "--verilog", str(verilog),
                     "--sdf", str(sdf), "--years", "10"])
        assert code == 0
        assert "module" in verilog.read_text()
        assert "DELAYFILE" in sdf.read_text()
        # Exported artifacts round-trip through our own readers.
        from repro.netlist import from_verilog
        from repro.sta import gate_delays_from_sdf
        net = from_verilog(verilog.read_text())
        delays = gate_delays_from_sdf(sdf.read_text())
        assert set(delays) == {g.uid for g in net.gates} or len(delays) > 0

    def test_export_requires_target(self, capsys):
        code = main(["export", "--component", "adder", "--width", "8",
                     "--effort", "high"])
        err = capsys.readouterr().err
        assert code == 2
        assert "nothing to export" in err


class TestObservabilityFlags:
    def test_flags_uniform_across_subcommands(self):
        parser = build_parser()
        for command in ("characterize", "timing", "flow", "schedule",
                        "export"):
            args = parser.parse_args(
                [command, "--timings", "--trace", "t.json", "--metrics",
                 "m.json", "--manifest", "r.json", "--log-level", "debug"]
                + (["--design", "idct"]
                   if command in ("flow", "schedule") else []))
            assert args.trace == "t.json"
            assert args.metrics == "m.json"
            assert args.manifest == "r.json"
            assert args.log_level == "debug"
            assert args.timings

    def test_flow_trace_metrics_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "out.json"
        metrics = tmp_path / "metrics.json"
        code = main(["flow", "--design", "fir", "--width", "10",
                     "--years", "10", "--effort", "high", "--jobs", "2",
                     "--trace", str(trace), "--metrics", str(metrics)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace written to" in out
        assert "metrics written to" in out
        assert "run manifest written to" in out

        payload = json.loads(trace.read_text())
        timed = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in timed}
        assert "cli.flow" in names
        assert "sta.analyze_batch" in names
        # Point synthesis traces as the one-time base synthesis plus
        # sweep derivations; a warm per-process base memo (inherited by
        # forked pool workers) can elide the former.
        assert "synth.synthesize" in names or "synth.sweep.derive" in names
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        assert all(e["dur"] >= 0 for e in timed)
        # Worker spans got re-parented home with their own pid.
        assert len({e["pid"] for e in timed}) >= 1

        snap = json.loads(metrics.read_text())
        counters = snap["counters"]
        # A warm per-process sweep memo (inherited by forked workers)
        # can serve every point without re-synthesizing; either path
        # must leave a metrics footprint.
        assert (counters.get("synth.runs", 0) > 0
                or counters.get("synth.sweep.base_memo_hits", 0) > 0)
        assert counters["sta.batch.runs"] > 0
        if counters.get("synth.runs", 0) > 0:
            assert snap["histograms"]["synth.delay_ps"]["count"] > 0

        manifest = json.loads(
            (tmp_path / "metrics.manifest.json").read_text())
        assert manifest["command"] == "repro-aging flow"
        assert manifest["config"]["design"] == "fir"
        assert manifest["library"]["name"]
        mcounters = manifest["metrics"]["counters"]
        assert (mcounters.get("synth.runs", 0) > 0
                or mcounters.get("synth.sweep.base_memo_hits", 0) > 0)
        assert manifest["stages"]
        assert (manifest["peak_rss_bytes"] is None
                or manifest["peak_rss_bytes"] > 0)

    def test_jsonl_trace_export(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        code = main(["timing", "--component", "adder", "--width", "6",
                     "--years", "10", "--effort", "high",
                     "--trace", str(trace)])
        assert code == 0
        rows = [json.loads(line)
                for line in trace.read_text().splitlines()]
        assert rows[0]["name"] == "cli.timing"
        assert rows[0]["depth"] == 0
        assert any(r["name"] == "synthesize" for r in rows)

    def test_timings_flag_on_timing_and_export(self, capsys, tmp_path):
        code = main(["timing", "--component", "adder", "--width", "6",
                     "--years", "10", "--effort", "high", "--timings"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-stage timing:" in out
        assert "synthesize" in out

        verilog = tmp_path / "a.v"
        code = main(["export", "--component", "adder", "--width", "6",
                     "--effort", "high", "--verilog", str(verilog),
                     "--timings"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-stage timing:" in out
        assert verilog.exists()

    def test_log_level_flag(self, capsys):
        import logging
        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            code = main(["timing", "--component", "adder", "--width",
                         "6", "--years", "10", "--effort", "high",
                         "--log-level", "error"])
            assert code == 0
            assert root.level == logging.ERROR
        finally:
            for h in [h for h in root.handlers if h not in before]:
                root.removeHandler(h)

    def test_standalone_manifest_flag(self, capsys, tmp_path):
        manifest = tmp_path / "run.json"
        code = main(["timing", "--component", "adder", "--width", "6",
                     "--years", "10", "--effort", "high",
                     "--manifest", str(manifest)])
        assert code == 0
        data = json.loads(manifest.read_text())
        assert data["command"] == "repro-aging timing"
        assert data["metrics"]["counters"]["synth.runs"] >= 1


class TestMetricsReportText:
    def test_renders_counters_gauges_histograms(self):
        snap = {"schema": 1,
                "counters": {"cache.hits": 3, "cache.misses": 1,
                             "cache.bytes_read": 400,
                             "cache.bytes_written": 100},
                "gauges": {"sim.vectors_per_sec": 2.0e6},
                "histograms": {"synth.delay_ps": {
                    "count": 2, "sum": 2469.0, "min": 1200.0,
                    "max": 1269.0, "boundaries": [1e3],
                    "buckets": [0, 2]}}}
        text = metrics_report_text(snap)
        assert "cache.hits" in text
        assert "sim.vectors_per_sec" in text
        assert "synth.delay_ps" in text
        assert "cache hit ratio: 75%" in text
        assert "400 read" in text

    def test_empty_snapshot(self):
        text = metrics_report_text(
            {"schema": 1, "counters": {}, "gauges": {}, "histograms": {}})
        assert "(no metrics recorded)" in text

    def test_accepts_registry_object(self):
        from repro.obs import metrics as obs_metrics
        reg = obs_metrics.MetricsRegistry()
        reg.counter("sta.runs").inc(4)
        assert "sta.runs" in metrics_report_text(reg)


class TestReportHelpers:
    def test_characterization_report_text(self, lib):
        from repro.aging import worst_case
        from repro.core import characterize
        from repro.report import characterization_report
        from repro.rtl import Adder
        entry = characterize(Adder(8), lib, scenarios=[worst_case(10)],
                             precisions=[8, 6], effort="high")
        text = characterization_report(entry)
        assert "component adder_w8" in text
        assert "10y_worst_ps" in text
        assert "required precision" in text

    def test_flow_report_text(self, lib):
        from repro.aging import worst_case
        from repro.core import Block, Microarchitecture, remove_guardband
        from repro.report import flow_report_text
        from repro.rtl import Adder, Multiplier
        micro = Microarchitecture("mini", [
            Block("mult", Multiplier(10)), Block("acc", Adder(10))])
        report = remove_guardband(micro, lib, worst_case(10),
                                  effort="high")
        text = flow_report_text(report)
        assert "timing constraint" in text
        assert "mult" in text and "acc" in text
        assert "yes" in text
        assert "NO" not in text

    def test_schedule_report_text(self, lib):
        from repro.core import Block, Microarchitecture
        from repro.core.adaptive import plan_graceful_degradation
        from repro.report import schedule_report_text
        from repro.rtl import Adder, Multiplier
        micro = Microarchitecture("mini", [
            Block("mult", Multiplier(10)), Block("acc", Adder(10))])
        schedule = plan_graceful_degradation(micro, lib, [1, 10],
                                             effort="high")
        text = schedule_report_text(schedule)
        assert "graceful-degradation schedule" in text
        assert "age_years" in text
        assert text.count("\n") >= 4

    def test_timing_report_text(self, lib, adder8):
        from repro.report import timing_report_text
        from repro.sta import analyze
        text = timing_report_text(adder8, lib, analyze(adder8, lib))
        assert "critical path" in text
        assert "slowest outputs" in text
