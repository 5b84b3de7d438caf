"""CLI tests (fast paths only)."""

import json

import pytest

import repro.cli
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the default result cache away from the working tree."""
    monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cli-cache"))


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("mp3d", "cholesky", "water", "lu"):
        assert name in out


def test_run_command_tiny(capsys):
    code = main(["run", "migratory-counters", "--protocol", "AD"])
    assert code == 0
    out = capsys.readouterr().out
    assert "execution time" in out
    assert "nominations" in out


def test_compare_command_tiny(capsys):
    code = main(["compare", "producer-consumer"])
    assert code == 0
    out = capsys.readouterr().out
    assert "execution-time ratio" in out
    assert "read-exclusive reduction" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "not-a-workload"])


def test_unknown_protocol_rejected():
    with pytest.raises(SystemExit):
        main(["run", "lu", "--protocol", "MOESI"])


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("run", "compare", "table1", "report", "list",
                "figure5", "serve", "cache"):
        assert sub in text


def test_run_command_warm_cache(capsys):
    args = ["run", "migratory-counters", "--protocol", "AD"]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "miss (stored)" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "hit (fingerprint verified)" in warm
    # Identical printed metrics apart from the cache line.
    strip = lambda out: [l for l in out.splitlines() if "result cache" not in l]
    assert strip(cold) == strip(warm)
    assert main(args + ["--no-cache"]) == 0
    assert "disabled" in capsys.readouterr().out


def test_figure5_command_warm_cache(tmp_path, capsys):
    stats1, stats2 = tmp_path / "cold.json", tmp_path / "warm.json"
    args = ["figure5", "--preset", "tiny", "--no-check"]
    assert main(args + ["--stats-json", str(stats1)]) == 0
    out = capsys.readouterr().out
    assert "W-I" in out and "result cache" in out
    cold = json.loads(stats1.read_text())
    assert cold["hits"] == 0 and cold["stores"] == cold["misses"] > 0

    assert main(args + ["--stats-json", str(stats2)]) == 0
    capsys.readouterr()
    warm = json.loads(stats2.read_text())
    assert warm["misses"] == 0
    assert warm["hit_rate"] == 1.0
    assert warm["hits"] == cold["stores"]


def test_cache_stats_and_clear(capsys):
    assert main(["run", "migratory-counters"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == 1
    assert doc["code_version"]
    assert main(["cache", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_compare_command_workers(capsys):
    code = main(["compare", "producer-consumer", "--workers", "2"])
    assert code == 0
    assert "execution-time ratio" in capsys.readouterr().out


def test_report_command_prints_the_report_then_one_cache_footer(
    monkeypatch, capsys
):
    stores = []

    def fake_report(**kwargs):
        stores.append(kwargs["store"])
        return "REPORT"

    monkeypatch.setattr(repro.cli, "full_report", fake_report)
    # With --no-cache, stdout is the report alone (the committed golden).
    assert main(["report", "--no-cache"]) == 0
    assert capsys.readouterr().out == "REPORT\n"
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("REPORT\n\nresult cache: 0 hits / 0 misses")
    assert out.count("result cache") == 1
    assert stores[0] is None and stores[1] is not None


def test_verify_command(capsys):
    assert main(["verify", "--protocol", "AD", "--caches", "2", "--ops", "2"]) == 0
    out = capsys.readouterr().out
    assert "invariants held" in out


def test_sharing_command(capsys):
    assert main(["sharing", "migratory-counters", "--no-check"]) == 0
    out = capsys.readouterr().out
    assert "migratory" in out
    assert "invalidations" in out


def test_profile_command(tmp_path, capsys):
    target = tmp_path / "profile.json"
    code = main(
        ["profile", "migratory-counters", "--no-check", "--top", "5",
         "--output", str(target)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tottime" in out
    assert "events/s" in out
    import json

    doc = json.loads(target.read_text())
    assert doc["schema"] == "repro-profile/1"
    assert doc["workload"] == "migratory-counters"
    assert len(doc["hotspots"]) == 5
    assert doc["events_processed"] > 0
    # Profiling must not perturb the simulation itself.
    assert doc["execution_time"] > 0
    # The artifact is self-describing: it records how to reproduce it.
    assert doc["seed"] == 42
    assert doc["check_coherence"] is False
    assert doc["machine"]["nodes"] == 16
    assert doc["machine"]["line_size"] == 16


def test_run_trace_flag_prints_latency_summary(capsys):
    code = main(["run", "migratory-counters", "--protocol", "AD", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "miss type" in out
    assert "p95" in out
    assert "per-segment mean cycles" in out


def test_trace_command_writes_artifacts(tmp_path, capsys):
    import json

    perfetto = tmp_path / "trace.json"
    spans = tmp_path / "spans.json"
    metrics = tmp_path / "metrics.csv"
    code = main(
        ["trace", "migratory-counters", "--protocol", "AD", "--no-check",
         "--perfetto", str(perfetto), "--spans", str(spans),
         "--metrics", str(metrics), "--metrics-interval", "100"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "transactions" in out and "perfetto" in out

    from repro.obs import validate_trace_events

    trace_doc = json.loads(perfetto.read_text())
    assert validate_trace_events(trace_doc) > 0
    spans_doc = json.loads(spans.read_text())
    assert spans_doc["schema"] == "repro-trace/1"
    assert spans_doc["summary"]["spans_closed"] == len(spans_doc["spans"])
    header = metrics.read_text().splitlines()[0]
    assert header.startswith("time,events_queued")


def test_trace_command_summary_only(capsys):
    code = main(["trace", "migratory-counters", "--no-check"])
    assert code == 0
    out = capsys.readouterr().out
    assert "data served by" in out


def test_bus_command(capsys):
    assert main(["bus", "migratory-counters", "--no-check"]) == 0
    out = capsys.readouterr().out
    assert "bus transactions" in out
    assert "nominations" in out


def test_bus_update_protocol(capsys):
    assert main(
        ["bus", "migratory-counters", "--base", "update", "--protocol", "W-I",
         "--no-check"]
    ) == 0
    out = capsys.readouterr().out
    assert "updates_broadcast" in out


def test_parse_size_units():
    from repro.cli import _parse_size

    assert _parse_size("512") == 512
    assert _parse_size("100K") == 100 * 1024
    assert _parse_size("64M") == 64 * 1024 ** 2
    assert _parse_size("2G") == 2 * 1024 ** 3
    assert _parse_size("1.5g") == int(1.5 * 1024 ** 3)
    assert _parse_size("64MB") == 64 * 1024 ** 2
    with pytest.raises(SystemExit, match="bad size"):
        _parse_size("sixty-four")
    # A negative budget would evict the whole cache; inf/nan cannot be
    # converted to a byte count.
    for bad in ("-5M", "-1", "inf", "-inf", "nan", "1e400G"):
        with pytest.raises(SystemExit, match="bad size"):
            _parse_size(bad)


def test_cache_prune_command(capsys):
    assert main(["run", "migratory-counters"]) == 0
    assert main(["run", "producer-consumer"]) == 0
    capsys.readouterr()
    # Generous budget: nothing to evict.
    assert main(["cache", "prune", "--max-bytes", "1G"]) == 0
    assert "evicted 0" in capsys.readouterr().out
    # One-byte budget: everything goes, LRU first.
    assert main(["cache", "prune", "--max-bytes", "1"]) == 0
    out = capsys.readouterr().out
    assert "evicted 2 least-recently-fetched entries" in out
    assert main(["cache", "stats"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cache_prune_requires_max_bytes():
    with pytest.raises(SystemExit, match="--max-bytes"):
        main(["cache", "prune"])


def test_figure5_interrupt_exits_130_and_rerun_computes_the_rest(
    monkeypatch, capsys
):
    import repro.experiments.parallel as parallel

    execute = parallel.execute_spec
    calls = []

    def interrupt_third_cell(spec):
        calls.append(spec)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return execute(spec)

    monkeypatch.setattr(parallel, "execute_spec", interrupt_third_cell)
    args = ["figure5", "--preset", "tiny", "--no-check"]
    # Without a store there is nothing to keep: Ctrl-C propagates.
    with pytest.raises(KeyboardInterrupt):
        main(args + ["--no-cache"])
    calls.clear()
    assert main(args) == 130
    out = capsys.readouterr().out
    assert "interrupted: 2 new cell(s) stored" in out
    assert "rerun the same command to compute only the rest" in out

    monkeypatch.setattr(parallel, "execute_spec", execute)
    assert main(args) == 0
    assert "2 hits / 6 misses" in capsys.readouterr().out


def test_figure5_stats_json_requires_cache(tmp_path):
    stats = tmp_path / "stats.json"
    with pytest.raises(SystemExit, match="--stats-json.*--no-cache"):
        main(["figure5", "--preset", "tiny", "--no-check", "--no-cache",
              "--stats-json", str(stats)])
    assert not stats.exists()
