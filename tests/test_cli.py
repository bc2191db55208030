"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_prints_table2(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "164.gzip" in out
    assert "Spec-DSWP+[S,DOALL,S]" in out
    assert "Memory Versioning" in out


def test_run_single_benchmark(capsys):
    assert main(["run", "swaptions", "--cores", "8"]) == 0
    out = capsys.readouterr().out
    assert "swaptions on 8 cores" in out
    assert "Spec-DOALL" in out
    assert "TLS" in out
    assert "MTXs" in out


def test_run_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["run", "999.nothere"])


def test_sweep_small(capsys):
    assert main(["sweep", "swaptions", "--cores", "8,16"]) == 0
    out = capsys.readouterr().out
    assert "swaptions scalability" in out
    assert "8" in out and "16" in out


def test_sweep_drops_undersized_core_counts(capsys):
    # gzip's 3-stage pipeline needs 5 cores; 4 is skipped silently.
    assert main(["sweep", "164.gzip", "--cores", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "8" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_core_list_parsing():
    args = build_parser().parse_args(["sweep", "crc32", "--cores", "8,32,64"])
    assert args.cores == [8, 32, 64]


def test_chaos_crash_scenario(capsys):
    assert main(["chaos", "--crash-node", "0", "--iterations", "16"]) == 0
    out = capsys.readouterr().out
    assert "NodeCrash" in out
    assert "identical" in out.lower() or "match" in out.lower()


def test_chaos_digest_only_is_stable(capsys):
    argv = ["chaos", "--crash-node", "0", "--iterations", "16", "--digest-only"]
    assert main(argv) == 0
    first = capsys.readouterr().out.strip()
    assert main(argv) == 0
    second = capsys.readouterr().out.strip()
    assert first == second
    assert len(first) == 64  # a sha256 hex digest, nothing else


def _write_campaign(tmp_path, name="cli-tiny"):
    import json

    doc = {
        "name": name,
        "scenarios": [{"name": "one", "benchmark": "crc32",
                       "iterations": 8, "expect": {"committed_mtxs": 8}}],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_campaign_run_report_list(tmp_path, capsys):
    store = str(tmp_path / "c.sqlite")
    path = _write_campaign(tmp_path)
    assert main(["campaign", "run", str(path), "--store", store,
                 "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "1 ok" in out
    assert "stored campaign #1" in out
    assert main(["campaign", "report", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "cli-tiny" in out
    assert main(["campaign", "list", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "cli-tiny" in out


def test_campaign_report_digests_format(tmp_path, capsys):
    store = str(tmp_path / "c.sqlite")
    path = _write_campaign(tmp_path)
    assert main(["campaign", "run", str(path), "--store", store,
                 "--quiet"]) == 0
    capsys.readouterr()
    assert main(["campaign", "report", "latest", "--digests",
                 "--store", store]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    digest, name = lines[0].split()
    assert len(digest) == 64
    assert name == "one"


def test_campaign_diff_clean_and_exit_codes(tmp_path, capsys):
    store = str(tmp_path / "c.sqlite")
    path = _write_campaign(tmp_path)
    for _ in range(2):
        assert main(["campaign", "run", str(path), "--store", store,
                     "--quiet"]) == 0
    capsys.readouterr()
    assert main(["campaign", "diff", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "identical" in out.lower() or "unchanged" in out.lower()


def test_campaign_run_fails_exit_status_on_missed_expectation(tmp_path, capsys):
    import json

    store = str(tmp_path / "c.sqlite")
    doc = {"name": "failing",
           "scenarios": [{"name": "bad", "benchmark": "crc32",
                          "iterations": 8,
                          "expect": {"committed_mtxs": 9}}]}
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(doc))
    assert main(["campaign", "run", str(path), "--store", store,
                 "--quiet"]) == 1
    out = capsys.readouterr().out
    assert "committed_mtxs" in out


def test_campaign_rejects_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "scenarios": [{"benchmark": "nope"}]}')
    assert main(["campaign", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "benchmark" in err


def test_chaos_flags_are_validated_as_scenario_fields(capsys):
    # The flags become a scenario, so the schema's diagnosis (the field
    # and a fix) is the command's, with the campaign exit status.
    assert main(["chaos", "--corruption", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("chaos error: ")
    assert "faults.corruption" in err and "0.999" in err


def test_chaos_run_replays_as_a_campaign(tmp_path, capsys):
    # The documented flag-to-field map (docs/CAMPAIGNS.md) gives the
    # scenario the command printed, and the campaign runner stores the
    # outcome digest the command printed.
    from repro.campaign import CampaignStore, ScenarioSpec, run_campaign

    assert main(["chaos", "--crash-node", "0", "--iterations", "16"]) == 0
    printed = dict(line.split(": ", 1) for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith(("scenario digest:", "outcome digest:")))
    spec = ScenarioSpec.from_dict({
        "benchmark": "crc32", "cores": 8, "iterations": 16, "seed": 7,
        "fault_tolerance": True,
        "faults": {"crash_node": 0, "crash_at_ms": 5.0},
    })
    assert printed["scenario digest"] == spec.digest()
    with CampaignStore(str(tmp_path / "c.sqlite")) as store:
        campaign_id = store.record_campaign(
            name="replay", results=run_campaign([spec]))
        [(_name, scenario, outcome)] = store.outcome_digests(campaign_id)
    assert scenario == printed["scenario digest"]
    assert outcome == printed["outcome digest"]
