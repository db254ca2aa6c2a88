"""The run loop: which units go into the reported medians."""

import json

import run


def unit(seconds, ok=True):
    return {"ok": ok, "detail": "forced", "peak_rss_mb": 40.0,
            "wall_s": [seconds], "setups_s": [seconds / 100],
            "steps_s": [seconds / 4], "raw_wall_s": [seconds],
            "raw_setups_s": [seconds / 100], "raw_steps_s": [seconds / 4]}


def run_with(units, monkeypatch, tmp_path, capsys):
    results = iter(units)
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    monkeypatch.setattr(run, "run_worker", lambda *args, **kwargs: next(results))
    rc = run.main(["--workload", "stiff_10x18", "--seed", "0",
                   "--seconds", "60", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1]) if rc == 0 else None


def test_a_failed_unit_ends_the_run_and_is_left_out_of_the_medians(
        monkeypatch, tmp_path, capsys):
    rc, result = run_with([unit(1.0), unit(100.0, ok=False)],
                          monkeypatch, tmp_path, capsys)
    assert rc == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert result["metrics"]["wall_s"]["value"] == 1.0


def test_a_run_whose_first_unit_fails_reports_no_result(
        monkeypatch, tmp_path, capsys):
    rc, _ = run_with([unit(1.0, ok=False), unit(1.0)], monkeypatch, tmp_path, capsys)
    assert rc != 0
