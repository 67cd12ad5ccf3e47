"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Census at E <= 4, codes on the catalog only and a few decode trials, so
the whole file runs in well under a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_census():
    return [workloads.census_op(e, workloads.CENSUS_CLASSES[e]) for e in (3, 4)]


def tiny_codes():
    return [op for op in workloads.codes_ops() if "toric" not in " ".join(op.argv)]


def tiny_decode(seed):
    return [workloads.decode_op("fig4_shor", 5, seed),
            workloads.decode_op("toric(3,3)", 5, seed)]


def result(workload, ops, trace=False, seed=1):
    return run.run_workload(workload, seed, 0, trace, ops=ops)["result"]


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOAD_NAMES)
    assert units("end_to_end") == run.END_TO_END_UNITS
    assert units("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("workload,ops", [
    ("census", tiny_census()), ("codes", tiny_codes()),
    ("decode_small", tiny_decode(1))])
def test_every_metric_printed_with_its_unit(workload, ops):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        res = result(workload, ops, trace)
        assert res["correct"] and res["attempted"] >= len(ops)
        assert {k: m["unit"] for k, m in res["metrics"].items()} == units(section)
        if not trace:
            assert all(m["value"] > 0 for m in res["metrics"].values())


def test_forged_expected_value_trips_the_check():
    res = result("census", [workloads.census_op(3, 20)])
    assert res["correct"] is False and res["metrics"] == {}
    forged = workloads.params_op("fig4_shor", [9, 1, 3, 4])
    with pytest.raises(CheckFailed):
        run.Run([forged]).one_pass()


def test_failing_op_is_counted_and_the_run_goes_on():
    ops = [workloads.params_op("toric(6,6)", workloads.toric_params(6)),
           workloads.params_op("no_such_entry", [1, 1, 1, 1]),
           workloads.params_op("fig4_shor", [9, 1, 3, 3])]
    out = run.run_workload("codes", 1, 0, False, ops=ops)
    assert out["result"]["correct"] is True
    assert (out["result"]["attempted"], out["result"]["failed"]) == (3, 2)
    assert out["detail"]["failed_share"] == pytest.approx(2 / 3)


def test_counts_repeat_exactly_across_traced_runs():
    ops = tiny_census() + tiny_codes() + tiny_decode(7) + [
        workloads.params_op("toric(6,6)", workloads.toric_params(6))]
    first, second = (result("codes", ops, trace=True)["metrics"]
                     for _ in range(2))
    exact = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["gf2.budget_exceeded"]["value"] == 1
    assert first["search.classes"]["value"] == 19 + 106
    assert first["decoder.decode_error.calls"]["value"] == 2 * 3 * 5


def test_decoder_check_trips_on_a_wrong_correction(monkeypatch):
    names = workloads.DECODE_SMALL_CODES
    assert workloads.check_decoder(names, 3, patterns=5, exhaustive=True) > 0
    from cellqec import decoder

    monkeypatch.setattr(decoder, "correct",
                        lambda code, syn: decoder.ErrorPattern.zero(code.n))
    with pytest.raises(CheckFailed):
        workloads.check_decoder(names, 3, patterns=5, exhaustive=False)


def test_host_speed_scales_the_timings():
    assert hostspeed.speed([hostspeed.REF_NOMINAL_S] * 3) == 1
    assert hostspeed.speed([2 * hostspeed.REF_NOMINAL_S]) == 0.5
    res = run.run_workload("decode_small", 1, 0, False, ops=tiny_decode(1))
    samples = res["detail"]["samples"]
    assert len(samples["wall_s"]) == 1  # --seconds 0 still makes one pass
    for norm, wall, speed in zip(samples["wall_s"], samples["measured_wall_s"],
                                 samples["host_speed"]):
        assert speed > 0 and norm == wall * speed
    assert len(samples["setup_s"]) == run.SETUP_SAMPLES
    for norm, wall, speed in zip(samples["setup_s"], samples["measured_setup_s"],
                                 samples["setup_host_speed"]):
        assert speed > 0 and norm == wall * speed


def test_probe_time_is_taken_out_of_op_times():
    r = run.Run(tiny_decode(1))
    with hostspeed.Probe() as probe:
        r.probe = probe
        t0 = time.perf_counter()
        code, _, _, dt = r.call(("decode", "sweep", "toric(3,3)", "--p", "0.1",
                                 "--trials", "1500", "--seed", "1"))
        outer = time.perf_counter() - t0
    assert code == 0 and probe.samples and probe.busy_s > 0
    assert dt == pytest.approx(outer - probe.busy_s, abs=0.005)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
