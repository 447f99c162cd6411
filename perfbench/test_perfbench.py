"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from harness import ROOT, stop
from run import END_TO_END, PER_LAYER
from spans import Tracer, install, layer_breakdown, self_times, tail_percentile
from workloads import (
    WORKLOADS, error_rate, gate, member_facts, oracle_problems, read_records,
    select_members, stratified_sample, sweep_config,
)


# -- the "at least ten samples beyond" percentile rule ------------------------


def test_tail_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile(range(11)) == (100.0 / 11, 0, 11)


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(60, 0, -1)]
    percentile, value, n = tail_percentile(samples)
    assert n == 60
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(100.0 * 50 / 60)


# -- self time ----------------------------------------------------------------


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_children_only():
    spans = [
        _span("suite.sweep", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == {"suite.sweep": 3.0, "a": 6.0, "b": 1.0}
    layers, top, unattributed = layer_breakdown(spans, sweep_s=10.5)
    assert layers == {"a": 6.0, "b": 1.0}
    assert top == [("a", 6.0), ("b", 1.0)]
    assert unattributed == pytest.approx(3.5)


def test_tracer_nests_and_inherits_member():
    tracer = Tracer()
    with tracer.span("suite.member", member="fam/m"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    outer, inner = tracer.spans[1], tracer.spans[2]
    assert (outer["parent"], inner["parent"]) == (0, 1)
    assert inner["member"] == "fam/m"
    total = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(total)


# -- seeds drive the inputs ---------------------------------------------------


def test_seed_drives_member_sample_and_campaign_seed():
    pop = WORKLOADS["pop-mix"]
    first = [m.member_id for m in select_members(pop, 1)]
    assert first == [m.member_id for m in select_members(pop, 1)]
    assert first != [m.member_id for m in select_members(pop, 2)]
    assert len(first) == len(set(first)) == 60
    assert sweep_config(7).seed == 7
    assert sweep_config(7).record_timings is False
    table1 = WORKLOADS["table1-classic"]
    assert select_members(table1, 1) == select_members(table1, 2)
    assert len(select_members(table1, 1)) == 29


def test_stratified_sample_takes_one_member_per_size_stratum():
    import random

    from repro.suite import corpus

    family = list(corpus.families()["pop-small"].members)
    picks = stratified_sample(family, 60, random.Random(3))
    sizes = sorted(m.spec["n_states"] for m in picks)
    # 360 members, six sizes of 60 each: ten picks per size.
    assert all(sizes.count(n) == 10 for n in set(sizes))
    assert picks == sorted(picks, key=family.index)


# -- the correctness gate -----------------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from repro.suite.sweep import run_sweep

    members = select_members(WORKLOADS["service-small"], 1)[:2]
    run_dir = str(tmp_path_factory.mktemp("sweep"))
    result = run_sweep(sweep_config(1), run_dir, members=members)
    ids = [m.member_id for m in members]
    pins = {
        "default_seed": 1,
        "ledgers": {"service-small": result.canonical_sha256},
        "facts": {r["id"]: member_facts(r) for r in read_records(run_dir)},
    }
    return run_dir, ids, pins


def test_gate_passes_a_clean_run(small_run):
    run_dir, ids, pins = small_run
    ledger, rate, problems = gate("service-small", 1, run_dir, ids, [], pins)
    assert (ledger, rate, problems) == (pins["ledgers"]["service-small"], 0.0, [])


def test_gate_fails_a_ledger_mismatch_at_the_default_seed(small_run):
    run_dir, ids, pins = small_run
    wrong = {**pins, "ledgers": {"service-small": "0" * 64}}
    _, _, problems = gate("service-small", 1, run_dir, ids, [], wrong)
    assert len(problems) == 1 and problems[0].startswith("ledger")
    # Other seeds have no pinned ledger; their facts are still checked.
    assert gate("service-small", 2, run_dir, ids, [], wrong)[2] == []
    bad_facts = {**pins, "facts": {ids[0]: "0" * 64, ids[1]: pins["facts"][ids[1]]}}
    assert "pinned facts" in gate("service-small", 2, run_dir, ids, [], bad_facts)[2][0]


def test_gate_fails_on_error_rate(small_run):
    run_dir, ids, pins = small_run
    _, rate, problems = gate("service-small", 1, run_dir, ids, [ids[1]], pins)
    assert rate == 0.5
    assert problems == ["error_rate 0.5000 > 0"]


def test_gate_fails_when_verify_run_does(small_run, tmp_path):
    import shutil

    run_dir, ids, pins = small_run
    copy = str(tmp_path / "tampered")
    shutil.copytree(run_dir, copy)
    path = os.path.join(copy, "metrics.jsonl")
    lines = open(path, encoding="utf-8").read().splitlines()
    record = json.loads(lines[0])
    record["coverage"]["detected"] -= 1
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    problems = gate("service-small", 1, copy, ids, [], pins)[2]
    assert any(p.startswith("verify_run") for p in problems)
    assert any(p.startswith("ledger") for p in problems)


def test_reference_oracle_catches_a_wrong_detection_count(small_run):
    run_dir, ids, _pins = small_run
    members = select_members(WORKLOADS["service-small"], 1)[:2]
    records = read_records(run_dir)
    assert oracle_problems(members, records, 1) == []
    records[0]["coverage"]["detected"] += 1
    assert oracle_problems(members, records, 1) == [
        f"{ids[0]}: coverage differs from the reference campaign"
    ]


def test_error_rate_counts_each_member_once():
    records = [{"id": "a", "status": "error"}, {"id": "b", "status": "ok"}]
    assert error_rate(records, ["a"], 2) == 0.5
    assert error_rate(records, ["b"], 2) == 1.0
    assert error_rate(records, [], 4) == 0.75  # two records missing
    with pytest.raises(ValueError):
        error_rate([], [], 0)


# -- tracing changes no behaviour ---------------------------------------------


def test_traced_member_record_equals_untraced():
    from repro.suite.sweep import canonical_record, sweep_member

    member = select_members(WORKLOADS["pop-mix"], 1)[-1]
    config = sweep_config(1)
    untraced = sweep_member(member, config)
    tracer = Tracer()
    restore = install(tracer)
    try:
        import repro.suite.sweep as sweep

        traced = sweep.sweep_member(member, config)
    finally:
        restore()
    assert sweep.sweep_member is sweep_member
    assert canonical_record(traced) == canonical_record(untraced)
    names = {span["name"] for span in tracer.spans}
    assert {"suite.member", "ostr.search", "logic.minimise", "bist.build",
            "faults.campaign", "analysis.prove"} <= names
    assert tracer.counts["logic.tables"] == 3
    assert all(span["member"] == member.member_id for span in tracer.spans)


# -- reference seconds --------------------------------------------------------


def test_reference_time_scales_each_stretch_by_its_probe():
    import speed

    meter = speed.SpeedMeter()
    ref = speed.REF_PROBE_S
    # Probes of ref, 2*ref and ref; smoothing over one neighbour each side.
    meter.samples = [(1.0, 1.0 + ref), (2.0, 2.0 + 2 * ref), (3.0, 3.0 + ref)]
    assert speed.smoothed([1.0, 2.0, 1.0, 5.0], half=1) == [1.5, 1.0, 2.0, 3.0]
    assert meter.probe_s(0.0, 4.0) == pytest.approx(4 * ref)
    assert meter.probe_s(1.5, 4.0) == pytest.approx(3 * ref)
    # Without probes between the two instants it is the plain wall time.
    assert meter.reference_s(1.1, 1.9) == pytest.approx(0.8)

    # Twenty slow probes (2 * ref), then twenty at the reference speed, one
    # a second.  The running median keeps the step, a stretch runs at the
    # speed of the probe that ends it, the last stretch at the last probe's,
    # and probe time itself is left out.
    meter.samples = [
        (t, t + (2 * ref if t <= 20 else ref)) for t in map(float, range(1, 41))
    ]
    expected = (
        1.0 / 2  # from 0 to the first probe, slow
        + 19 * (1.0 - 2 * ref) / 2
        + (1.0 - 2 * ref)  # after the last slow probe, ended by a fast one
        + 19 * (1.0 - ref)
        + (1.0 - ref)  # after the last probe, to 41
    )
    assert meter.reference_s(0.0, 41.0) == pytest.approx(expected)


def test_speed_meter_samples_and_restores_the_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter().start()
    began = time.perf_counter()
    while time.perf_counter() - began < 0.2:
        speed.probe()
    ended = time.perf_counter()
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 5
    wall = ended - began - meter.probe_s(began, ended)
    # Reference seconds differ from wall time only by the host's speed.
    assert 0.2 * wall < meter.reference_s(began, ended) < 5 * wall


# -- bounded shutdown ---------------------------------------------------------


def test_stop_escalates_to_kill():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
         "print('up', flush=True); time.sleep(60)"],
        stdout=subprocess.PIPE, text=True,
    )
    assert child.stdout.readline().strip() == "up"
    assert stop(child, grace=0.1) == "killed"
    assert child.returncode is not None
    child.stdout.close()


# -- BENCHMARK.json names what run.py reports ---------------------------------


def test_benchmark_json_matches_the_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
