"""Self-test of the benchmark's correctness check.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.

A replay that matches the scalar reference passes the check; a digest
stream with one field changed, one digest dropped or two digests swapped
fails it, and so does a parse-reject count that is off by one.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.import_program()

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import w_pcap  # noqa: E402


@pytest.fixture(scope="module")
def replay():
    inputs = w_pcap.setup(seed=5, detectors=gen.catalog_detectors())
    one = w_pcap.Pass(inputs)
    one.run()
    return inputs, one


def test_matching_replay_passes(replay):
    inputs, one = replay
    assert w_pcap.verify(inputs, [one]) == []
    assert sum(one.rejects) == inputs.truncations > 0


def _mutated(one, mutate):
    other = copy.copy(one)
    other.digests = [list(stream) for stream in one.digests]
    stream = next(s for s in other.digests if len(s) >= 2 and s[0] != s[1])
    mutate(stream)
    return other


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(
            lambda s: s.__setitem__(0, replace(s[0], fields={**s[0].fields, "dist": 99})),
            id="field",
        ),
        pytest.param(
            lambda s: s.__setitem__(0, replace(s[0], timestamp=s[0].timestamp + 1e-6)),
            id="timestamp",
        ),
        pytest.param(lambda s: s.pop(), id="dropped"),
        pytest.param(lambda s: s.insert(0, s.pop(1)), id="reordered"),
    ],
)
def test_wrong_digest_stream_fails(replay, mutate):
    inputs, one = replay
    findings = w_pcap.verify(inputs, [_mutated(one, mutate)])
    assert findings and "scalar reference" in findings[0]


@pytest.mark.parametrize("delta", [-1, 1])
def test_off_by_one_reject_count_fails(replay, delta):
    inputs, one = replay
    other = copy.copy(one)
    other.rejects = list(one.rejects)
    other.rejects[0] += delta
    findings = w_pcap.verify(inputs, [other])
    assert findings and "parse.rejects" in findings[0]


def test_compare_helpers():
    digest = type("D", (), {})
    a = digest()
    a.name, a.fields, a.timestamp = "x", {"i": 1}, 0.5
    b = digest()
    b.name, b.fields, b.timestamp = "x", {"i": 2}, 0.5
    assert check.compare_digests("s", [a], [a]) == []
    assert check.compare_digests("s", [a], [b])
    assert check.compare_digests("s", [a], [])
    assert check.compare_count("n", 3, 3) == []
    assert check.compare_count("n", 3, 4)


def test_benchmark_json_matches_metric_map():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(layers.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
