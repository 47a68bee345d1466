"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload traced for one pass under two seeds (about two minutes
on two cores) and shows that the seeds give identical answers and identical
per-layer counts, that the traced runs confirm the layer split recorded in
layers.json, and that the guards turn blow-ups into failed ops.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (101, 202)
# The one count that follows the labels: present.lattice() saturates joins
# in set-iteration order, so how many unions it must close with closure()
# depends on the element labels and the hash seed (8312 against 8217 calls
# per duality pass for seeds 101 and 202).  It is compared to within 5%.
ORDER_DEPENDENT = {"present.closure.calls"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    os.chdir(ROOT)
    out = tmp_path_factory.mktemp("traces")
    runs = {}
    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            child = run.run_child(w, seed, 1, run.MEM_LIMIT_MB,
                                  time.monotonic() + 170,
                                  trace_out=str(out / f"{w}-{seed}.json.gz"))
            assert child.complete, child.stderr
            runs[w, seed] = child
    return runs


def layer_counts(child) -> dict:
    summary = child.end["trace"]
    out = {f"{name}.calls": calls
           for name, (calls, _) in summary["stats"]["ops"].items()}
    out.update(summary["counts"]["ops"])
    return out


def answers(child) -> dict:
    """Answers by op id; the sheaves of one locale are enumerated in a
    label-dependent order, so theirs are compared as a sorted list."""
    out = {}
    for (i, op), answer in child.answers.items():
        family, _, _ = op.partition("#")
        out.setdefault((i, family), []).append(answer)
    return {k: sorted(v) for k, v in out.items()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seeds_give_identical_answers(traced, workload):
    a, b = (traced[workload, s] for s in SEEDS)
    assert all(ok for _, _, _, ok, _ in a.ops + b.ops)
    assert answers(a) == answers(b)
    assert not any(failed for _, _, failed in a.passes + b.passes)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seeds_give_identical_layer_counts(traced, workload):
    a, b = (layer_counts(traced[workload, s]) for s in SEEDS)
    assert set(a) == set(b)
    assert {k: (a[k], b[k]) for k in a
            if a[k] != b[k] and k not in ORDER_DEPENDENT} == {}
    for k in ORDER_DEPENDENT & set(a):
        assert abs(a[k] - b[k]) <= 0.05 * max(a[k], b[k])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_relabels_and_shuffles(traced, workload):
    a, b = (traced[workload, s] for s in SEEDS)
    order_a = [op for op, _, _, _, _ in a.ops]
    order_b = [op for op, _, _, _, _ in b.ops]
    assert sorted(order_a) == sorted(order_b)
    if len(order_a) > 3:
        assert order_a != order_b


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_layer_split(traced, workload):
    counts = layer_counts(traced[workload, SEEDS[0]])
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"][workload]
    assert [n for n in spec["zero_calls"] if counts.get(f"{n}.calls")] == []
    assert all(counts.get(f"{n}.calls") for n in spec["exercises"])


def test_locale_morphisms_dominate_factorize(traced):
    child = traced["factorize", SEEDS[0]]
    ops = child.end["trace"]["stats"]["ops"]
    total = sum(s for _, _, s, _, _ in child.ops)
    assert ops["lattice.locale_morphisms"][1] > total / 2


def test_coends_built_outside_factorize_ops(traced):
    stats = traced["factorize", SEEDS[0]].end["trace"]["stats"]
    assert "tannaka.Coend.init" not in stats["ops"]
    assert stats["setup"]["tannaka.Coend.init"][0] \
        == 4 * workloads.Factorize.COPIES


def test_sheaf_oracle_matches_the_library():
    from finloc import sheaf

    rng = random.Random(0)
    for pname, (n_el, covers) in workloads.SMALL_LOCALES.items():
        P, _ = workloads.relabel_locale(rng, n_el, covers)
        sizes = sorted(workloads.Duality._selfdual(sheaf, X)
                       for X in sheaf.enumerate_sheaves(P, 3))
        assert tuple(sizes) == workloads.Duality.XD_SIZES[pname]


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    xs = list(range(100))
    value, pct = run.tail(xs)
    assert pct == 90.0 and 89 <= value <= 90


def test_harrell_davis_median_is_steady_across_a_gap():
    assert run.hd_quantile([7.0], 0.5) == pytest.approx(7.0)
    assert run.hd_quantile(list(range(1, 10)), 0.5) == pytest.approx(5.0)
    cheap = [5.0 + 0.01 * i for i in range(42)]
    dear = [15.0 + i for i in range(42)]
    moved = cheap[:-1] + [14.9] + dear  # one cheap op slows down
    plain = [statistics.median(x) for x in (cheap + dear, moved)]
    hd = [run.hd_quantile(x, 0.5) for x in (cheap + dear, moved)]
    assert plain[1] / plain[0] > 1.3
    assert hd[1] / hd[0] < 1.1


def test_timeout_is_a_failure():
    os.chdir(ROOT)
    child = run.run_child("equivalence", 1, 1, run.MEM_LIMIT_MB,
                          time.monotonic() + 3)
    assert child.timed_out and not child.complete
    attempted, failed = run.tally(child)
    assert failed >= 1 and attempted >= failed


def test_memory_limit_is_a_failed_op_not_a_kill():
    os.chdir(ROOT)
    child = run.run_child("memory-guard", 1, 1, run.MEM_LIMIT_MB,
                          time.monotonic() + 170)
    assert child.complete, child.stderr
    outcome = {op: (ok, e) for op, _, _, ok, e in child.ops}
    assert outcome == {"overallocate": (False, "MemoryError"),
                       "tensor:2x2": (True, None)}
    assert run.tally(child) == (2, 1)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == run.per_layer_catalog()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
