"""Self-test of the benchmark on the smallest rung of each workload.

Every metric named in BENCHMARK.json must be emitted, and every output must
match its recorded digest.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run          # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALLEST = {
    "suite-sweep": ["suite:tri:0", "suite:tri:1", "suite:tri:2"],
    "tensor-ladder": [f"ladder:{q}:T2:0" for q in workloads.TENSOR_QUANTALES],
    "tensor-dense": [f"dense:{q}:T2" for q in workloads.TENSOR_QUANTALES],
    "hom-ladder": [f"hom:{q}:T2:{op}" for q in ("min4", "sq-meet")
                   for op in ("out", "in", "frame0")],
}


@pytest.fixture(autouse=True)
def keep_library_modules():
    """The benchmark re-imports tensalg; give the rest of the session its
    own module objects back afterwards."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "tensalg" or k.startswith("tensalg.")}
    yield
    for k in [k for k in sys.modules
              if k == "tensalg" or k.startswith("tensalg.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert ([m["name"] for m in SPEC["per_layer"]]
            == [name for name, _ in tracing.LAYER_METRICS])


def test_every_choosable_instance_has_a_digest():
    digests = run._load_digests()
    for w in workloads.WORKLOADS:
        assert set(workloads.all_keys(w)) <= set(digests)
        for seed in (0, 1, 99):
            assert set(workloads.choose(w, seed)) <= set(digests)


def test_choice_repeats_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.choose(w, 5) == workloads.choose(w, 5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    result, tally = run.timed_run(SMALLEST[workload], 0.0,
                                  run._load_digests())
    assert tally.failed == 0, tally.notes
    assert tally.attempted >= len(SMALLEST[workload])
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_layer_metrics(workload):
    result, tally = run.traced_run(workload, 0, SMALLEST[workload],
                                   run._load_digests())
    assert tally.failed == 0, tally.notes
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["detail"]["spans"] > 0


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


@pytest.mark.parametrize("passed", [True, False])
def test_a_wrong_suite_output_counts_once(passed):
    """A failed check also changes the digest; it is one failure, not two."""
    check = SimpleNamespace(name="adj1-unit", passed=passed)
    report = SimpleNamespace(checks=[check],
                             counts=lambda: (1, 0 if passed else 1))
    inst = workloads.Instance("suite:tri:0", run=None,
                              digest=workloads.digest_report,
                              checks=workloads.report_checks)
    tally = run.Tally(run._load_digests())
    tally.record(inst, (0, report))
    assert (tally.attempted, tally.failed) == (2, 1)
