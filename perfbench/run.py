#!/usr/bin/env python3
"""The tensalg benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The loop is closed: one instance runs at a time.  The instances of a
workload form a fixed pass (see workloads.py).  Each pass starts from a
fresh import and fresh inputs; passes repeat until ``--seconds`` of
instance CPU time have been measured.  Reported times are CPU times scaled
by the host's speed, sampled around each instance (see ``scaled``).
Every output is checked against the digest recorded for its instance.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run makes three passes: one untraced, one with spans
around the calls into each layer, one counting ``FinLattice`` calls.  It
prints every per-layer metric and writes the spans to ``perfbench/out/``.
perfbench/README.md says what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
PROBE_LOOPS = 2_000
PROBE_S = 0.005          # probe_loop() on an unloaded core

import tracing     # noqa: E402  (found next to this file)
import workloads   # noqa: E402


def _load_digests() -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text())


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.sampled = 0
        self.notes: list[str] = []

    def fail(self, note: str):
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)

    def record(self, inst, out):
        """Count one finished instance and the checks it ran."""
        self.attempted += 1
        if inst.checks is not None:
            total, bad = inst.checks(out)
            self.attempted += total
            self.checks += total
            self.sampled += sum(
                c.name.endswith(tracing.SAMPLED_SUFFIXES)
                for c in out[1].checks)
            for _ in range(bad):
                self.fail(f"{inst.key}: a check failed")
            if bad:
                return      # the digest holds the results, so it differs too
        expected = self.digests.get(inst.key)
        got = inst.digest(out)
        if got != expected:
            self.fail(f"{inst.key}: digest {got} != recorded {expected}")


def _decode(i: int) -> tuple[int, ...]:
    out = [0] * 4
    for k in range(3, -1, -1):
        i, out[k] = divmod(i, 4)
    return tuple(out)


def _encode(t: tuple[int, ...]) -> int:
    out = 0
    for c in t:
        out = out * 4 + c
    return out


def probe_loop() -> None:
    """A fixed loop of the kind of work the library's hot paths do:
    coordinatewise order and memoised joins on 4-tuples over a 4-chain,
    as ``FinLattice`` does on powers.  It is a copy, not a call, so that
    no change to the library changes it."""
    memo: dict[tuple[int, int], int] = {}
    below = 0
    for i in range(PROBE_LOOPS):
        a, b = i % 256, (i * 7) % 256
        ta, tb = _decode(a), _decode(b)
        if all(x <= y for x, y in zip(ta, tb)):
            below += 1
        key = (a, b) if a < b else (b, a)
        if key not in memo:
            memo[key] = _encode(tuple(max(x, y) for x, y in zip(ta, tb)))


def probe() -> float:
    """CPU seconds that ``probe_loop()`` takes now."""
    t0 = process_time()
    probe_loop()
    return process_time() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """CPU seconds of work at the speed where ``probe_loop()`` takes
    ``PROBE_S``, given the probes taken just before and just after it.

    The host's speed drifts by up to a fifth within a minute, even in CPU
    time, so each stretch of work is scaled by the probes around it."""
    return seconds * PROBE_S / ((before + after) / 2)


def run_pass(insts, tally: Tally, tracer=None, keep=False):
    """Run every instance once.  Returns per-instance scaled and unscaled
    CPU seconds (None when it raised) and, when asked, the outputs for
    later checking.

    The collector is off while a pass runs, as in ``timeit``, so that a
    collection of earlier garbage is not charged to whichever instance
    happens to trigger it."""
    times, raw, outs = [], [], []
    gc.collect()
    gc.disable()
    try:
        before = probe()
        for inst in insts:
            if tracer is not None:
                tracer.power = inst.power
            t0 = process_time()
            try:
                out = inst.run()
                spent = process_time() - t0
            except Exception:  # the run goes on; the instance counts failed
                tally.attempted += 1
                tally.fail(f"{inst.key}: " + traceback.format_exc(limit=3))
                spent = out = None
            if keep:
                outs.append(out)
            elif out is not None:
                tally.record(inst, out)
            out = None      # free it before the next instance runs
            after = probe()
            raw.append(spent)
            times.append(None if spent is None
                         else scaled(spent, before, after))
            before = after
    finally:
        gc.enable()
    return times, raw, outs


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile that still has at least ten samples beyond
    it, as (value, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def fresh(keys: list[str]):
    """Set up for one pass as a new process would: import the library
    afresh and build every input, so that no cache survives a pass.  The
    caller holds nothing of the previous pass, which is freed first.
    Returns the library, the instances and the scaled set-up seconds."""
    workloads.drop_library()
    gc.collect()
    before = probe()
    t0 = process_time()
    lib = workloads.load_library()
    insts = [workloads.make(lib, key) for key in keys]
    spent = process_time() - t0
    return lib, insts, scaled(spent, before, probe())


def timed_run(keys: list[str], seconds: float, digests) -> tuple[dict, Tally]:
    tally = Tally(digests)
    setups: list[float] = []
    per_key: dict[int, list[float]] = {}
    pass_rates, raw_rates = [], []
    measured = 0.0
    while not pass_rates or measured < seconds:
        _, insts, setup_s = fresh(keys)
        setups.append(setup_s)
        times, raw, _ = run_pass(insts, tally)
        weights = [inst.weight for inst in insts]
        del insts
        for k, dt in enumerate(times):
            if dt is not None:
                per_key.setdefault(k, []).append(dt)
        weight = sum(w for w, dt in zip(weights, times) if dt is not None)
        spent = sum(dt for dt in times if dt is not None)
        spent_raw = sum(dt for dt in raw if dt is not None)
        measured += spent_raw
        pass_rates.append(weight / spent if spent else 0.0)
        raw_rates.append(weight / spent_raw if spent_raw else 0.0)
    while len(setups) < SETUP_REPEATS:
        setups.append(fresh(keys)[2])

    # latency per instance is its median over passes; naturality_suite is
    # one call standing for many instances, so it only enters throughput
    latencies = [statistics.median(per_key[k]) for k, w in enumerate(weights)
                 if k in per_key and w == 1]
    tail_s, tail_pct = tail(latencies) if latencies else (0.0, 0.0)
    # a pass built from each instance's median time, so that one slow
    # sample of a long instance does not move the throughput
    typical = sum(statistics.median(per_key[k]) for k in per_key)
    done = sum(weights[k] for k in per_key)
    metrics = {
        "instances_per_s": (done / typical if typical else 0.0, "1/s"),
        "instance_p50_ms": (1000 * statistics.median(latencies)
                            if latencies else 0.0, "ms"),
        "instance_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {
        "passes": len(pass_rates),
        "instances_per_pass": sum(weights),
        "measured_s": measured,
        "pass_rates": pass_rates,
        "unscaled_pass_rates": raw_rates,
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "setup_s_each": setups,
        "error_rate": tally.failed / max(1, tally.attempted),
        "checks": tally.checks,
    }
    return {"metrics": metrics, "detail": detail}, tally


def observed_pass(keys: list[str], tally: Tally, install=None):
    """One pass on a fresh library with ``install(tracer)``'s wrappers on.
    Returns the tracer and the pass's scaled CPU seconds."""
    lib, insts, _ = fresh(keys)
    tracer = tracing.Tracer(lib)
    if install is not None:
        install(tracer)
    try:
        times, _, outs = run_pass(insts, tally, tracer=tracer, keep=True)
    finally:
        tracer.uninstall()
    for inst, out in zip(insts, outs):
        if out is not None:
            tally.record(inst, out)
    return tracer, sum(dt for dt in times if dt is not None)


def traced_run(workload: str, seed: int, keys: list[str],
               digests) -> tuple[dict, Tally]:
    tally = Tally(digests)
    _, untraced = observed_pass(keys, tally)
    checks, sampled = tally.checks, tally.sampled
    tracer, traced = observed_pass(keys, tally, tracing.Tracer.install_spans)
    checks, sampled = tally.checks - checks, tally.sampled - sampled
    # FinLattice calls are counted in a pass of their own
    counter, counted = observed_pass(keys, tally,
                                     tracing.Tracer.install_counters)
    tracer.counts.update(counter.counts)
    tracer.missing.extend(counter.missing)

    values, rungs = tracing.layer_metrics(tracer, checks, sampled,
                                          traced / untraced)
    units = dict(tracing.LAYER_METRICS)
    metrics = {name: (values[name], units[name])
               for name, _ in tracing.LAYER_METRICS}
    not_measured = list(tracer.missing)
    if not tracer.rung_times:
        not_measured.append("*.scaling_exp: this workload has no "
                            "tensor rungs; reported as 0")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"trace-{workload}-seed{seed}"
    with open(f"{stem}.spans.jsonl", "w") as fh:
        tracer.write(fh)
    summary = {
        "workload": workload, "seed": seed, "keys": keys,
        "untraced_s": untraced, "traced_s": traced, "counted_s": counted,
        "span_table": tracer.span_table(), "rungs": rungs,
        "metrics": values, "not_measured": not_measured,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    detail = {
        "untraced_s": untraced, "traced_s": traced, "counted_s": counted,
        "spans": len(tracer.spans), "rungs": rungs,
        "not_measured": not_measured,
        "error_rate": tally.failed / max(1, tally.attempted),
    }
    return {"metrics": metrics, "detail": detail}, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tensalg" / "__init__.py").is_file():
        print(f"no tensalg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    keys = workloads.choose(args.workload, args.seed)
    digests = _load_digests()
    if args.trace:
        result, tally = traced_run(args.workload, args.seed, keys, digests)
    else:
        result, tally = timed_run(keys, args.seconds, digests)

    if not Path(sys.modules["tensalg"].__file__).resolve().is_relative_to(
            src.resolve()):
        print("tensalg was not imported from this checkout", file=sys.stderr)
        return 2
    result["detail"]["failures"] = tally.notes
    print(json.dumps({"detail": result["detail"]}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
