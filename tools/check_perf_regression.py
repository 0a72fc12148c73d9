#!/usr/bin/env python3
"""Perf-regression gate over machine-independent bench metrics.

Compares a freshly measured BENCH_step.json against the checked-in record
and fails when any of these algorithmic properties regressed by more than
the allowed factor (default 2x):

* the 50k/1k per-step latency *ratio* per design — flatness of the per-step
  cost as the accumulated sample grows (streaming estimators, incremental
  rehash). A ratio that doubles means someone reintroduced an O(sample)
  term into Step().
* the HPD incomplete-beta *evaluations per solve* per design — the solver
  efficiency of the interval layer (2x2 Newton KKT primary path, warm
  starts). A jump means solves fell back off the Newton path or the warm
  carry broke.
* the incomplete-beta *kernel calls per solve* per design — the same
  efficiency counted where the CPU goes: every call into the kernel,
  including the ~12 each quantile inversion makes, which evals-per-solve
  counts as one. A jump means the Newton start or a quantile seed got
  worse even where the evaluation count looks unchanged.
* the continued-fraction *iterations per kernel call* per design — the
  kernel's own work per call, which kernel calls per solve cannot see. A
  jump means the fraction stopped converging where it used to (a broken
  side choice, a lane stepped past its own convergence test) or calls
  moved to shapes and arguments that converge slowly.

With --service-fresh/--service-record it additionally gates the
`service_hpd_summary` record of BENCH_service.json — the same
evals-per-solve and kernel-calls-per-solve properties, but aggregated
across every worker thread of the parallel EvaluationService sweep. The step bench is single-threaded; a
warm-carry or solver-path regression that only manifests on the parallel
service's reused worker contexts (e.g. shared state resets between jobs)
is only visible here. The record's leading `host` record names the
measuring machine; no gate reads it.

--service-fresh also arms the *fallback-share* gate: the same summary
record counts the HPD solves that left the Newton basin for the 1-D root
(`hpd_fallback_solves`), and the gate fails when they exceed
MAX_FALLBACK_SHARE (0.5%) of all solves. Like evals-per-solve it is a
count of solver paths, identical on every host; a jump means Newton's
start or its basin certificate broke and the fallback took over.

--service-fresh also arms the *thread-scaling* gate: the
`service_thread_scaling` record carries the 4-thread / 1-thread audits/s
ratio of the largest (>= 100 ms) sweep cell, and the gate fails when it
falls below --min-scaling (default 2.0) — the service must actually use
the hardware, not just stay deterministic on it. The ratio is absolute
(not relative to the checked-in record) because it is a property the
service owes on any adequate machine; on hosts with fewer than 4 hardware
threads the ratio measures the OS scheduler instead of the service, so
the gate reports and skips there (the record's own hardware_threads field
decides). A missing record is still a hard error: the instrumentation a
blocking gate rests on must not vanish silently.

Ratios and counts, not absolute latencies: CI runners differ wildly in
clock speed and noise, but every gated metric is a property of the
algorithm, not of the machine.

--net-fresh arms the *tenant fairness* gate over BENCH_net.json: the
`net_tenant_fairness` record carries the heavy tenant's share of served
annotation steps from a two-tenant (3:1 weights) window against a
single-worker daemon, and the gate fails when the share drifts more than
--fairness-tolerance from the weight-implied 0.75. Like thread scaling
the bound is absolute — the share is a ratio between two identical
workloads on one host, so the machine divides out — and the gate
report-and-skips when the window completed too few audits to judge.

Usage:
    check_perf_regression.py <fresh BENCH_step.json> <checked-in record>
        [--service-fresh BENCH_service.json]
        [--service-record BENCH_service.json]
        [--net-fresh BENCH_net.json]
        [--max-regression 2.0]

Exit code 0 = within bounds, 1 = regression, 2 = unusable input.

Stdlib only — runs anywhere a python3 exists.
"""

import argparse
import json
import sys

# Largest share of HPD solves allowed on the 1-D root fallback in the
# service sweep (about 0.0025 when the gate was introduced).
MAX_FALLBACK_SHARE = 0.005


def load_summaries(path):
    """Returns {design: summary-record} from a bench record."""
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    summaries = {}
    for record in records:
        if record.get("bench") == "step_latency_summary":
            design = record.get("design")
            if design is not None:
                summaries[design] = record
    if not summaries:
        print(f"error: no step_latency_summary records in {path}",
              file=sys.stderr)
        sys.exit(2)
    return summaries


def check_metric(fresh, record, key, label, max_regression, floor):
    """Prints one comparison line per design; returns True on regression.

    Exits 2 when any fresh design lacks the metric: the fresh record comes
    from the current bench binary, which emits every metric for every
    design, so a hole means the instrumentation the gate guards broke — a
    blocking gate must fail loudly, not pass vacuously. (A *checked-in*
    record without the metric is still skipped per design, so new metrics
    can land before the record is refreshed.)
    """
    missing = [d for d, s in sorted(fresh.items())
               if not isinstance(s.get(key), (int, float))]
    if missing:
        print(f"error: fresh record lacks '{key}' for "
              f"{', '.join(missing)} (instrumentation missing?)",
              file=sys.stderr)
        sys.exit(2)
    failed = False
    for design, summary in sorted(fresh.items()):
        value = summary[key]
        recorded = record.get(design, {}).get(key)
        if not isinstance(recorded, (int, float)):
            print(f"  {design:>6} {label}: fresh {value:.3f} "
                  f"(no checked-in record, skipped)")
            continue
        # Floor the baseline: a tiny recorded value is measurement luck (or
        # a cache-heavy window), and the gate should not demand it forever.
        budget = max(recorded, floor) * max_regression
        verdict = "OK" if value <= budget else "REGRESSION"
        print(f"  {design:>6} {label}: fresh {value:.3f} vs recorded "
              f"{recorded:.3f} (budget {budget:.3f}) {verdict}")
        if value > budget:
            failed = True
    return failed


def load_service_record(path, bench):
    """Returns the named summary record from BENCH_service.json."""
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for record in records:
        if record.get("bench") == bench:
            return record
    return None


def load_service_summary(path):
    """Returns the service_hpd_summary record from BENCH_service.json."""
    return load_service_record(path, "service_hpd_summary")


def check_fallback_share(fresh_path):
    """Gates the share of HPD solves that fell back off Newton; True on
    failure. Absolute and machine-independent: both counts are solver-path
    tallies of a deterministic workload."""
    record = load_service_summary(fresh_path)
    solves = (record or {}).get("hpd_solves")
    fallbacks = (record or {}).get("hpd_fallback_solves")
    if not isinstance(solves, int) or not isinstance(fallbacks, int) \
            or solves <= 0:
        print(f"error: no usable hpd_solves/hpd_fallback_solves in "
              f"{fresh_path} (service_hpd_summary incomplete?)",
              file=sys.stderr)
        sys.exit(2)
    share = fallbacks / solves
    verdict = "OK" if share <= MAX_FALLBACK_SHARE else "REGRESSION"
    print(f"  HPD fallback share: {share:.4f} ({fallbacks} of {solves} "
          f"solves; maximum {MAX_FALLBACK_SHARE:.3f}) {verdict}")
    return share > MAX_FALLBACK_SHARE


def check_thread_scaling(fresh_path, min_scaling):
    """Gates the 4t/1t audits/s ratio; returns True on failure.

    Absolute threshold, not record-relative: multi-core speedup is a
    property the service owes outright. Skips (with a printed reason) when
    the measuring host had fewer than 4 hardware threads — there the ratio
    reflects the OS scheduler, not the service.
    """
    record = load_service_record(fresh_path, "service_thread_scaling")
    if record is None or not isinstance(
            record.get("threads_scaling_ratio"), (int, float)):
        print(f"error: no usable service_thread_scaling record in "
              f"{fresh_path} (bench summary missing?)", file=sys.stderr)
        sys.exit(2)
    ratio = record["threads_scaling_ratio"]
    hardware = record.get("hardware_threads")
    jobs = record.get("jobs")
    if not isinstance(hardware, int) or hardware < 4:
        print(f"  threads scaling ratio: {ratio:.3f} on {jobs} jobs "
              f"(host has {hardware} hardware threads < 4, gate skipped)")
        return False
    verdict = "OK" if ratio >= min_scaling else "REGRESSION"
    print(f"  threads scaling ratio (4t/1t, {jobs} jobs): {ratio:.3f} "
          f"(minimum {min_scaling:.1f}, {hardware} hardware threads) "
          f"{verdict}")
    return ratio < min_scaling


def check_store_compaction(fresh_path, max_amplification):
    """Gates post-compaction space amplification; returns True on failure.

    Absolute and machine-independent: `bytes_after / live_before` comes
    from the store's exact byte accounting, so it is a structural property
    of the rewritten log (trailer + header overhead only), identical on
    every host. A compaction that leaves superseded frames behind — or a
    rewrite that pads the live set — pushes it past the bound. The same
    record's multi-writer cell must also report zero degraded jobs: the
    unarmed-failpoint default never downgrades durability.
    """
    record = load_service_record(fresh_path, "store_compaction")
    if record is None or not isinstance(
            record.get("space_amplification_after"), (int, float)):
        print(f"error: no usable store_compaction record in {fresh_path} "
              "(bench compaction cell missing?)", file=sys.stderr)
        sys.exit(2)
    amp = record["space_amplification_after"]
    verdict = "OK" if amp <= max_amplification else "REGRESSION"
    print(f"  post-compaction space amplification: {amp:.4f} "
          f"(maximum {max_amplification:.2f}) {verdict}")
    failed = amp > max_amplification
    writers = load_service_record(fresh_path, "store_multi_writer")
    if writers is None:
        print(f"error: no store_multi_writer record in {fresh_path} "
              "(durable bench cell missing?)", file=sys.stderr)
        sys.exit(2)
    degraded = writers.get("degraded_jobs")
    replayed = writers.get("replay_identical")
    healthy = degraded == 0 and replayed is True
    print(f"  durable multi-writer cell: degraded_jobs={degraded} "
          f"replay_identical={replayed} "
          f"{'OK' if healthy else 'REGRESSION'}")
    return failed or not healthy


def check_net_fairness(fresh_path, tolerance):
    """Gates the two-tenant DRR share from BENCH_net.json; True on failure.

    The bench runs heavy (weight 3) and light (weight 1) tenants flat out
    against a single-worker daemon and reports heavy's share of served
    annotation steps. The share is a property of the DRR dispatch, not of
    the machine — both tenants run identical audits on the same host, so
    clock speed divides out — which makes an absolute tolerance around the
    weight-implied share portable. Skips (with a printed reason) when the
    window completed too few audits for the share to have converged.
    """
    record = load_service_record(fresh_path, "net_tenant_fairness")
    if record is None or not isinstance(
            record.get("heavy_share"), (int, float)) or not isinstance(
            record.get("expected_share"), (int, float)):
        print(f"error: no usable net_tenant_fairness record in {fresh_path} "
              "(bench fairness window missing?)", file=sys.stderr)
        sys.exit(2)
    share = record["heavy_share"]
    expected = record["expected_share"]
    completions = record.get("completions")
    if not isinstance(completions, int) or completions < 8:
        print(f"  tenant fairness share: {share:.3f} on {completions} "
              f"completed audits (< 8, window too short, gate skipped)")
        return False
    drift = abs(share - expected)
    verdict = "OK" if drift <= tolerance else "REGRESSION"
    print(f"  tenant fairness share (weights 3:1): {share:.3f} vs expected "
          f"{expected:.3f} (tolerance {tolerance:.2f}, {completions} "
          f"audits) {verdict}")
    return drift > tolerance


def check_service(fresh_path, record_path, max_regression):
    """Gates the service-level evals/solve and kernel calls/solve; returns
    True on regression."""
    fresh = load_service_summary(fresh_path)
    recorded_rec = load_service_summary(record_path) or {}
    failed = False
    for key, label in (("hpd_beta_evals_per_solve", "beta evals/solve"),
                       ("kernel_calls_per_solve", "kernel calls/solve")):
        if fresh is None or not isinstance(fresh.get(key), (int, float)):
            # The fresh record comes from the current bench binary: a
            # missing summary means the aggregation broke, and a blocking
            # gate must not pass vacuously.
            print(f"error: no usable '{key}' in the service_hpd_summary of "
                  f"{fresh_path} (BatchResult aggregation missing?)",
                  file=sys.stderr)
            sys.exit(2)
        value = fresh[key]
        recorded = recorded_rec.get(key)
        if not isinstance(recorded, (int, float)):
            print(f"  service {label}: fresh {value:.3f} "
                  "(no checked-in record, skipped)")
            continue
        budget = max(recorded, 4.0) * max_regression
        verdict = "OK" if value <= budget else "REGRESSION"
        print(f"  service {label}: fresh {value:.3f} vs recorded "
              f"{recorded:.3f} (budget {budget:.3f}) {verdict}")
        failed |= value > budget
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly measured BENCH_step.json")
    parser.add_argument("record", help="checked-in BENCH_step.json")
    parser.add_argument("--service-fresh",
                        help="freshly measured BENCH_service.json")
    parser.add_argument("--service-record",
                        help="checked-in BENCH_service.json")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="allowed factor between fresh and recorded "
                             "metrics (default 2.0)")
    parser.add_argument("--min-scaling", type=float, default=2.0,
                        help="minimum 4-thread/1-thread audits/s ratio on "
                             "the largest service cell (default 2.0; "
                             "enforced only on >= 4-hardware-thread hosts)")
    parser.add_argument("--max-space-amplification", type=float, default=1.1,
                        help="maximum post-compaction store size over live "
                             "bytes (default 1.1; absolute, byte-exact)")
    parser.add_argument("--net-fresh",
                        help="freshly measured BENCH_net.json (arms the "
                             "two-tenant DRR fairness gate)")
    parser.add_argument("--fairness-tolerance", type=float, default=0.15,
                        help="allowed absolute drift of the heavy tenant's "
                             "served-step share from its weight-implied "
                             "share (default 0.15)")
    args = parser.parse_args()

    fresh = load_summaries(args.fresh)
    record = load_summaries(args.record)

    # Every design in the checked-in record must appear in the fresh run:
    # a design silently dropping out of the bench would otherwise skip its
    # comparisons entirely and pass vacuously. (Fresh-only designs are
    # fine — they are new, and get gated once the record is refreshed.)
    lost = sorted(set(record) - set(fresh))
    if lost:
        print(f"error: fresh record is missing designs recorded in "
              f"{args.record}: {', '.join(lost)}", file=sys.stderr)
        sys.exit(2)

    failed = check_metric(fresh, record, "latency_ratio_50k_over_1k",
                          "50k/1k ratio", args.max_regression, floor=1.0)
    failed |= check_metric(fresh, record, "hpd_beta_evals_per_solve",
                           "beta evals/solve", args.max_regression,
                           floor=4.0)
    failed |= check_metric(fresh, record, "kernel_calls_per_solve",
                           "kernel calls/solve", args.max_regression,
                           floor=4.0)
    failed |= check_metric(fresh, record, "cf_iterations_per_call",
                           "CF iterations/call", args.max_regression,
                           floor=4.0)
    if args.service_fresh and args.service_record:
        failed |= check_service(args.service_fresh, args.service_record,
                                args.max_regression)
    if args.service_fresh:
        failed |= check_fallback_share(args.service_fresh)
        failed |= check_thread_scaling(args.service_fresh, args.min_scaling)
        failed |= check_store_compaction(args.service_fresh,
                                         args.max_space_amplification)
    if args.net_fresh:
        failed |= check_net_fairness(args.net_fresh, args.fairness_tolerance)

    if failed:
        print("\nstep-latency ratio, HPD evals-per-solve, kernel "
              "calls-per-solve, CF iterations-per-call, HPD fallback share, thread-scaling ratio, "
              "store compaction, or tenant fairness out of bounds (see lines "
              "above)", file=sys.stderr)
        return 1
    print("\nstep-latency ratios, HPD evals-per-solve, kernel "
          "calls-per-solve, CF iterations-per-call, HPD fallback share, thread scaling, store "
          "compaction, and tenant fairness within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
