"""Benchmark of the stmkernels tensor-kernel SVM pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --smoke                 # toy sizes, checks the benchmark itself
    python3 perfbench/run.py --write-reference [--workload NAME]  # rewrite reference/ from seed 0

Run from the repository root. One benchmark process runs one job at a time
(a closed loop with a single client): every dataset of the workload gets
a fresh interpreter (`child.py`) that makes the same public calls as
`stmkernels run`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` (cells) and `metrics`: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, the per-layer
metrics with `--trace 1`. `wall_s` and `cpu_s` are the smallest over
the run's datasets, `setup_s` the median, `peak_rss_mb` the largest;
`mean_acc` is the mean over every cell of every dataset. Per-layer
metrics are summed over the traced datasets. The full record of a run, with the
environment and the load average before and after, is written under
`.perfbench_work/results/`. The exit code is 0 only when every check
passed.

Checks: every child exits 0; no cell is NaN where the committed
reference is finite; at seed 0 every cell's mean_acc is within
MEAN_ACC_TOL of the committed reference; with tracing, each traced
report is byte-identical to the untraced report of the same dataset and
every layer the workload must exercise has spans.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, dataset_seed  # noqa: E402

PACKAGE = os.path.join(ROOT, "src", "stmkernels")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
CHILD = os.path.join(HERE, "child.py")

MEAN_ACC_TOL = 0.05   # per cell, against the reference at seed 0
RUN_LIMIT_S = 170.0   # a run stops starting children after this
UNTRACED_PAIRS = 1    # datasets also run untraced in a traced run
SMOKE_DATASETS = 2
SAMPLE_KEYS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment():
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def run_child(args, deadline):
    """Run one child to completion; returns its CPU seconds (user + sys)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.Popen(args, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out: {' '.join(args[2:4])}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0:
        raise ChildFailed(f"exit code {code}: {' '.join(args[2:4])}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def run_dataset(directory, config, traced, deadline):
    """One experiment in a fresh interpreter; returns its sample record."""
    os.makedirs(directory, exist_ok=True)
    out_dir = os.path.join(directory, "out")
    result_path = os.path.join(directory, "result.json")
    spans_path = os.path.join(directory, "spans.json")
    for path in (result_path, spans_path, os.path.join(out_dir, "report.csv")):
        if os.path.exists(path):
            os.remove(path)
    args = [sys.executable, CHILD, "run", config, out_dir, result_path]
    args.append(repr(time.time()))
    if traced:
        args.append(spans_path)
    cpu = run_child(args, deadline)
    with open(result_path) as fh:
        sample = json.load(fh)
    sample["cpu_s"] = cpu
    with open(os.path.join(out_dir, "report.csv"), "rb") as fh:
        sample["report"] = fh.read()
    if traced:
        with open(spans_path) as fh:
            sample["spans"] = json.load(fh)
    return sample


def prepare_dense(workload, seed, directory, smoke, deadline):
    """Benchmark preparation: dense containers for a data_dir workload."""
    if os.path.isdir(directory):
        shutil.rmtree(directory)
    cfg_path = directory + ".json"
    with open(cfg_path, "w") as fh:
        json.dump(workload.dense_config(seed, smoke), fh)
    run_child([sys.executable, CHILD, "dense", cfg_path, directory], deadline)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def parse_report(data):
    """(kernel, rank, noise) -> mean_acc of a report.csv."""
    rows = csv.DictReader(data.decode().splitlines())
    return {(r["kernel"], r["rank"], r["noise"]): float(r["mean_acc"]) for r in rows}


def load_reference(name, k):
    path = os.path.join(REFERENCE, name, f"{k}.csv")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return parse_report(fh.read())


def failed_cells(cells, reference, exact):
    """Cells of `reference` that are missing, NaN where the reference is
    finite, or (with `exact`) further than MEAN_ACC_TOL from it."""
    failed = 0
    for key, ref in reference.items():
        acc = cells.get(key)
        if acc is None or (math.isnan(acc) and not math.isnan(ref)):
            failed += 1
        elif exact and not math.isnan(ref) and abs(acc - ref) > MEAN_ACC_TOL:
            failed += 1
    return failed + len(set(cells) - set(reference))


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run every dataset of one workload; returns the run record."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    n_sets = SMOKE_DATASETS if smoke else workload.datasets(seconds)
    work = os.path.join(WORK, name)
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "datasets": n_sets,
              "environment": environment(), "loadavg_before": os.getloadavg()}
    # a 1-minute load at or above the CPU count means other work was running
    record["busy_start"] = record["loadavg_before"][0] >= os.cpu_count()
    untraced, traced, reports, problems, accs = [], [], [], [], []
    attempted = failed = 0
    # cells of the first reference report; at any seed a cell must exist
    # and be finite wherever it is finite there
    layout = None if smoke else load_reference(name, 0)

    for k in range(n_sets):
        directory = os.path.join(work, f"ds{k}")
        ds_seed = dataset_seed(seed, k)
        os.makedirs(directory)
        data_dir = None
        try:
            if workload.dense is not None:
                data_dir = os.path.join(directory, "data")
                prepare_dense(workload, ds_seed, data_dir, smoke, deadline)
            config = os.path.join(directory, "experiment.cfg")
            with open(config, "w") as fh:
                fh.write(workload.config_text(ds_seed, os.path.join(directory, "out"),
                                              data_dir, smoke))
            plain = None
            if not trace or k < UNTRACED_PAIRS:
                plain = run_dataset(directory, config, False, deadline)
                untraced.append(plain)
            if trace:
                sample = run_dataset(directory, config, True, deadline)
                traced.append(sample)
                if plain is not None and plain["report"] != sample["report"]:
                    problems.append(f"dataset {k}: traced report differs from untraced")
                missing = [layer for layer, count in tracing.span_counts(
                    sample["spans"]).items()
                    if count == 0 and layer in workload.expected_layers]
                if missing:
                    problems.append(f"dataset {k}: no spans for {', '.join(missing)}")
            report = (plain if plain is not None else sample)["report"]
        except ChildFailed as exc:
            problems.append(f"dataset {k}: {exc}")
            attempted += len(layout) if layout else 1
            failed += len(layout) if layout else 1
            break
        finally:
            if data_dir is not None and os.path.isdir(data_dir):
                shutil.rmtree(data_dir)
        reports.append(report)
        cells = parse_report(report)
        reference = load_reference(name, k) if seed == 0 and not smoke else None
        if reference is not None:
            bad = failed_cells(cells, reference, exact=True)
        elif layout is not None:
            bad = failed_cells(cells, layout, exact=False)
        else:
            bad = sum(math.isnan(v) for v in cells.values())
        attempted += len(cells)
        failed += bad
        accs.extend(v for v in cells.values() if not math.isnan(v))

    record["loadavg_after"] = os.getloadavg()
    record["elapsed_s"] = time.monotonic() - start
    first = (untraced or traced or [{}])[0]
    record["environment"].update(
        {key: first.get(key) for key in ("numpy", "blas", "blas_threads")})
    record["samples"] = [{key: s[key] for key in SAMPLE_KEYS} for s in untraced]
    record["problems"] = problems
    record["attempted"] = max(attempted, 1)
    record["failed"] = failed
    record["correct"] = not problems and failed == 0
    record["reports"] = reports

    if trace:
        metrics = tracing.aggregate([s["spans"] for s in traced])
        traced_wall = [s["wall_s"] for s in traced[:UNTRACED_PAIRS]]
        metrics["harness.trace_overhead_s"] = (
            median(traced_wall) - median([s["wall_s"] for s in untraced]), "s")
        record["traced_samples"] = [{key: s[key] for key in SAMPLE_KEYS} for s in traced]
    else:
        metrics = {
            # best of the run's datasets: the host's speed drifts by tens of
            # percent within a run, and the fastest dataset tracks the
            # program, where the median tracks the host
            "wall_s": (min(s["wall_s"] for s in untraced), "s"),
            "setup_s": (median([s["setup_s"] for s in untraced]), "s"),
            "cpu_s": (min(s["cpu_s"] for s in untraced), "s"),
            "peak_rss_mb": (max((s["peak_rss_mb"] for s in untraced), default=0.0), "MB"),
            "mean_acc": (statistics.fmean(accs) if accs else 0.0, "ratio"),
            "cell_pass_ratio": (
                (record["attempted"] - failed) / record["attempted"], "ratio"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["sample_count"] = len(traced) if trace else len(untraced)
    return record


def save_record(record):
    directory = os.path.join(WORK, "results")
    os.makedirs(directory, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
            f"{'-smoke' if record['smoke'] else ''}.json")
    saved = {k: v for k, v in record.items() if k != "reports"}
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(saved, fh, indent=1, sort_keys=True)


def result_line(record):
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def print_summary(record):
    env = dict(record["environment"], loadavg_before=record["loadavg_before"],
               loadavg_after=record["loadavg_after"], busy_start=record["busy_start"])
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"datasets={record['datasets']} elapsed={record['elapsed_s']:.1f}s")
    print("# environment " + json.dumps(env, sort_keys=True))
    n = record["sample_count"]
    for key, m in record["metrics"].items():
        print(f"{record['workload']:>13}  {key:<40} {m['value']:>14.6g} {m['unit']:<6} n={n}")
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def smoke():
    """Toy-sized runs of every workload: every metric of BENCHMARK.json is
    emitted with its unit, and two runs give byte-identical reports and
    identical exact counts."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for name in WORKLOADS:
        runs = {}
        for trace, repeat in ((0, 0), (1, 0), (1, 1)):
            record = run_workload(name, 0, 1, trace, smoke=True)
            runs[trace, repeat] = record
            errors += [f"{name}: {p}" for p in record["problems"]]
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{name} trace={trace}: metrics {sorted(got.items())} "
                              f"!= BENCHMARK.json {sorted(expected[trace].items())}")
        if not (runs[0, 0]["reports"] == runs[1, 0]["reports"] == runs[1, 1]["reports"]):
            errors.append(f"{name}: toy runs gave different reports")
        a, b = (runs[1, r]["metrics"] for r in (0, 1))
        counts = [k for k in a if k.endswith((".calls", ".entries", ".updates",
                                              ".updates_max", ".convergence_errors"))]
        if any(a[k] != b[k] for k in counts):
            errors.append(f"{name}: exact counts differ between toy runs")
        print(f"smoke {name}: {len(runs[0, 0]['metrics'])} end-to-end and "
              f"{len(a)} per-layer metrics")
    for e in errors:
        print("FAILED: " + e)
    print(json.dumps({"smoke": "pass" if not errors else "fail", "errors": len(errors)}))
    return 0 if not errors else 1


def write_reference(names, seconds):
    """Store the seed-0 reports of the named workloads as their reference."""
    for name in names:
        record = run_workload(name, 0, seconds, 0)
        if record["problems"]:
            print("\n".join(record["problems"]))
            return 1
        directory = os.path.join(REFERENCE, name)
        if os.path.isdir(directory):
            shutil.rmtree(directory)
        os.makedirs(directory)
        for k, report in enumerate(record["reports"]):
            with open(os.path.join(directory, f"{k}.csv"), "wb") as fh:
                fh.write(report)
        print(f"{name}: {len(record['reports'])} reference reports")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(PACKAGE):
        print(f"no stmkernels sources at {os.path.relpath(PACKAGE, ROOT)}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    with open(BENCHMARK_JSON) as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]
    if args.smoke:
        return smoke()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        return write_reference(names, seconds)
    records = []
    for name in names:
        record = run_workload(name, args.seed, seconds, args.trace)
        save_record(record)
        print_summary(record)
        records.append(record)
    if len(records) == 1:
        print(result_line(records[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(result_line(r)) for r in records}))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
