"""fixspace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: modules, search, characters, verify (see
workloads.py for what each one runs and why).

With ``--trace 0`` the run sets the workload up, turns ``--seed`` into the
run's fixed task list, and repeats the list until about ``--seconds`` have
gone by (never fewer than the workload's minimum pass count). Each task's
time is its median over the passes, and times are scaled to a reference
machine speed (see speed.py). Pass 0's outputs are checked; every
later pass must reproduce them exactly. It prints the end-to-end metrics.
With ``--trace 1`` it runs the list three times: untraced, under the span
tracer and under the field-operation counters, and prints the per-layer
metrics. The last line of stdout is one JSON object: correct, attempted,
failed, metrics.

Pass 0's outputs are hashed; for the seeds in digests.json the hash must
match, and a mismatch counts as a failure.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import workloads
from child import HERE, ROOT, SPAN_DIR
from tracer import Tracer, layer_metrics

SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5   # cold set-ups per run; setup_s is their median

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
              "task_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = [
    "ff.elem_ops", "ff.poly_calls", "ff.poly_s",
    "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_s",
    "linalg.matmul_calls", "linalg.matmul_s", "linalg.charpoly_s",
    "perm.sift_calls", "perm.sift_s", "perm.random_elements",
    "perm.random_element_s", "perm.chain_builds", "perm.chain_build_s",
    "perm.element_orders", "perm.classes_s",
    "rng.draws",
    "matrep.image_calls", "matrep.image_entries", "matrep.image_s",
    "matrep.fixdim_calls", "matrep.fixdim_s", "matrep.irreducible_s",
    "gensearch.attempts", "gensearch.generation_tests", "gensearch.yield",
    "gensearch.self_s",
    "bounds.scott_checks", "bounds.reports", "bounds.self_s",
    "chartab.tables", "chartab.table_s", "chartab.triple_counts",
    "chartab.triple_count_s",
    "weights.multisets", "weights.entries", "weights.freudenthal_s",
    "cli.import_s", "cli.claims_s",
    "trace.overhead_frac",
]


class TaskError:
    def __init__(self, text):
        self.text = text


def run_task(task):
    try:
        return task.run()
    except Exception:  # a task that raises is a failed task
        return TaskError(traceback.format_exc())


def run_pass(tasks):
    """Run the task list once; returns (outputs, raw seconds, scaled
    seconds) per task (see speed.py for the scaling)."""
    return speed.timed(tasks, run_task)


def records_of(wl, tasks, outputs):
    return [f"{task.label}: raised" if isinstance(out, TaskError) else wl.record(task, out)
            for task, out in zip(tasks, outputs)]


def check_all(wl, ctx, tasks, outputs):
    """(attempted, failed) per task."""
    out = []
    for task, res in zip(tasks, outputs):
        if isinstance(res, TaskError):
            sys.stderr.write(f"{task.label} raised:\n{res.text}")
            out.append((1, 1))
            continue
        try:
            a, f = wl.check(ctx, task, res)
        except Exception:  # an unreadable output fails its check
            sys.stderr.write(f"checking {task.label} raised:\n{traceback.format_exc()}")
            a, f = 1, 1
        if f:
            sys.stderr.write(f"failed: {task.label}\n")
        out.append((a, f))
    return out


def digest(records) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def stored_digest(name, seed):
    try:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            return json.load(fh).get(name, {}).get(str(seed))
    except FileNotFoundError:
        return None


def cold_setups(name, count):
    """Cold import plus set-up time, each in a fresh process."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "setup", name],
            cwd=ROOT, capture_output=True, text=True, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.Verify) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


TAIL_LADDER = (95, 90, 75, 50)


def tail_percentile(n: int) -> int:
    """Highest of p95, p90, p75 with at least ten of n tasks beyond it.
    A higher percentile puts the rank among the few slowest tasks; for
    search those are the seeded rejection-heavy searches, whose times
    swing by 20% from seed to seed."""
    return next((k for k in TAIL_LADDER if n * (100 - k) >= 1000), 50)


def timed_run(wl, ctx, args, setup_s):
    """Repeat the run's task list; a task's time is its median over passes."""
    tasks = wl.tasks(ctx, args.seed)
    per_task = [[] for _ in tasks]
    per_sub = {}
    walls, scales, cycles = [], [], []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        outputs, raw, scaled = run_pass(tasks)
        walls.append(sum(scaled))
        scales.append(sum(scaled) / sum(raw))
        records = records_of(wl, tasks, outputs)
        if passes == 0:
            status = check_all(wl, ctx, tasks, outputs)
            first = records
            failed += digest_failure(wl.name, args.seed, digest(records))
        for j, (a, f) in enumerate(status):
            # a repeat must reproduce pass 0 exactly
            attempted += a
            failed += a if records[j] != first[j] else f
            per_task[j].append(scaled[j])
            if hasattr(wl, "subtasks") and not isinstance(outputs[j], TaskError):
                for label, secs in wl.subtasks(outputs[j]):
                    per_sub.setdefault((j, label), []).append(secs * scaled[j] / raw[j])
        passes += 1
        cycles.append(time.perf_counter() - c0)
        elapsed = time.perf_counter() - start
        if passes >= wl.min_passes and elapsed + statistics.median(cycles) > args.seconds:
            break
    times = [statistics.median(v) for v in (per_sub or dict(enumerate(per_task))).values()]
    k = tail_percentile(len(times))
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "task_p50_ms": 1e3 * statistics.median(times),
        "task_tail_ms": 1e3 * statistics.quantiles(times, n=100, method="inclusive")[k - 1],
        "peak_rss_mb": peak_rss_mb(wl),
    }
    unit = "claims" if per_sub else "tasks"
    print(f"{wl.name}: seed {args.seed}, {len(tasks)} tasks, {passes} passes, "
          f"times scaled to reference speed by a median factor {statistics.median(scales):.3f}")
    notes = {
        "setup_s": f"median of {len(setup_s)} cold set-ups",
        "wall_s": f"task list, median of {passes} passes",
        "task_p50_ms": f"of {len(times)} {unit}",
        "task_tail_ms": f"p{k} of {len(times)} {unit}",
        "peak_rss_mb": "of the verify processes" if isinstance(wl, workloads.Verify) else "of this process",
    }
    for key, unit in END_TO_END.items():
        print(f"  {key} = {metrics[key]:.6g} {unit} ({notes[key]})")
    print(f"  fail_frac = {failed / max(attempted, 1):.6g} ratio ({failed}/{attempted})")
    return attempted, failed, {k_: {"value": v, "unit": END_TO_END[k_]} for k_, v in metrics.items()}


def digest_failure(name, seed, value) -> int:
    want = stored_digest(name, seed)
    if want is None:
        print(f"digest = {value} (none stored for seed {seed})")
        return 0
    print(f"digest = {value} ({'matches' if want == value else 'DIFFERS from'} stored)")
    return int(want != value)


def traced_run(wl, ctx, args):
    """The task list once untraced, once with spans, once with field-op
    counters; outputs must agree across the three."""
    in_process = not isinstance(wl, workloads.Verify)
    tasks = wl.tasks(ctx, args.seed)
    attempted = failed = 0
    results = {}
    for mode in ("none", "spans", "fieldops"):
        tracer = Tracer()
        if in_process:
            tracer.install(spans=mode == "spans", field_ops=mode == "fieldops")
        else:
            wl.mode = mode
        try:
            outputs, _, scaled = run_pass(tasks)
        finally:
            tracer.uninstall()
        records = records_of(wl, tasks, outputs)
        if mode == "none":
            first = records
            for a, f in check_all(wl, ctx, tasks, outputs):
                attempted += a
                failed += f
            failed += digest_failure(wl.name, args.seed, digest(records))
        else:
            failed += sum(r != q for r, q in zip(records, first))
        if in_process:
            layers = layer_metrics(tracer) if mode == "spans" else {}
            layers["ff.elem_ops"] = tracer.counts["ff.elem_ops"]
            if mode == "spans":
                os.makedirs(SPAN_DIR, exist_ok=True)
                tracer.write_spans(os.path.join(SPAN_DIR, f"spans-{wl.name}.tsv"))
        else:
            layers = sum_layers([o[2] for o in outputs if not isinstance(o, TaskError)])
        results[mode] = (sum(scaled), layers)
    metrics = {k: 0.0 for k in PER_LAYER}
    metrics.update({k: v for k, v in results["spans"][1].items() if k in PER_LAYER})
    for key in ("cli.import_s", "cli.claims_s"):
        metrics[key] = results["none"][1].get(key, 0.0)
    metrics["ff.elem_ops"] = results["fieldops"][1].get("ff.elem_ops", 0)
    metrics["trace.overhead_frac"] = results["spans"][0] / results["none"][0] - 1
    print(f"{wl.name}: seed {args.seed}, {len(tasks)} tasks, traced")
    for key in PER_LAYER:
        print(f"  {key} = {metrics[key]:.6g} {unit_of(key)}")
    return attempted, failed, {k: {"value": metrics[k], "unit": unit_of(k)} for k in PER_LAYER}


def sum_layers(dicts) -> dict:
    """Add up the layer numbers of several processes; the yield is
    re-weighted by each process's generation tests."""
    out = {}
    for d in dicts:
        for k, v in d.items():
            if isinstance(v, (int, float)):
                out[k] = out.get(k, 0) + v
    tests = out.get("gensearch.generation_tests", 0)
    out["gensearch.yield"] = (sum(d.get("gensearch.yield", 0) * d.get("gensearch.generation_tests", 0)
                                  for d in dicts) / tests) if tests else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric in ("gensearch.yield", "trace.overhead_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join(SRC, "fixspace", "__init__.py"),
                 os.path.join(ROOT, "data", "claims.manifest")):
        if not os.path.isfile(need):
            sys.stderr.write(f"error: {need} is missing; run from a fixspace source checkout\n")
            return 2
    sys.path.insert(0, SRC)

    speed.pin_to_current_cpu()
    wl = workloads.make(args.workload, ROOT)
    (ctx,), _, (first_setup,) = speed.timed([wl], lambda w: w.setup())
    if args.trace:
        attempted, failed, metrics = traced_run(wl, ctx, args)
    else:
        samples = [first_setup] + cold_setups(wl.name, SETUP_SAMPLES - 1)
        attempted, failed, metrics = timed_run(wl, ctx, args, samples)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
