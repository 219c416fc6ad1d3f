"""tsketch benchmark: one workload per run, end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

With ``--trace 0`` a run generates the workload's data from the seed
(untimed), then runs jobs one after the other for ``--seconds`` seconds, timing
a fresh set-up process between jobs, and prints the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced jobs and prints the per-layer
metrics from the traced ones, plus the tracing overhead. Every job passes a
correctness gate; failures count and do not stop the run. The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs every workload at a tiny size with both trace settings and
checks that each metric in BENCHMARK.json is emitted with its unit.

Files go under ``.perfbench-work/`` in the checkout; the per-run data is
deleted when the run ends and a JSON record of it is kept in ``results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

import procs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

CHILD = str(HERE / "child.py")

# Fresh set-up processes timed per run, spread evenly over the window; one
# more runs first, untimed, to fill the bytecode and page caches.
SETUP_PROBES = 8

E2E_UNITS = {"job_s": "s", "sketch_mb_s": "MiB/s", "recover_s": "s", "peak_rss_mb": "MiB",
             "setup_s": "s", "rel_err": "ratio"}


def layer_units(name):
    for suffix, unit in (("_s", "s"), ("_mb", "MiB"), ("_calls", "count"), ("_gflop", "GFLOP")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            tail = (p, xs[max(0, math.ceil(p / 100.0 * n) - 1)])
            break
    return {"median": statistics.median(xs), "tail": tail, "n": n}


def llc_bytes():
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1] or None


def environment(runner, wl):
    res = runner.python([CHILD, "env"])
    if res.failure():
        raise RuntimeError(f"environment probe failed: {res.failure()}")
    env = json.loads(res.stdout)
    if not Path(env["tsketch"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"children import tsketch from {env['tsketch']}, not from this checkout")
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {var: runner.env[var] for var in procs.THREAD_VARS},
        "llc_bytes": llc_bytes(),
        "tensor_bytes_computed": wl.tensor_bytes(),
    })
    return env


def step_argv(step, traced, job, spans):
    if traced:
        spec = {"spans": spans, "job": job, "step": step.name}
        spec.update({"cli": step.cli} if step.cli is not None else {"lib": step.lib})
        return [CHILD, "traced", json.dumps(spec)]
    if step.cli is not None:
        return ["-m", "tsketch.cli", *step.cli]
    return [CHILD, "libjob", json.dumps(step.lib)]


def run_job(wl, runner, job, traced, spans):
    """Run one job's steps in fresh processes, then its untimed correctness gate."""
    steps = wl.steps()
    for step in steps:
        for path in step.outputs:
            Path(path).unlink(missing_ok=True)
    results = {}
    t0 = time.perf_counter()
    for step in steps:
        results[step.name] = runner.python(step_argv(step, traced, job, spans))
    job_s = time.perf_counter() - t0

    out = Outcome(steps)
    for step in steps:
        missing = [p for p in step.outputs if not Path(p).is_file()]
        reason = results[step.name].failure() or (missing and f"missing output {missing[0]}")
        if reason:
            out.fail(step, reason)
        else:
            out.ok.add(step.name)
    wl.check(steps, results, out, runner)
    out.values["job_s"] = [job_s]
    out.values["peak_rss_mb"] = [max(r.peak_rss_mb for r in results.values())]
    out.step_rss = {name: r.peak_rss_mb for name, r in results.items()}
    return out


class SetupProbes:
    """Fresh set-up processes, spread over the run's window so that a short slow spell
    of the shared host does not land on all of them."""

    def __init__(self, wl, runner):
        self.argv = [CHILD, "setup", json.dumps(wl.setup_spec())]
        self.runner = runner
        self.runs = []

    def probe(self):
        self.runs.append(self.runner.python(self.argv))

    def due(self, share):
        """Probe once if fewer than `share` of the timed probes have run."""
        if len(self.runs) - 1 < SETUP_PROBES * min(share, 1.0):
            self.probe()

    def times(self):
        return [r.wall_s for r in self.runs[1:]]

    def failures(self):
        return [r.failure() for r in self.runs if r.failure()]


def run_workload(name, seed, seconds, trace, smoke=False):
    """One run. Returns (result object for the last line, report lines, full record)."""
    run_dir = WORK / f"run-{name}-{seed}-{trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = procs.Runner(procs.child_env(ROOT), ROOT, run_dir)
        wl = WORKLOADS[name](seed, run_dir, smoke)
        env = environment(runner, wl)
        wl.prep(runner)

        setup = SetupProbes(wl, runner)
        if not trace:
            setup.probe()  # untimed: fills the bytecode and page caches
        jobs, traced_jobs = [], []
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while i < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = bool(trace) and i % 2 == 1
            spans = str(run_dir / f"spans-{i}.jsonl")
            out = run_job(wl, runner, i, traced, spans)
            if traced:
                if os.path.exists(spans):
                    span_list = tracing.read_spans(spans)
                    out.layers = tracing.layer_metrics(span_list, out.step_rss)
                    out.self_s = tracing.self_times(span_list)
                traced_jobs.append(out)
            else:
                jobs.append(out)
                setup.due((time.perf_counter() - start) / seconds)
            i += 1
        while not trace and len(setup.times()) < SETUP_PROBES:
            setup.probe()
        return _report(wl, env, trace, jobs, traced_jobs, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _report(wl, env, trace, jobs, traced_jobs, setup):
    all_jobs = jobs + traced_jobs
    attempted = sum(j.attempted for j in all_jobs) + len(setup.runs)
    failed = sum(j.failed for j in all_jobs) + len(setup.failures())
    failures = [f"job {k}: {step}: {why}" for k, j in enumerate(all_jobs)
                for step, why in j.failures] + [f"setup: {why}" for why in setup.failures()]
    lines = [f"workload {wl.name}  seed {wl.seed}  trace {trace}  jobs {len(jobs)} untraced, "
             f"{len(traced_jobs)} traced  attempted {attempted}  failed {failed}  "
             f"error_rate {failed / attempted:.4g}"]
    lines += [f"  FAILED {f}" for f in failures]
    record = {"workload": wl.name, "seeds": wl.seeds(), "size": wl.size, "trace": trace,
              "environment": env, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures}

    # A job that failed its gate still contributes what it measured; `correct`
    # and `failed` carry the failure.
    metrics, summaries = {}, {}
    if not trace:
        samples = {k: [v for j in jobs for v in j.values.get(k, ())] for k in E2E_UNITS}
        samples["setup_s"] = setup.times()
        for key, unit in E2E_UNITS.items():
            if not samples[key]:
                continue
            s = summarize(samples[key])
            summaries[key] = s
            metrics[key] = {"value": s["median"], "unit": unit}
            tail = f"p{s['tail'][0]:g} {s['tail'][1]:.6g}" if s["tail"] else "no percentile (n < 20)"
            lines.append(f"  {key:<14} {s['median']:>12.6g} {unit:<6} median; {tail}; n={s['n']}")
        lines.append(f"  {'error_rate':<14} {failed / attempted:>12.6g} {'ratio':<6} "
                     f"failed {failed} of {attempted} operations")
    else:
        ok_traced = [j for j in traced_jobs if j.layers]
        layers = {k: statistics.median(j.layers[k] for j in ok_traced)
                  for k in (ok_traced[0].layers if ok_traced else ())}
        untraced = [j.values["job_s"][0] for j in jobs]
        traced = [j.values["job_s"][0] for j in traced_jobs]
        if untraced and traced:
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            lines.append(f"  tracing overhead {layers['trace.overhead_s']:+.4f} s per job "
                         f"(traced {statistics.median(traced):.4f} s, untraced "
                         f"{statistics.median(untraced):.4f} s)")
        for key, value in layers.items():
            unit = layer_units(key)
            note = ""
            if value == 0:
                note = "zero by design" if key in wl.zero_by_design else "zero, NOT expected"
            elif key in wl.zero_by_design:
                note = "nonzero, expected zero"
            if key in tracing.RESULT_METRICS:
                metrics[key] = {"value": value, "unit": unit}
            lines.append(f"  {key:<32} {value:>12.6g} {unit:<6} {note}")
        if ok_traced:
            lines.append("  self time of the last traced job, by span:")
            lines += [f"    {k:<30} {v:10.4f} s" for k, v in ok_traced[-1].self_s.items()]
            record["self_s"] = ok_traced[-1].self_s
        record["layers"] = layers
    record["summaries"] = summaries
    record["jobs"] = [{"traced": j in traced_jobs, "values": j.values, "step_rss_mb": j.step_rss,
                       "attempted": j.attempted, "failed": j.failed} for j in all_jobs]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, record


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def smoke():
    e2e, layers, names = _declared()
    ok = True
    for name in names:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, lines, _ = run_workload(name, seed=0, seconds=0.5, trace=trace, smoke=True)
            want = layers if trace else e2e
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = [f"missing {k}" for k in want if k not in got]
            problems += [f"{k}: unit {got[k]} != {want[k]}" for k in want if k in got and got[k] != want[k]]
            problems += [f"undeclared {k}" for k in got if k not in want]
            if not result["correct"]:
                problems.append(f"{result['failed']} of {result['attempted']} operations failed")
                problems += lines[1:]
            ok &= not problems
            print(f"smoke {name} trace {trace}: {'ok' if not problems else 'FAIL'} "
                  f"({len(got)} metrics, {time.perf_counter() - t0:.1f} s)")
            for p in problems:
                print(f"  {p}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tsketch" / "cli.py").is_file():
        print(f"perfbench: no tsketch sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    procs.pin_threads(os.environ)
    sys.path.insert(0, str(ROOT / "src"))

    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json",
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    print("environment " + json.dumps(record["environment"]))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
