"""Layered benchmark of affine-lab's CLI workloads.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``bench/workloads.py`` or ``all``.
For ``S`` seconds the benchmark starts one fresh process after another;
each imports the package from ``src/``, parses the workload's config
(generated from ``N``) and runs the subcommand once through
``affine_lab.cli.run``, exactly as one ``affine-lab`` invocation does.

With ``--trace 0`` every process runs untraced and the end-to-end metrics
are medians over the processes, with times in reference seconds (see
``REF_NOMINAL_S``).  With ``--trace 1`` untraced and traced
processes alternate; the traced ones time the package's layers through
the shims of ``bench/shims.py`` and give the per-layer metrics.

Guards: every process of a run must write the same artifact bytes
(traced or not), the transform curves must satisfy their closed-form
checks, and each report must have the expected number of rows.  The last
line on standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (machine facts,
sample counts and quartiles, layer shares, digests) is written to
``.bench_out/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "affine_lab" / "__init__.py"
OUT = ROOT / ".bench_out"
PINNED = HERE / "digests.json"

KERNELS = ("affine", "cbi", "catalytic", "reactant")

# Time metrics are reported in reference seconds: measured seconds times
# REF_NOMINAL_S over the mean time of the reference computation run just
# before and just after the sample (about 0.1 s on the machine this
# benchmark was written on).  A shared machine's speed drifts by 30%
# within minutes and moves the reference with it, so the ratio is
# steadier than the raw time; raw times stay in the record.  Runs on more
# than one worker are not scaled (see in_reference_seconds).
REF_NOMINAL_S = 0.1
REF_SCALED = ("setup_s", "wall_s", "cpu_s")

# Spans that wait for other threads rather than work (names from shims.py).
WAIT_SPANS = ("sde.pool_wait",)
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    """Metric name to unit, for ``kind`` ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


# -- facts about the machine ------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    mem_kb = next((int(line.split()[1])
                   for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"cpu_model": model, "nproc": nproc, "caches": caches,
            "mem_total_mb": round(mem_kb / 1024)}


def reference_s() -> float:
    """Seconds a fixed reference computation takes now.

    The computation is Philox generator construction and interpreted
    Python, in about the proportions that tracked the package's own
    timings best under the drift of a shared machine.  It uses nothing
    from the package, so a change to the package cannot change it.  It
    runs in this process between the workload processes.
    """
    from numpy.random import Generator, Philox

    start = time.perf_counter()
    for i in range(4500):
        Generator(Philox(key=[i, 0])).normal(size=(3, 4))
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return time.perf_counter() - start


# -- running samples --------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for key in THREAD_CAPS:
        env[key] = "1"
    return env


def run_child(job: dict) -> dict:
    """One workload process; failures come back as ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"sample exceeded {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"sample process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}"}
    return json.loads(lines[-1])


def collect(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> list:
    """Samples for about ``seconds`` (at least ``MIN_SAMPLES`` of each kind).

    With ``trace`` untraced and traced processes alternate, untraced
    first.  Once there are enough samples, no process is started that
    would, at the mean duration so far, end after ``seconds``.
    Collection stops at the first failed process.
    """
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    samples = []
    started = time.monotonic()
    reference_s()  # the first call pays one-time costs
    ref_before = reference_s()
    try:
        while True:
            traced = trace and len(samples) % 2 == 1
            out_dir = work_dir / f"sample{len(samples):03d}"
            sample = run_child({"workload": name, "seed": seed,
                                "scale": scale, "trace": traced,
                                "out_dir": str(out_dir)})
            ref_after = reference_s()
            sample.update(traced=traced, ref_s=(ref_before + ref_after) / 2)
            ref_before = ref_after
            samples.append(sample)
            shutil.rmtree(out_dir, ignore_errors=True)
            if sample.get("error"):
                break
            plain = sum(not s["traced"] for s in samples)
            enough = plain >= MIN_SAMPLES and (
                not trace or len(samples) - plain >= MIN_SAMPLES)
            elapsed = time.monotonic() - started
            if enough and elapsed * (1 + 1 / len(samples)) > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return samples


# -- per-layer metrics from one traced sample --------------------------------

def _per(value: float, base: int, factor: float) -> float:
    return value / base * factor if base else 0.0


def layer_metrics(sample: dict, base: dict) -> dict:
    """Every per-layer metric of one traced sample except the overhead.

    ``*_s`` are self times summed over threads; rates divide a span's
    inclusive time by the work the config asks for (``base``), or, for
    RK steps, by the steps the solver reports.  A layer that did not run
    reads 0; one whose shim target is gone is listed in ``absent``.
    """
    tr = sample["trace"]
    spans, counters = tr["spans"], tr["counters"]

    def self_s(span):
        return spans.get(span, {}).get("self_s", 0.0)

    def total_s(span):
        return spans.get(span, {}).get("total_s", 0.0)

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    paths = base["paths"]
    m = {
        "noise.generate_s": self_s("noise.generate"),
        "noise.generate_us_per_path": _per(total_s("noise.generate"),
                                           paths, 1e6),
        "noise.paths_generated": calls("noise.generate"),
        "noise.stream_open_s": self_s("noise.stream_open"),
        "noise.streams_opened": calls("noise.stream_open"),
        "noise.refine_s": self_s("noise.refine"),
        "noise.refine_ns_per_path_step": _per(
            total_s("noise.refine"), base["refine_path_steps"], 1e9),
        "noise.n0_events_per_path": _per(
            counters.get("noise.n0_events", 0), paths, 1.0),
        "noise.n1_candidates_per_path": _per(
            counters.get("noise.n1_candidates", 0), paths, 1.0),
        "noise.retried_paths": counters.get("noise.retried_paths", 0),
        "params.sample_s": self_s("params.sample"),
        "params.sample_calls": calls("params.sample"),
        "params.exp_integral_s": self_s("params.exp_integral"),
        "params.exp_integral_calls": calls("params.exp_integral"),
        "transform.solve_s": self_s("transform.solve"),
        "transform.solves": calls("transform.solve"),
        "transform.rk_steps": counters.get("transform.rk_steps", 0),
        "transform.us_per_rk_step": _per(
            total_s("transform.solve"),
            counters.get("transform.rk_steps", 0), 1e6),
        "sde.event_table_s": self_s("sde.event_table"),
        "sde.clamps": counters.get("sde.clamps", 0),
        "sde.aborted_paths": counters.get("sde.aborted_paths", 0),
        "sde.run_ensemble_self_s": self_s("sde.run_ensemble"),
        "sde.pool_wait_s": self_s("sde.pool_wait"),
        "validate.self_s": self_s("validate.check"),
        "validate.rows": counters.get("validate.rows", 0),
        "validate.rows_failed": counters.get("validate.rows_failed", 0),
        "cli.parse_s": sample["parse_s"],
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": sample.get("bytes_written", 0),
        "trace.uncovered_s": tr["uncovered_s"],
    }
    for k in KERNELS:
        m[f"sde.kernel.{k}_s"] = self_s(f"sde.kernel.{k}")
        m[f"sde.kernel.{k}_ns_per_path_step"] = _per(
            total_s(f"sde.kernel.{k}"), base["kernel_path_steps"][k], 1e9)
    return m


def layer_shares(sample: dict) -> dict:
    """Self thread-seconds by module layer, and each layer's share.

    Waiting spans are left out; time no span covers on the main thread
    counts as ``uncovered``.  Main-thread self times plus ``uncovered``
    equal the traced wall time; worker threads add on top.
    """
    tr = sample["trace"]
    seconds = {"uncovered": tr["uncovered_s"]}
    main = tr["uncovered_s"]
    workers = 0.0
    for span, entry in tr["spans"].items():
        for thread, value in entry["self_s_by_thread"].items():
            if thread == "main":
                main += value
            else:
                workers += value
        if span in WAIT_SPANS:
            continue
        layer = span.split(".", 1)[0]
        seconds[layer] = seconds.get(layer, 0.0) + entry["self_s"]
    total = sum(seconds.values())
    return {"thread_seconds": seconds,
            "share": {k: v / total for k, v in seconds.items()} if total
            else {},
            "main_thread_accounted_s": main, "wall_s": tr["wall_s"],
            "worker_thread_s": workers, "absent": tr["absent"]}


# -- summary ----------------------------------------------------------------

def stats(values: list) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def in_reference_seconds(sample: dict, key: str, workers: int) -> float:
    """``sample[key]``, in reference seconds where that applies.

    Only the times of single-worker runs are scaled: the reference runs on
    one CPU, while a run on two workers depends on both, and its raw times
    measured steadier than its scaled ones.
    """
    if key not in REF_SCALED or workers > 1:
        return sample[key]
    return sample[key] * REF_NOMINAL_S / sample["ref_s"]


def guard(name: str, samples: list, base: dict) -> list:
    """Problems that make the run incorrect; an empty list means none."""
    problems = []
    for i, s in enumerate(samples):
        if s.get("error"):
            problems.append(f"sample {i}: {s['error']}")
            continue
        problems += [f"sample {i}: {p}" for p in s.get("problems", [])]
        done = s.get("curves") if workloads.WORKLOADS[name].command == \
            "transform" else s.get("rows")
        if done != base["operations"]:
            problems.append(f"sample {i}: {done} operations written, "
                            f"{base['operations']} expected")
    by_kind = {}
    for s in samples:
        if not s.get("error"):
            key = "traced" if s["traced"] else "untraced"
            by_kind.setdefault(key, set()).add(s.get("digest"))
    digests = set().union(*by_kind.values()) if by_kind else set()
    if len(digests) > 1:
        problems.append("artifact bytes differ between samples: " + ", ".join(
            f"{k} {sorted(d)}" for k, d in sorted(by_kind.items())))
    return problems


def failed_operations(work, sample: dict, operations: int) -> int:
    """Operations of one sample that failed.

    Exit status 1 means some report rows failed their check, and the
    artifacts say which.  On a workload with ``sigma_rows`` only the rows
    far outside their tolerance count; the others are the chance misses
    of a 3-sigma check, reported under ``check_rows`` in the record.  Any
    other failure loses every operation of the invocation.
    """
    if sample.get("error") or sample.get("status") not in (0, 1):
        return operations
    return sample.get("rows_far_out" if work.sigma_rows else "rows_failed",
                      0)


def pinned_digest(name: str, seed: int):
    try:
        table = json.loads(PINNED.read_text())
    except (OSError, ValueError):
        return None
    return table.get(name, {}).get(str(seed))


def summarize(name: str, seed: int, trace: bool, samples: list,
              scale: float = 1.0) -> tuple:
    """``(result line, full record)`` of one workload run."""
    doc = workloads.config_doc(name, seed, scale)
    base = workloads.base_counts(name, doc)
    problems = guard(name, samples, base)
    attempted = base["operations"] * len(samples)
    work = workloads.WORKLOADS[name]
    failed = sum(failed_operations(work, s, base["operations"])
                 for s in samples)
    workers = work.workers
    ok = [s for s in samples if not s.get("error")]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]

    record = {"workload": name, "seed": seed, "trace": int(trace),
              "why": next(w["why"] for w in spec()["workloads"]
                          if w["name"] == name),
              "workers": workers, "reference_scaled": workers == 1,
              "machine": machine_facts(),
              "versions": ok[0]["versions"] if ok else None,
              "thread_caps": {k: "1" for k in THREAD_CAPS},
              "config": doc, "base_counts": base,
              "samples": {"untraced": len(plain), "traced": len(traced),
                          "failed": len(samples) - len(ok)},
              "problems": problems,
              "operations": {"attempted": attempted, "failed": failed,
                             "failed_frac": failed / attempted}}
    if ok:
        # The artifacts of all samples are the same bytes (guarded), so
        # the check outcome is one per run, whatever the sample count.
        rows = ok[0].get("rows", 0)
        record["check_rows"] = {
            "rows": rows, "failed": ok[0].get("rows_failed", 0),
            "far_out": ok[0].get("rows_far_out", 0),
            "failed_frac": ok[0].get("rows_failed", 0) / rows if rows
            else 0.0, "sigma_rows": work.sigma_rows}
    digest = ok[0].get("digest") if ok else None
    pinned = pinned_digest(name, seed)
    record["digest"] = {"sha256": digest, "pinned": pinned,
                        "changed_from_pinned": None if pinned is None
                        else pinned != digest}
    record["retried_paths"] = max((s.get("retried_paths", 0) for s in ok),
                                  default=0)
    statuses = [s.get("status") for s in samples]
    record["exit_status"] = {str(v): statuses.count(v) for v in set(statuses)}

    metrics = {}
    if plain:
        e2e_units = units("end_to_end")
        e2e = {k: stats([in_reference_seconds(s, k, workers)
                         for s in plain]) for k in e2e_units}
        record["end_to_end"] = {k: dict(v, unit=e2e_units[k])
                                for k, v in e2e.items()}
        record["end_to_end_raw"] = {
            k: dict(stats([s[k] for s in plain]), unit="s")
            for k in REF_SCALED + ("ref_s",)}
        wall = record["end_to_end_raw"]["wall_s"]["median"]
        rates = {"path_steps_per_s": base["coarse_path_steps"] / wall,
                 "solves_per_s": base["solves"] / wall}
        record["rates"] = {k: {"value": v, "unit": "1/s"}
                           for k, v in rates.items() if v}
        if not trace:
            metrics = {k: {"value": e2e[k]["median"], "unit": u}
                       for k, u in e2e_units.items()}
    if trace and traced and plain:
        per_sample = [layer_metrics(s, base) for s in traced]
        layer = {k: stats([m[k] for m in per_sample])
                 for k in per_sample[0]}
        overhead = (stats([in_reference_seconds(s, "wall_s", workers)
                           for s in traced])["median"]
                    - record["end_to_end"]["wall_s"]["median"])
        layer_units = units("per_layer")
        metrics = {k: {"value": layer[k]["median"], "unit": layer_units[k]}
                   for k in layer}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record["per_layer"] = {k: dict(v, unit=layer_units[k])
                               for k, v in layer.items()}
        record["layer_shares"] = layer_shares(
            sorted(traced, key=lambda s: s["wall_s"])[len(traced) // 2])
    result = {"correct": not problems and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def report_lines(record: dict, result: dict) -> list:
    """Human-readable lines: every metric by name with its unit."""
    s = record["samples"]
    m, v = record["machine"], record["versions"] or {}
    lines = [f"{record['workload']} seed={record['seed']} "
             f"trace={record['trace']} workers={record['workers']} "
             f"samples untraced={s['untraced']} traced={s['traced']}",
             f"  machine: {m['cpu_model']}, nproc {m['nproc']}, "
             + ", ".join(f"{k} {size}" for k, size in m["caches"].items())
             + f", {m['mem_total_mb']} MB; python {v.get('python')}, numpy "
             f"{v.get('numpy')}, scipy {v.get('scipy')}; BLAS/OpenMP "
             f"threads capped at 1",
             "  base counts: " + ", ".join(
                 f"{k} {val}" for k, val in record["base_counts"].items())]
    raw = record.get("end_to_end_raw", {})
    for key, entry in record.get("end_to_end", {}).items():
        lines.append(f"  {key:<34} {entry['median']:.6g} {entry['unit']}"
                     f"  (median of {entry['n']}, q1 {entry['q1']:.6g},"
                     f" q3 {entry['q3']:.6g}"
                     + (f"; raw {raw[key]['median']:.6g} {entry['unit']})"
                        if key in raw else ")"))
    if raw:
        lines.append(f"  reference computation median "
                     f"{raw['ref_s']['median']:.6g} s (nominal "
                     f"{REF_NOMINAL_S} s)")
    for key, entry in record.get("rates", {}).items():
        lines.append(f"  {key:<34} {entry['value']:.6g} {entry['unit']}")
    for key, entry in record.get("per_layer", {}).items():
        lines.append(f"  {key:<34} {entry['median']:.6g} {entry['unit']}")
    if "trace.overhead_s" in result["metrics"]:
        lines.append(f"  {'trace.overhead_s':<34} "
                     f"{result['metrics']['trace.overhead_s']['value']:.6g} s")
    shares = record.get("layer_shares")
    if shares:
        lines.append("  layer shares of traced thread-seconds: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(
                shares["share"].items(), key=lambda kv: -kv[1])))
        lines.append(
            f"  traced wall {shares['wall_s']:.6g} s: main-thread self plus "
            f"uncovered {shares['main_thread_accounted_s']:.6g} s, worker "
            f"threads {shares['worker_thread_s']:.6g} s")
        if shares["absent"]:
            lines.append("  absent: " + ", ".join(shares["absent"]))
    d = record["digest"]
    state = ("unpinned" if d["pinned"] is None else
             "CHANGED from pinned" if d["changed_from_pinned"] else
             "same as pinned")
    lines.append(f"  artifact sha256 {d['sha256']} ({state})")
    lines.append(f"  operations attempted {result['attempted']}, failed "
                 f"{result['failed']}, exit status {record['exit_status']}, "
                 f"retried paths {record['retried_paths']}")
    rows = record.get("check_rows")
    if rows and rows["rows"]:
        lines.append(
            f"  report rows per run {rows['rows']}: {rows['failed']} outside "
            f"tolerance, {rows['far_out']} beyond {workloads.FAR_OUT:g}x"
            + (" (3-sigma Monte Carlo checks: only rows beyond count as "
               "failed operations)" if rows["sigma_rows"] else ""))
    lines += [f"  PROBLEM {p}" for p in record["problems"]]
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """Measure one workload, print its report and return the result line."""
    samples = collect(name, seed, seconds, trace, scale)
    result, record = summarize(name, seed, trace, samples, scale)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"result": result, "record": record},
                               indent=2, sort_keys=True) + "\n")
    for line in report_lines(record, result):
        print(line)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not PACKAGE_INIT.is_file():
        print(f"bench: no package source at {PACKAGE_INIT.relative_to(ROOT)}"
              f"; run from a source checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
