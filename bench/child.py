"""One workload sample: a fresh process that imports, parses and runs.

Usage: ``python3 bench/child.py '<spec json>'`` with the spec keys
``workload``, ``seed``, ``scale``, ``trace`` and ``out_dir``.  The caller
puts the package on ``PYTHONPATH`` and caps BLAS/OpenMP threads in the
environment.  The process prints one JSON line: its timings, peak memory,
exit status, the SHA-256 of the artifact directory and, when traced, the
span summary.

A CLI user pays the import and the first call on every invocation, so
each sample is one cold process doing what ``affine-lab <command>`` does.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import workloads


def digest_dir(path: Path) -> tuple:
    """``(sha256 hex, bytes)`` over relative names and contents."""
    h = hashlib.sha256()
    total = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        name = f.relative_to(path).as_posix().encode()
        h.update(len(name).to_bytes(8, "little") + name)
        h.update(len(data).to_bytes(8, "little") + data)
        total += len(data)
    return h.hexdigest(), total


def read_rows(path: Path) -> dict:
    """Rows and retries from the report JSON files the command wrote.

    ``rows_far_out`` counts the failed rows whose error exceeds
    ``workloads.FAR_OUT`` times their tolerance (every failed row of
    tolerance 0).
    """
    rows = failed = far_out = retried = 0
    for f in sorted(path.glob("*.json")):
        if f.name == "run_meta.json":
            continue
        report = json.loads(f.read_text())["report"]
        rows += len(report["rows"])
        bad = [r for r in report["rows"] if not r["passed"]]
        failed += len(bad)
        far_out += sum(r["error"] > workloads.FAR_OUT * r["tolerance"]
                       for r in bad)
        retried += int(report["details"].get("n_retried", 0))
    return {"rows": rows, "rows_failed": failed, "rows_far_out": far_out,
            "retried_paths": retried}


def check_transform_csv(path: Path, beta22: float, n_grid: int) -> list:
    """Problems in the transform curves; an empty list means none.

    ``psi2`` has the closed form ``exp(beta22 t) u2`` and the curves must
    stay in the transform domain (``Re psi1 <= 0``, ``Re phi <= 0``).
    """
    import numpy as np

    problems = []
    for f in sorted(path.glob("transform_u*.csv")):
        lines = f.read_text().splitlines()
        u_line = next(l for l in lines if l.startswith("# u = "))
        u2 = complex(u_line[len("# u = ("):-1].split(", ")[1])
        data = np.array([[float(v) for v in l.split(",")] for l in lines
                         if l and l[0] not in "#t"])
        t, re1, _, re2, im2, ref, _ = data.T
        exact = np.exp(beta22 * t) * u2
        if data.shape[0] != n_grid or not np.all(np.isfinite(data)):
            problems.append(f"{f.name}: {data.shape[0]} finite rows "
                            f"expected {n_grid}")
        elif np.max(np.abs(re2 + 1j * im2 - exact)) > 1e-12 * (1 + abs(u2)):
            problems.append(f"{f.name}: psi2 differs from exp(beta22 t) u2")
        elif np.max(re1) > 0.0 or np.max(ref) > 0.0:
            problems.append(f"{f.name}: curve leaves the transform domain")
    return problems


def main(spec: dict) -> dict:
    name = spec["workload"]
    work = workloads.WORKLOADS[name]
    text = workloads.config_text(name, spec["seed"], spec["scale"])
    doc = json.loads(text)
    out = Path(spec["out_dir"])

    start = perf_counter()
    from affine_lab import cli
    imported = perf_counter()
    config = cli.parse_config(text)
    parsed = perf_counter()

    rec = None
    if spec["trace"]:
        import shims
        rec = shims.Recorder()
        shims.install(rec)

    result = {"setup_s": parsed - start, "parse_s": parsed - imported,
              "error": None, "status": None}
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    try:
        result["status"] = cli.run(work.command, config, out_dir=out,
                                   workers=work.workers,
                                   stdout=io.StringIO(), stderr=io.StringIO())
    except Exception:  # noqa: BLE001 - reported as a failed sample
        result["error"] = traceback.format_exc(limit=4)
    t1 = perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)

    import numpy  # already loaded by the package: no import cost here
    import scipy

    result.update(
        wall_s=t1 - t0,
        cpu_s=(after.ru_utime - before.ru_utime)
        + (after.ru_stime - before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
        versions={"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__})
    if rec is not None:
        result["trace"] = rec.summary(threading.get_ident(), t1 - t0)
    if out.is_dir():
        result["digest"], result["bytes_written"] = digest_dir(out)
        result.update(read_rows(out))
        result["curves"] = len(list(out.glob("transform_u*.csv")))
        if work.command == "transform":
            n_grid = round(doc["grid"]["t_max"] / doc["grid"]["dt"]) + 1
            result["problems"] = check_transform_csv(
                out, float(config.params.beta[1, 1]), n_grid)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
