"""The benchmark's own tests, at a tiny size.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import child
import run
import shims
import workloads

TINY = 0.01


def _sample(name, tmp_path, traced, tag):
    sample = run.run_child({"workload": name, "seed": 3, "scale": TINY,
                            "trace": traced,
                            "out_dir": str(tmp_path / f"{name}-{tag}")})
    sample.update(traced=traced, ref_s=run.reference_s())
    assert not sample.get("error"), sample.get("error")
    return sample


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    plain = _sample(name, tmp_path, False, "plain")
    traced = _sample(name, tmp_path, True, "traced")

    e2e, record = run.summarize(name, 3, False, [plain], TINY)
    assert e2e["correct"], record["problems"]
    assert e2e["attempted"] >= 1
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == \
        run.units("end_to_end")
    assert all(v["value"] > 0 for v in e2e["metrics"].values())

    layer, record = run.summarize(name, 3, True, [plain, traced], TINY)
    assert layer["correct"], record["problems"]
    assert {k: v["unit"] for k, v in layer["metrics"].items()} == \
        run.units("per_layer")
    assert record["layer_shares"]["absent"] == []
    # main-thread self times plus uncovered time make up the traced wall
    shares = record["layer_shares"]
    assert shares["main_thread_accounted_s"] == \
        pytest.approx(shares["wall_s"], rel=1e-9)
    base = record["base_counts"]
    assert layer["metrics"]["noise.paths_generated"]["value"] == base["paths"]
    assert layer["metrics"]["transform.solves"]["value"] == base["solves"]
    json.dumps(layer)  # the result line must be plain JSON


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.spec()["workloads"]] == \
        list(workloads.WORKLOADS)


def test_digest_guard_trips_when_an_artifact_byte_changes(tmp_path):
    name = "limit-ladder"
    plain = _sample(name, tmp_path, False, "plain")
    out = tmp_path / f"{name}-plain"
    assert child.digest_dir(out)[0] == plain["digest"]

    victim = sorted(out.glob("*.json"))[0]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    altered = dict(plain, traced=True, digest=child.digest_dir(out)[0])
    assert altered["digest"] != plain["digest"]

    problems = run.guard(name, [plain, altered],
                         workloads.base_counts(
                             name, workloads.config_doc(name, 3, TINY)))
    assert any("artifact bytes differ" in p for p in problems)
    result, _ = run.summarize(name, 3, False, [plain, altered], TINY)
    assert not result["correct"]


def test_only_far_out_rows_of_sigma_checks_count_as_failed(tmp_path):
    out = tmp_path / "reports"
    out.mkdir()
    rows = [{"passed": True, "error": 0.1, "tolerance": 1.0},
            {"passed": False, "error": 1.5, "tolerance": 1.0},  # chance miss
            {"passed": False, "error": 2.5, "tolerance": 1.0},
            {"passed": False, "error": 0.5, "tolerance": 0.0}]
    (out / "check.json").write_text(json.dumps(
        {"report": {"rows": rows, "details": {}}}))
    sample = dict(child.read_rows(out), status=1, error=None)
    assert (sample["rows"], sample["rows_failed"],
            sample["rows_far_out"]) == (4, 3, 2)

    sigma = workloads.WORKLOADS["generator-1step"]
    plain = workloads.WORKLOADS["limit-ladder"]
    assert sigma.sigma_rows and not plain.sigma_rows
    assert run.failed_operations(sigma, sample, 4) == 2
    assert run.failed_operations(plain, sample, 4) == 3
    for broken in ({"status": 2}, {"error": "Traceback"}):
        assert run.failed_operations(sigma, dict(sample, **broken), 4) == 4


def test_missing_shim_target_reads_absent():
    sys.path.insert(0, str(run.ROOT / "src"))
    import affine_lab.noise
    import affine_lab.sde
    import affine_lab.validate

    original = affine_lab.noise.refine
    rec = shims.Recorder()
    targets = shims.TARGETS + (
        ("affine_lab.sde", "_merged_step_kernel", "sde.kernel.merged", None),
        ("affine_lab.no_such_module", "f", "gone.f", None),
        ("affine_lab.sde", "NoSuchClass.method", "gone.method", None),
    )
    uninstall = shims.install(rec, targets)
    try:
        assert rec.absent == ["affine_lab.sde:_merged_step_kernel",
                              "affine_lab.no_such_module:f",
                              "affine_lab.sde:NoSuchClass.method"]
        # names imported into other modules are rebound too
        for module in (affine_lab, affine_lab.noise, affine_lab.sde,
                       affine_lab.validate):
            assert module.refine is not original
            assert module.refine.__wrapped__ is original
    finally:
        uninstall()
    assert affine_lab.sde.refine is original
    assert affine_lab.validate.refine is original

    summary = rec.summary(main_thread=0, wall=1.0)
    sample = {"trace": summary, "parse_s": 0.001, "bytes_written": 1}
    base = workloads.base_counts(
        "charfn-long", workloads.config_doc("charfn-long", 1, TINY))
    metrics = run.layer_metrics(sample, base)
    assert set(metrics) == set(run.units("per_layer")) - {"trace.overhead_s"}
    assert metrics["sde.kernel.affine_s"] == 0.0
    assert run.layer_shares(sample)["absent"] == rec.absent


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "charfn-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()
