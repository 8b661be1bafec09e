#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

From the root of a source checkout.  It
  1. runs every workload once at ``--size tiny``, untraced and traced, and
     asserts that the last stdout line is the result object and carries
     every metric BENCHMARK.json names, each with its unit;
  2. asserts that a corrupted CLI report, a wrong round trip and a wrong
     audit verdict each trip the correctness gate;
  3. asserts that, in a directory holding only BENCHMARK.json and the
     benchmark's files, the benchmark exits non-zero without a result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (perfbench/run.py)


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_tiny(workload, trace)
            check(proc.returncode == 0, f"{workload} trace={trace}: rc {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{workload} trace={trace}: not correct")
            check(result["attempted"] >= 1, f"{workload}: nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{workload} trace={trace}: a metric value is not a number")


class _FlippedReport:
    """An audit report whose every verdict is inverted."""

    def __init__(self, report) -> None:
        self.report = report

    def to_json(self) -> str:
        entries = json.loads(self.report.to_json())
        for e in entries:
            e["verdict"] = "FAIL" if e["verdict"] == "PASS" else "PASS"
        return json.dumps(entries)


def check_gate() -> None:
    program = run.import_program()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    size = run.SIZES["tiny"]

    def corrupting_main(argv):
        rc = program.cli.main(argv)
        with open(argv[argv.index("--out") + 1], "a", encoding="utf-8") as fh:
            fh.write(" ")
        return rc

    for name in ("audit-grid", "tables-verify"):
        workload = run.WORKLOADS[name](program, size, 3, expected)
        check(not workload.run_pass(None).wrong, f"{name}: clean pass flagged wrong")
        workload.fa = SimpleNamespace(cli=SimpleNamespace(main=corrupting_main),
                                      transforms=program.transforms)
        check(workload.run_pass(None).wrong, f"{name}: corrupted report passed the gate")

    workload = run.WORKLOADS["tables-verify"](program, size, 3, expected)
    workload.fa = SimpleNamespace(cli=program.cli, transforms=SimpleNamespace(
        binomial_transform=program.transforms.binomial_transform,
        inverse_transform=lambda b: program.Seq((1,) + tuple(b)[1:])))
    check(workload.run_pass(None).wrong, "tables-verify: wrong round trip passed the gate")

    workload = run.WORKLOADS["audit-deep"](program, size, 3, expected)
    check(not workload.run_pass(None).wrong, "audit-deep: clean pass flagged wrong")
    identities = program.identities
    workload.fa = SimpleNamespace(identities=SimpleNamespace(
        IdentityFamily=identities.IdentityFamily,
        audit=lambda *a: _FlippedReport(identities.audit(*a))))
    result = workload.run_pass(None)
    check(len(result.wrong) >= result.attempted - result.failed > 0,
          "audit-deep: a wrong verdict passed the gate")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_tiny("audit-grid", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: benchmark exited 0")
    check("metrics" not in proc.stdout, "bare directory: benchmark printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_gate()
    check_bare_directory()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
