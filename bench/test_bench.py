"""Self-tests of the benchmark, on the smoke-size jobs (seconds each).

    python3 -m unittest bench/test_bench.py      (from the repository root)

They exercise the digest gate, the traced run and the metric names and
units that ``bench/run.py`` prints, against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_work" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Run the benchmark; return its exit code and its result line, if any."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestBench(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        code, res = bench("--workload", "grassmann", "--seed", "5", "--trace", "0", "--smoke")
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual({m["name"]: m["unit"] for m in spec()["end_to_end"]},
                         {k: v["unit"] for k, v in res["metrics"].items()})
        self.assertEqual(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_traced_run_reports_every_layer_with_the_untraced_outputs(self):
        code, res = bench("--workload", "mirror", "--seed", "5", "--trace", "1", "--smoke")
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])
        self.assertEqual({m["name"]: m["unit"] for m in spec()["per_layer"]},
                         {k: v["unit"] for k, v in res["metrics"].items()})
        values = {k: v["value"] for k, v in res["metrics"].items()}
        # one lattice computed, then served from the cache for wedge 2
        self.assertEqual(values["mirror.brieskorn_cache.misses"], 1)
        self.assertEqual(values["mirror.brieskorn_cache.hits"], 1)
        self.assertEqual(values["grassmann.schur_poly.calls"], 0)
        self.assertEqual(values["rings.series_mul.calls"], 0)
        doc = json.loads((ROOT / ".bench_work" / "results"
                          / "BENCH_mirror-seed5-trace1-smoke.json").read_text())
        self.assertTrue(doc["same_outputs_traced_and_untraced"])
        kinds = {p["traced"] for p in doc["passes"]}
        self.assertEqual(kinds, {False, True})

    def test_wrong_digest_fails_the_job_and_keeps_the_sample(self):
        digests = json.loads((ROOT / "bench" / "digests.json").read_text())
        digests["deform/smoke-hm-p1-o3"]["ext1.json"] = "0" * 64
        SCRATCH.mkdir(parents=True, exist_ok=True)
        bad = SCRATCH / "bad-digests.json"
        bad.write_text(json.dumps(digests))
        code, res = bench("--workload", "deform", "--seed", "5", "--trace", "0", "--smoke",
                          "--digests", str(bad))
        self.assertEqual(code, 1)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["ok_frac"]["value"], 1.0)
        self.assertGreater(res["metrics"]["wall_s"]["value"], 0)

    def test_without_the_program_it_fails_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res = bench("--workload", "grassmann", "--seed", "5", "--trace", "0",
                          cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main()
