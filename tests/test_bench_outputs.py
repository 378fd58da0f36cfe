"""The ``deform``, ``mirror`` and ``grassmann`` benchmark jobs reproduce their
recorded digests in-process.

Each job runs through ``altfrob.cli.main`` (the ``deform`` jobs in the
directory the set-up script writes their inputs to), and the SHA-256 of its
stdout and of every ``--out`` file must equal the entry in
``bench/digests.json``, so a byte drift in ``hm``, ``verify``, ``gw``,
``mirror`` or ``grassmann`` fails here and not only in the benchmark.  The
job lists are the benchmark's own, read from ``bench/run.py``.
"""

import hashlib
import importlib.util
import json
import runpy
import sys
from pathlib import Path

import pytest

from altfrob import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_jobs(monkeypatch, workload):
    """The benchmark's smoke and then full jobs of a workload, and its recorded digests."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling tracer.py
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    full, smoke = run.WORKLOADS[workload]
    return smoke + full, json.loads((BENCH / "digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_deform_jobs_match_the_bench_digests(tmp_path, monkeypatch, capsys):
    jobs, digests = bench_jobs(monkeypatch, "deform")
    assert len(jobs) == 6
    monkeypatch.setattr(sys, "argv", ["setup_inputs.py", "deform", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(BENCH / "setup_inputs.py"), run_name="__main__")
    assert done.value.code == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for job in jobs:  # smoke first: each verify reads the file its hm wrote
        assert cli.main(list(job.argv)) == 0, job.name
        got = {"stdout": sha256(capsys.readouterr().out.encode())}
        got.update((name, sha256((tmp_path / name).read_bytes())) for name in job.outs)
        assert got == digests[f"deform/{job.name}"], job.name


def test_mirror_jobs_match_the_bench_digests(monkeypatch, capsys):
    jobs, digests = bench_jobs(monkeypatch, "mirror")
    assert len(jobs) == 3
    capsys.readouterr()
    for job in jobs:
        assert cli.main(list(job.argv)) == 0, job.name
        got = {"stdout": sha256(capsys.readouterr().out.encode())}
        assert got == digests[f"mirror/{job.name}"], job.name


def test_grassmann_jobs_match_the_bench_digests(monkeypatch, capsys):
    jobs, digests = bench_jobs(monkeypatch, "grassmann")
    assert len(jobs) == 3
    capsys.readouterr()
    for job in jobs:  # the recorded digests are those of seed 0
        argv = [arg.replace("{seed}", "0") for arg in job.argv]
        assert cli.main(argv) == 0, job.name
        got = {"stdout": sha256(capsys.readouterr().out.encode())}
        assert got == digests[f"grassmann/{job.name}"], job.name
