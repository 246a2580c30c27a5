"""The forked workers of ``trainer._run_striped``, driven by fake jobs, and
the seeds of ``cli.run_subcommand``, which it runs.

``os.sched_getaffinity`` is patched to give 1, 2 or 3 usable cores, so each
case runs with that many workers whatever the machine has.  After every case
no child process is left, reaped or not.
"""

import json
import os
import time

import pytest

from dplens import cli
from dplens.cli import ConfigError, Table, run_subcommand
from dplens.trainer import _run_striped

SEEDS = [7, 3, 11, 0, 5]


def result_of(job):
    return (job, job * job, 0.1 * job)


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-core")
def cores(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", range(1, 6))
def test_results_match_the_serial_loop(cores, n):
    jobs = SEEDS[:n]
    assert list(_run_striped(result_of, jobs)) == [result_of(j) for j in jobs]


@pytest.mark.parametrize("n", range(1, 6))
def test_each_worker_runs_every_wth_job(cores, n):
    # this process runs jobs[0::W] and child k jobs[k::W]
    pids = list(_run_striped(lambda job: os.getpid(), SEEDS[:n]))
    workers = min(n, cores)
    for i, pid in enumerate(pids):
        assert pid == pids[i % workers]
        assert (pid == os.getpid()) == (i % workers == 0)
    assert len(set(pids)) == workers


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(n)])
def test_an_exception_is_raised_at_its_jobs_turn(cores, n, k, tmp_path):
    # each job logs itself, since a child's memory is its own: no later job
    # of the failing job's stripe runs, as its worker stops there
    jobs = SEEDS[:n]
    log = tmp_path / "ran"

    def run(job):
        with open(log, "a") as f:
            f.write(f"{job}\n")
        if job == jobs[k]:
            raise ConfigError(f"job {job} is refused")
        return result_of(job)

    got = []
    with pytest.raises(ConfigError) as caught:
        for result in _run_striped(run, jobs):
            got.append(result)
    assert type(caught.value) is ConfigError
    assert str(caught.value) == f"job {jobs[k]} is refused"
    assert got == [result_of(j) for j in jobs[:k]]
    ran = [int(job) for job in log.read_text().split()]
    workers = min(n, cores)
    assert jobs[k] in ran and set(jobs[:k]) <= set(ran)
    assert not set(ran) & set(jobs[k + workers::workers])


@pytest.mark.parametrize("k", range(len(SEEDS)))
def test_an_aborted_table_writes_the_serial_runs_files_and_exits_2(
    cores, k, tmp_path, monkeypatch, capsys
):
    # the seed's partial CSV is kept without its plot, and no later seed is
    # written; the serial run is the same config on one core
    cfg = {
        "schema": 1,
        "cases": {"case": {"g_norm_sq": 1.0, "g_h_g": 1.0, "tr_h": 1.0, "tr_h_sigma": 1.0,
                           "sigma": 0.5}},
        "batch_grid": [1.0],
        "seeds": SEEDS,
        "plot": {"columns": ["B", "b_ghg"]},
    }

    def runner(cfg, seed):
        rows = [["case", b, float(b * seed)] + [None] * 8 for b in (1, 2, 3)]
        reason = f"seed {seed} diverged" if seed == SEEDS[k] else None
        return Table(cli.table_columns("sweep-batch", cfg), rows, reason)

    monkeypatch.setitem(cli._RUNNERS, "sweep-batch", runner)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outputs = {}
    for name, n in (("serial", 1), ("workers", cores)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
        out = tmp_path / name
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(out)]) == 2
        assert f"numerical error: seed {SEEDS[k]} diverged" in capsys.readouterr().err
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["workers"] == outputs["serial"]
    assert len(outputs["serial"]) == 2 * k + 1


@pytest.mark.parametrize("cores", [2, 3], indirect=True)
def test_a_child_that_dies_is_an_error_naming_its_job(cores):
    parent = os.getpid()
    index = 1 + cores  # child 1's second job
    jobs = SEEDS

    def run(job):
        if job == jobs[index] and os.getpid() != parent:
            os._exit(3)
        return result_of(job)

    got = []
    message = f"the worker for job {jobs[index]} exited with code 3 before sending its result"
    with pytest.raises(ChildProcessError, match=f"^{message}$"):
        for result in _run_striped(run, jobs):
            got.append(result)
    assert got == [result_of(j) for j in jobs[:index]]


@pytest.mark.parametrize("cores", [2, 3], indirect=True)
def test_an_error_in_this_process_kills_the_busy_children(cores):
    def run(job):
        if job == SEEDS[0]:
            raise FloatingPointError("first job diverged")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(FloatingPointError, match="first job diverged"):
        list(_run_striped(run, SEEDS))
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("cores", [2, 3], indirect=True)
def test_a_call_inside_a_child_forks_nothing(cores):
    # each job runs three jobs of its own: the caller's on every worker, a
    # child's serially on itself, so killing a child ends all of its work
    def pids(job):
        return os.getpid(), list(_run_striped(lambda inner: os.getpid(), range(3)))

    outer = list(_run_striped(pids, SEEDS))
    assert len({pid for pid, _ in outer}) == cores
    for pid, inner in outer:
        if pid == os.getpid():
            assert inner[0] == pid and len(set(inner)) == cores
        else:
            assert inner == [pid] * 3


def test_without_sched_getaffinity_nothing_is_forked(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert list(_run_striped(lambda job: os.getpid(), SEEDS)) == [os.getpid()] * len(SEEDS)
