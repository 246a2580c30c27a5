"""The seed workers of ``cli._seed_tables``, driven by fake runners.

``os.sched_getaffinity`` is patched to give 1, 2 or 3 usable cores, so each
case runs with that many workers whatever the machine has.  After every case
no child process is left, reaped or not.
"""

import json
import os
import time

import pytest

from dplens import cli
from dplens.cli import ConfigError, Table, _seed_tables, run_subcommand

SEEDS = [7, 3, 11, 0, 5]


def table_of(seed):
    return Table(("seed", "value"), [[seed, seed * seed], [seed, 0.1 * seed]])


def fake_runner(cfg, seed):
    return table_of(seed)


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-core")
def cores(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", range(1, 6))
def test_tables_match_the_serial_loop(cores, n):
    seeds = SEEDS[:n]
    assert list(_seed_tables(fake_runner, {}, seeds)) == [table_of(s) for s in seeds]


@pytest.mark.parametrize("n", range(1, 6))
def test_each_worker_runs_every_wth_seed(cores, n):
    # this process runs seeds[0::W] and child k seeds[k::W]
    def runner(cfg, seed):
        return Table(("pid",), [[os.getpid()]])

    pids = [table.rows[0][0] for table in _seed_tables(runner, {}, SEEDS[:n])]
    workers = min(n, cores)
    for i, pid in enumerate(pids):
        assert pid == pids[i % workers]
        assert (pid == os.getpid()) == (i % workers == 0)
    assert len(set(pids)) == workers


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(n)])
def test_an_exception_is_raised_at_its_seeds_turn(cores, n, k):
    seeds = SEEDS[:n]

    def runner(cfg, seed):
        if seed == seeds[k]:
            raise ConfigError(f"seed {seed} is refused")
        return table_of(seed)

    got = []
    with pytest.raises(ConfigError) as caught:
        for table in _seed_tables(runner, {}, seeds):
            got.append(table)
    assert type(caught.value) is ConfigError
    assert str(caught.value) == f"seed {seeds[k]} is refused"
    assert got == [table_of(s) for s in seeds[:k]]


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
def test_a_child_that_dies_is_an_error_naming_its_seed(cores):
    parent = os.getpid()
    index = 1 + cores  # child 1's second seed
    seeds = SEEDS

    def runner(cfg, seed):
        if seed == seeds[index] and os.getpid() != parent:
            os._exit(3)
        return table_of(seed)

    got = []
    message = f"the worker for seed {seeds[index]} exited with code 3 before sending its table"
    with pytest.raises(ChildProcessError, match=f"^{message}$"):
        for table in _seed_tables(runner, {}, seeds):
            got.append(table)
    assert got == [table_of(s) for s in seeds[:index]]


@pytest.mark.parametrize("cores", [2, 3], indirect=True)
def test_an_error_in_this_process_kills_the_busy_children(cores):
    def runner(cfg, seed):
        if seed == SEEDS[0]:
            raise FloatingPointError("first seed diverged")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(FloatingPointError, match="first seed diverged"):
        list(_seed_tables(runner, {}, SEEDS))
    assert time.monotonic() - start < 30


def test_without_sched_getaffinity_nothing_is_forked(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)

    def runner(cfg, seed):
        return Table(("pid",), [[os.getpid()]])

    assert [t.rows for t in _seed_tables(runner, {}, SEEDS)] == [[[os.getpid()]]] * len(SEEDS)
