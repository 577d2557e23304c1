"""The forked mask helper of rng.mask_helper: its lifetime and its bits.

Commands run through cli.main in a fresh interpreter, so that the only
children it can find are its own helpers. The helper is allowed there even on
a one-CPU host and for a small schedule, and os.fork is counted, so each test
knows what the helper did.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import semireg.rng as rng_module
from semireg.rng import Rng, mask_helper, sample_dropout_mask
from test_fingerprint import QUICK_SHA256

ROOT = Path(__file__).resolve().parents[1]
QUICK = ROOT / "configs" / "quick.json"

PRELUDE = f"""
import fcntl, hashlib, json, os, signal, sys, time
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import semireg.cli as cli
import semireg.rng as rng

rng._can_fork = lambda: True
rng._HELPER_MIN_WORDS = 0
forks = []
_fork = os.fork

def fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = fork
out = sys.argv[1]

def train(config, name):
    return cli.main(["train", "--config", config, "--out", os.path.join(out, name)])

def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True

def digests(name):
    folder = os.path.join(out, name)
    return {{f: hashlib.sha256(open(os.path.join(folder, f), "rb").read()).hexdigest()
            for f in sorted(os.listdir(folder))}}
"""


def _run(out_dir, body: str, *args: str) -> dict:
    # the last stdout line of PRELUDE + body run with `out_dir` and `args`
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body, str(out_dir), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_helper_outlives_its_run(tmp_path):
    config = json.loads(QUICK.read_text(encoding="utf-8"))
    config.update(optimizer="sgd_momentum", learning_rate=1e30)  # diverges at epoch 1
    diverging = tmp_path / "diverging.json"
    diverging.write_text(json.dumps(config), encoding="utf-8")
    report = _run(
        tmp_path,
        f"""
rc_ok = train({str(QUICK)!r}, "ok")
result = {{"rc_ok": rc_ok, "forks_ok": len(forks), "left_ok": children_left()}}
rc_bad = train({str(diverging)!r}, "bad")
result.update(rc_bad=rc_bad, forks=len(forks), left_bad=children_left())
print(json.dumps(result))
""",
    )
    assert report == {
        "rc_ok": 0, "forks_ok": 1, "left_ok": False, "rc_bad": 3, "forks": 2, "left_bad": False
    }


def test_every_scheduled_block_comes_from_the_helper(tmp_path):
    report = _run(
        tmp_path,
        f"""
enter, take = rng.mask_helper.__enter__, rng.mask_helper.take
scheduled, taken = [], []

def counted_enter(self):
    scheduled.append(len(self._keys))
    return enter(self)

def counted_take(self, key):
    block = take(self, key)
    taken.append(block is not None)
    return block

rng.mask_helper.__enter__, rng.mask_helper.take = counted_enter, counted_take
result = {{}}
for command in ("train", "variance-demo"):
    rc = cli.main([command, "--config", {str(QUICK)!r}, "--out", os.path.join(out, command)])
    result[command] = [rc, scheduled.copy(), taken.count(True), len(taken)]
    scheduled.clear()
    taken.clear()
print(json.dumps(result))
""",
    )
    # 41 validation passes; each variance check (T = 1, 2, 5, 20) makes 60
    # reruns of a single-draw and a T-draw call, each one block on 40 rows
    assert report == {
        "train": [0, [41], 41, 41],
        "variance-demo": [0, [41, 120, 120, 120, 120], 521, 521],
    }


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_killing_the_caller_ends_its_helper(tmp_path):
    body = f"""
def take_then_hang(self, key):
    print(self._pid, flush=True)
    time.sleep(600)

rng.mask_helper.take = take_then_hang
train({str(QUICK)!r}, "q")
"""
    proc = subprocess.Popen(
        [sys.executable, "-c", PRELUDE + body, str(tmp_path)], stdout=subprocess.PIPE, text=True
    )
    try:
        helper = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
    deadline = time.monotonic() + 30
    while _running(helper) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert not _running(helper)  # it left on the EOF of its pipe
    finally:
        if _running(helper):
            os.kill(helper, signal.SIGKILL)


def test_train_without_fork_keeps_the_pins(tmp_path):
    report = _run(
        tmp_path,
        f"""
def refuse():
    raise OSError("fork refused")

os.fork = refuse
rc = train({str(QUICK)!r}, "q")
print(json.dumps({{"rc": rc, "digests": digests("q"), "left": children_left()}}))
""",
    )
    assert report == {"rc": 0, "digests": QUICK_SHA256, "left": False}


def test_train_with_the_helper_killed_keeps_the_pins(tmp_path):
    report = _run(
        tmp_path,
        f"""
take = rng.mask_helper.take
taken = []
held = []

def take_then_kill(self, key):
    if len(taken) == 10:
        os.kill(self._pid, signal.SIGKILL)
        # the most whole blocks the pipe can hold
        held.append(fcntl.fcntl(self._pipe, fcntl.F_GETPIPE_SZ) // ((key[2] * key[3] + 7) // 8))
    block = take(self, key)
    taken.append(block is not None)
    return block

rng.mask_helper.take = take_then_kill
rc = train({str(QUICK)!r}, "q")
print(json.dumps({{"rc": rc, "digests": digests("q"), "taken": taken, "held": held,
                  "left": children_left()}}))
""",
    )
    taken, [held] = report.pop("taken"), report.pop("held")
    assert report == {"rc": 0, "digests": QUICK_SHA256, "left": False}
    # 41 validation passes: the first ten blocks came from the helper, the
    # rest but those already in the pipe at the kill were drawn inline
    assert len(taken) == 41 and taken[:10] == [True] * 10
    assert taken == sorted(taken, reverse=True)
    assert taken.count(False) >= 41 - 10 - held


def test_tracer_sees_the_same_mask_draws_with_and_without_the_helper(tmp_path):
    body = f"""
from tracer import Tracer

if sys.argv[2] == "inline":
    def refuse():
        raise OSError("fork refused")
    os.fork = refuse
tracer = Tracer()
tracer.install()
codes = [cli.main([c, "--config", {str(QUICK)!r}, "--out", os.path.join(out, c)])
         for c in ("train", "variance-demo")]
mask = tracer.names.index("rng.dropout_mask")
qty = [q for n, q in zip(tracer.name_id, tracer.qty) if n == mask]
print(json.dumps({{"codes": codes, "unwrapped": tracer.unwrapped_bindings(),
                  "calls": len(qty), "words": sum(qty), "forks": len(forks)}}))
"""
    reports = {mode: _run(tmp_path / mode, body, mode) for mode in ("helper", "inline")}
    # one helper per training run (train's and variance-demo's) and one per
    # variance check (T = 1, 2, 5, 20)
    assert reports["helper"].pop("forks") == 6 and reports["inline"].pop("forks") == 0
    assert reports["helper"] == reports["inline"]
    assert reports["helper"]["codes"] == [0, 0] and reports["helper"]["unwrapped"] == []


@pytest.fixture
def counted_takes(monkeypatch):
    monkeypatch.setattr(rng_module, "_can_fork", lambda: True)
    monkeypatch.setattr(rng_module, "_HELPER_MIN_WORDS", 0)
    take = rng_module.mask_helper.take
    taken = []

    def counted(self, key):
        block = take(self, key)
        taken.append(block is not None)
        return block

    monkeypatch.setattr(rng_module.mask_helper, "take", counted)
    return taken


def _keys(stream, n, rows, cols, p):
    return [(stream.seed, i * rows * cols, rows, cols, p) for i in range(n)]


def test_an_off_schedule_draw_ends_the_helper(counted_takes):
    stream, reference = Rng(5), Rng(5)
    keys = _keys(stream, 4, 3, 40, 0.1)
    keys[1] = (stream.seed, 121, 3, 40, 0.1)  # one word off
    with mask_helper((stream,), keys):
        helper = stream._helper
        got = [sample_dropout_mask(stream, 3, 40, 0.1) for _ in range(2)]
        assert helper._pipe.closed  # closed at the second draw
        got += [sample_dropout_mask(stream, 3, 40, 0.1) for _ in range(2)]
    assert stream._helper is None
    with pytest.raises(ChildProcessError):  # the helper is gone and reaped
        os.waitpid(helper._pid, os.WNOHANG)
    expected = [sample_dropout_mask(reference, 3, 40, 0.1) for _ in range(4)]
    assert counted_takes == [True, False, False, False]
    assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]
    assert stream.counter == reference.counter
    assert not any(m.flags.writeable for m in got)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_packed_blocks_of_any_size_unpack_to_the_inline_bits(counted_takes, p):
    # rows * cols is not a multiple of 8 except in (5, 23040) and the empty blocks
    shapes = [(3, 5), (1, 1), (4, 0), (2, 13), (5, 23040), (0, 6), (1, 7)]
    stream, reference = Rng(11), Rng(11)
    keys, start = [], 0
    for rows, cols in shapes:
        keys.append((stream.seed, start, rows, cols, p))
        start += rows * cols
    with mask_helper((stream,), keys):
        got = [sample_dropout_mask(stream, rows, cols, p) for rows, cols in shapes]
    expected = [sample_dropout_mask(reference, rows, cols, p) for rows, cols in shapes]
    assert counted_takes == [True] * len(shapes)
    assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]
    assert [m.shape for m in got] == shapes
    assert not any(m.flags.writeable for m in got)
    assert stream.counter == reference.counter


def test_unscheduled_draws_are_inline_and_keep_their_place(counted_takes):
    stream, reference = Rng(8), Rng(8)
    keys = _keys(stream, 3, 2, 16, 0.25)
    with mask_helper((stream,), keys):
        first = sample_dropout_mask(stream, 2, 16, 0.25)
        other = sample_dropout_mask(stream, 1, 7, 0.25)  # moves the stream off the schedule
        rest = [sample_dropout_mask(stream, 2, 16, 0.25) for _ in range(2)]
    expected = [sample_dropout_mask(reference, r, c, 0.25) for r, c in ((2, 16), (1, 7))]
    expected += [sample_dropout_mask(reference, 2, 16, 0.25) for _ in range(2)]
    assert counted_takes == [True, False, False, False]
    got = [first, other, *rest]
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_one_usable_cpu_draws_inline(monkeypatch):
    monkeypatch.setattr(rng_module, "_HELPER_MIN_WORDS", 0)
    monkeypatch.setattr(rng_module.os, "sched_getaffinity", lambda pid: {0})
    stream = Rng(3)
    with mask_helper((stream,), _keys(stream, 2, 2, 8, 0.1)):
        assert stream._helper is None
        mask = sample_dropout_mask(stream, 2, 8, 0.1)
    assert mask.tobytes() == sample_dropout_mask(Rng(3), 2, 8, 0.1).tobytes()
