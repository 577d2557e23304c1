"""The forked mask helper of rng.mask_helper: its lifetime and its bits.

Commands run through cli.main in a fresh interpreter, so that the only
children it can find are its own helpers. The helper is allowed there even on
a one-CPU host and for a small schedule, and os.fork is counted, so each test
knows what the helper did. A command forks at most one helper per seed.
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
QUICK_CONFIG = json.loads(QUICK.read_text(encoding="utf-8"))

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


def _config(tmp_path, name: str, **changes) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**QUICK_CONFIG, **changes}), encoding="utf-8")
    return str(path)


def test_no_helper_outlives_its_command(tmp_path):
    # diverges at epoch 1
    diverging = _config(tmp_path, "diverging", optimizer="sgd_momentum", learning_rate=1e30)
    one_seed = _config(tmp_path, "one_seed", seeds=[0])
    report = _run(
        tmp_path,
        f"""
commands = {{
    "ok": ["train", "--config", {str(QUICK)!r}],
    "bad": ["train", "--config", {diverging!r}],
    "ablate": ["ablate", "--config", {one_seed!r}],
    "variance": ["variance-demo", "--config", {str(QUICK)!r}],
    "evaluate": ["evaluate", "--config", {str(QUICK)!r}, "--checkpoints", os.path.join(out, "ok")],
}}
result = {{}}
for name, argv in commands.items():
    before = len(forks)
    rc = cli.main([*argv, "--out", os.path.join(out, name)])
    result[name] = [rc, len(forks) - before, children_left()]
print(json.dumps(result))
""",
    )
    # [exit code, helpers forked, a child left]
    assert report == {
        "ok": [0, 1, False],
        "bad": [3, 1, False],
        "ablate": [0, 1, False],
        "variance": [0, 1, False],
        "evaluate": [0, 0, False],
    }


def test_every_scheduled_block_comes_from_the_helper(tmp_path):
    one_seed = _config(tmp_path, "one_seed", seeds=[0])
    report = _run(
        tmp_path,
        f"""
enter, take = rng.mask_helper.__enter__, rng.mask_helper.take
scheduled, served = [], []

def counted_enter(self):
    enter(self)
    if rng.mask_helper.active is self:  # the outermost one: the others do nothing
        scheduled.append(list(self._keys))
    return self

def counted_take(self, key):
    block = take(self, key)
    if block is not None:
        served.append(key)
    return block

rng.mask_helper.__enter__, rng.mask_helper.take = counted_enter, counted_take
result = {{}}
for command, config in (("train", {str(QUICK)!r}), ("ablate", {one_seed!r}),
                        ("variance-demo", {str(QUICK)!r})):
    rc = cli.main([command, "--config", config, "--out", os.path.join(out, command)])
    in_order = served == [key for keys in scheduled for key in keys]
    result[command] = [rc, [len(keys) for keys in scheduled], in_order, len(forks)]
    scheduled.clear()
    served.clear()
    forks.clear()
print(json.dumps(result))
""",
    )
    # 41 validation passes per run (4 runs in ablate, one per variant); each
    # variance check (T = 1, 2, 5, 20) makes 60 reruns of a single-draw and a
    # T-draw call, each one block on 40 rows. Each command has one schedule,
    # and the helper serves every key of it, in order.
    assert report == {
        "train": [0, [41], True, 1],
        "ablate": [0, [4 * 41], True, 1],
        "variance-demo": [0, [41 + 4 * 120], True, 1],
    }


@pytest.mark.parametrize("seeds", [[0], [0, 1]])
def test_a_diverging_cell_draws_only_the_next_cells_first_passes_inline(tmp_path, seeds):
    config = _config(tmp_path, "seeds", seeds=seeds)
    body = f"""
import semireg.training as training

if sys.argv[2] == "inline":
    def refuse():
        raise OSError("fork refused")
    os.fork = refuse
step, take = training.train_step, rng.mask_helper.take
steps, taken = [], []
# every cell of a seed validates epoch e on the stream split("val:e") of its seed
epochs = {{rng.Rng(s).split(f"val:{{e}}").seed: [s, e]
          for s in {seeds!r} for e in range({QUICK_CONFIG["epochs"]} + 1)}}

def failing_step(state, labeled, unlabeled, config, **kwargs):
    if config.variant == "baseline_con":
        steps.append(None)
        if len(steps) in (13, 14):  # both steps of seed 0's epoch 7 (26 labeled rows, batch 16)
            raise training.NonFiniteLossError("injected", {{}})
    return step(state, labeled, unlabeled, config, **kwargs)

def counted_take(self, key):
    block = take(self, key)
    taken.append([block is not None, epochs.get(key[0])])
    return block

training.train_step, rng.mask_helper.take = failing_step, counted_take
rc = cli.main(["ablate", "--config", {config!r}, "--out", os.path.join(out, "ablate")])
with open(os.path.join(out, "ablate", "ablation_cells.json")) as fh:
    cells = json.load(fh)["cells"]
print(json.dumps({{"rc": rc, "digests": digests("ablate"), "forks": len(forks),
                  "failed": [c["variant"] for c in cells if c["failed"]], "taken": taken,
                  "left": children_left()}}))
"""
    reports = {mode: _run(tmp_path / mode, body, mode) for mode in ("helper", "inline")}
    helper, inline = reports["helper"], reports["inline"]
    assert helper["rc"] == inline["rc"] == 0
    assert helper["failed"] == inline["failed"] == ["baseline_con"]
    assert helper["digests"] == inline["digests"]
    assert (helper["forks"], inline["forks"]) == (len(seeds), 0)  # one helper per seed
    assert not helper["left"] and not inline["left"]
    assert not any(served for served, _ in inline["taken"])  # nothing forked, nothing served
    # no draw but a validation pass's is ever served
    assert not any(served for served, epoch in helper["taken"] if epoch is None)
    passes = [t for t in helper["taken"] if t[1] is not None]
    # Seed 0: baseline's 41 passes and baseline_con's 7 before it diverged
    # were served. The head of the pipe then stayed at baseline_con's epoch
    # 7, so baseline_ens drew epochs 0-6 inline and took epochs 7-40 from
    # baseline_con's blocks, which have the same keys; full took
    # baseline_ens's 41 blocks. Seed 1 has a helper of its own, which serves
    # all of its four cells' 164 passes.
    later = 4 * 41 * (len(seeds) - 1)
    assert [seed for _, (seed, _) in passes] == [0] * 130 + [1] * later
    assert [served for served, _ in passes] == [True] * 48 + [False] * 7 + [True] * (75 + later)
    assert [epoch for _, (_, epoch) in passes[48:55]] == list(range(7))


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
    if key not in self._keys:
        return take(self, key)
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
    # one helper per command
    assert reports["helper"].pop("forks") == 2 and reports["inline"].pop("forks") == 0
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


def test_off_schedule_draws_are_inline_and_the_pipe_keeps_its_place(counted_takes):
    stream, reference = Rng(5), Rng(5)
    keys = _keys(stream, 3, 3, 40, 0.1)
    skewed = Rng(5)
    skewed.raw(1)  # the scheduled seed, one word off every scheduled start
    with mask_helper(keys) as helper:
        assert mask_helper.active is helper
        got = [sample_dropout_mask(stream, 3, 40, 0.1)]
        off = sample_dropout_mask(skewed, 3, 40, 0.1)
        assert not helper._pipe.closed and helper._next == keys[1]
        got += [sample_dropout_mask(stream, 3, 40, 0.1) for _ in range(2)]
        assert helper._next is None  # past the last key
    assert mask_helper.active is None
    with pytest.raises(ChildProcessError):  # the helper is gone and reaped
        os.waitpid(helper._pid, os.WNOHANG)
    assert counted_takes == [True, False, True, True]
    expected = [sample_dropout_mask(reference, 3, 40, 0.1) for _ in range(3)]
    assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]
    skewed_reference = Rng(5)
    skewed_reference.raw(1)
    assert off.tobytes() == sample_dropout_mask(skewed_reference, 3, 40, 0.1).tobytes()
    assert (stream.counter, skewed.counter) == (3 * 120, 1 + 120)
    assert not any(m.flags.writeable for m in got + [off])


def test_an_unscheduled_stream_draws_inline_and_leaves_the_pipe_open(counted_takes):
    stream, other, reference = Rng(9), Rng(10), Rng(9)
    keys = _keys(stream, 2, 3, 16, 0.1)
    with mask_helper(keys) as helper:
        first = sample_dropout_mask(stream, 3, 16, 0.1)
        inline = sample_dropout_mask(other, 5, 16, 0.1)
        assert not helper._pipe.closed and helper._next == keys[1]
        second = sample_dropout_mask(stream, 3, 16, 0.1)
    assert counted_takes == [True, False, True]  # the other stream's key is not at the head
    expected = [sample_dropout_mask(reference, 3, 16, 0.1) for _ in range(2)]
    assert [first.tobytes(), second.tobytes()] == [m.tobytes() for m in expected]
    assert inline.tobytes() == sample_dropout_mask(Rng(10), 5, 16, 0.1).tobytes()
    assert other.counter == 5 * 16


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_packed_blocks_of_any_size_unpack_to_the_inline_bits(counted_takes, p):
    # rows * cols is not a multiple of 8 except in (5, 23040) and the empty blocks
    shapes = [(3, 5), (1, 1), (4, 0), (2, 13), (5, 23040), (0, 6), (1, 7)]
    stream, reference = Rng(11), Rng(11)
    keys, start = [], 0
    for rows, cols in shapes:
        keys.append((stream.seed, start, rows, cols, p))
        start += rows * cols
    with mask_helper(keys):
        got = [sample_dropout_mask(stream, rows, cols, p) for rows, cols in shapes]
    expected = [sample_dropout_mask(reference, rows, cols, p) for rows, cols in shapes]
    assert counted_takes == [True] * len(shapes)
    assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]
    assert [m.shape for m in got] == shapes
    assert not any(m.flags.writeable for m in got)
    assert stream.counter == reference.counter


def test_a_served_block_of_several_tiles_equals_its_inline_draw(counted_takes):
    # the helper computes a block whole; an inline draw fills it tile by tile
    tile = rng_module._TILE_WORDS
    shapes = [(1, 2 * tile + 5), (7, 2 * (tile // 7) + 3), (tile + 1, 2)]
    stream, reference = Rng(12), Rng(12)
    keys, start = [], 0
    for rows, cols in shapes:
        assert rows * cols > tile
        keys.append((stream.seed, start, rows, cols, 0.1))
        start += rows * cols
    with mask_helper(keys):
        got = [sample_dropout_mask(stream, rows, cols, 0.1) for rows, cols in shapes]
    expected = [sample_dropout_mask(reference, rows, cols, 0.1) for rows, cols in shapes]
    assert counted_takes == [True] * len(shapes)
    assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]
    assert stream.counter == reference.counter


def test_unscheduled_draws_are_inline_and_keep_their_place(counted_takes):
    stream, reference = Rng(8), Rng(8)
    keys = _keys(stream, 3, 2, 16, 0.25)
    with mask_helper(keys):
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
    with mask_helper(_keys(stream, 2, 2, 8, 0.1)) as helper:
        assert helper._pipe is None and helper._next is None  # no helper forked
        mask = sample_dropout_mask(stream, 2, 8, 0.1)
    assert mask.tobytes() == sample_dropout_mask(Rng(3), 2, 8, 0.1).tobytes()


def test_a_nested_mask_helper_forks_nothing(counted_takes, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(rng_module.os, "fork", counted_fork)
    outer, inner, reference = Rng(4), Rng(6), Rng(4)
    keys = _keys(outer, 3, 2, 24, 0.2)
    with mask_helper(keys) as helper:
        with mask_helper(_keys(inner, 2, 2, 24, 0.2)) as nested:
            assert mask_helper.active is helper and nested._pipe is None
            got = [sample_dropout_mask(outer, 2, 24, 0.2) for _ in range(2)]
            inline = sample_dropout_mask(inner, 2, 24, 0.2)  # not in the active schedule
        assert mask_helper.active is helper and not helper._pipe.closed
        got.append(sample_dropout_mask(outer, 2, 24, 0.2))
    assert mask_helper.active is None and len(forks) == 1
    assert counted_takes == [True, True, False, True]  # the inner stream drew inline
    expected = [sample_dropout_mask(reference, 2, 24, 0.2) for _ in range(3)]
    assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]
    assert inline.tobytes() == sample_dropout_mask(Rng(6), 2, 24, 0.2).tobytes()
