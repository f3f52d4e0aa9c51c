"""The eval forward's row split (Sequential.forward in gridcast.nn.layers):
the serial loop's bytes, one pool task per block after the first, errors
that reach the caller, and a forked child with a pool of its own."""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gridcast import nn
from gridcast.errors import ShapeError
from gridcast.nn import layers
from gridcast.seeding import seeded_rng

import workloads  # perfbench's: the branches at the benchmark's sizes
from test_nn_training import tiny_branches  # the tier-1 training gate's small pair

BATCHES = (1, 63, 64, 65, 128, 512)
PAIRS = {"bench": workloads.build_branches, "tiny": tiny_branches}


def windows(seed, rows, dtype=np.float64):
    return seeded_rng(seed, "split-x").normal(size=(rows, 24, 13)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("branch", ["cnn", "tr"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_split_forward_gives_the_serial_bytes(monkeypatch, pair, branch, dtype):
    model = PAIRS[pair](101)[branch]
    x = windows(101, max(BATCHES), dtype)
    monkeypatch.setattr(layers, "_WORKERS", 1)
    serial = {n: model.forward(x[:n]) for n in BATCHES}
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(layers, "_WORKERS", workers)
        for n in BATCHES:
            out, want = model.forward(x[:n]), serial[n]
            assert (out.dtype, out.shape) == (want.dtype, want.shape)
            assert out.tobytes() == want.tobytes(), f"{workers} workers, {n} rows"


def test_concurrent_callers_with_more_block_threads_than_cores_get_the_serial_bytes(monkeypatch):
    # three callers share one model and an 8-thread pool on fewer cores, and
    # threads switch every microsecond: each call still finishes with the
    # serial bytes, so no block reads or writes another call's arrays
    model = workloads.build_branches(5)["tr"]
    x = windows(5, 256, np.float32)
    monkeypatch.setattr(layers, "_WORKERS", 1)
    want = model.forward(x).tobytes()
    monkeypatch.setattr(layers, "_WORKERS", 8)
    monkeypatch.setattr(layers, "_pool", ThreadPoolExecutor(7))
    outs = []

    def call():
        outs.extend(model.forward(x).tobytes() for _ in range(4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        layers._pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert outs == [want] * 12


@pytest.fixture
def submits(monkeypatch):
    """The pool's submit calls, counted and passed on."""
    calls, submit = [], layers._pool.submit

    def spy(*args, **kwargs):
        calls.append(args)
        return submit(*args, **kwargs)

    monkeypatch.setattr(layers._pool, "submit", spy)
    return calls


@pytest.mark.parametrize("workers, rows, train, tasks", [
    (2, 64, False, 1),
    (3, 96, False, 2),
    (4, 65, False, 1),  # 65 // 32 = 2 parts
    # 256- and 128-row blocks: their nested chains would split, but stay serial
    (2, 512, False, 1),
    (4, 512, False, 3),
    (4, 63, False, 0),
    (4, 512, True, 0),
])
def test_an_outer_eval_forward_submits_one_task_per_block_after_the_first(
        monkeypatch, submits, workers, rows, train, tasks):
    monkeypatch.setattr(layers, "_WORKERS", workers)
    model = workloads.build_branches(0)["tr"]
    model.forward(windows(0, rows), train=train)
    assert len(submits) == tasks


def test_an_exception_in_a_workers_block_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(layers, "_WORKERS", 2)
    caller = threading.current_thread()

    class FailsOffTheCaller(nn.Layer):
        def forward(self, x, train=False):
            if threading.current_thread() is not caller:
                raise RuntimeError("raised in a worker's block")
            return x

    chain = nn.Sequential([("fails", FailsOffTheCaller())])
    with pytest.raises(RuntimeError, match="raised in a worker's block"):
        chain.forward(np.zeros((64, 3)))
    # the pool still runs the next call's blocks
    model = workloads.build_branches(0)["cnn"]
    x = windows(0, 64)
    split = model.forward(x)
    monkeypatch.setattr(layers, "_WORKERS", 1)
    assert split.tobytes() == model.forward(x).tobytes()


@pytest.mark.parametrize("branch", ["cnn", "tr"])
def test_a_wrongly_shaped_batch_gives_the_serial_error(monkeypatch, branch):
    model = workloads.build_branches(0)[branch]
    x = seeded_rng(0, "split-x").normal(size=(64, 24, 7))  # 7 features, not 13
    messages = []
    for workers in (1, 2):
        monkeypatch.setattr(layers, "_WORKERS", workers)
        with pytest.raises(ShapeError) as raised:
            model.forward(x)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert "(64, 24, 7)" in messages[0]


def test_a_chain_with_a_forward_set_on_a_layer_runs_serially(monkeypatch, submits):
    # perfbench's tracer wraps each leaf's forward on the instance; its span
    # stack is shared, so a traced forward must not run blocks on two threads
    monkeypatch.setattr(layers, "_WORKERS", 2)
    model = workloads.build_branches(0)["tr"]
    x = windows(0, 128)
    want = model.forward(x).tobytes()
    assert len(submits) == 1
    _, leaf = next((path, layer) for path, layer in model.walk() if not layer.sublayers)
    callers = []

    def wrapped(x, train=False):
        callers.append(threading.current_thread())
        return type(leaf).forward(leaf, x, train=train)

    monkeypatch.setattr(leaf, "forward", wrapped, raising=False)
    assert model.forward(x).tobytes() == want
    assert len(submits) == 1
    assert callers == [threading.current_thread()]


def test_workers_are_the_cpus_in_the_affinity_mask(monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs os.sched_getaffinity")
    # BLAS thread settings do not enter the count
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    for cpus in ({0}, {0, 1}, {0, 2, 5}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert layers._split_workers() == len(cpus)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
# Python 3.12 warns that the pool's live thread makes fork unsafe; the
# child's pool is the new one os.register_at_fork made
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_a_forked_child_runs_a_split_forward(monkeypatch):
    monkeypatch.setattr(layers, "_WORKERS", 2)
    model = workloads.build_branches(0)["cnn"]
    x = windows(0, 64)
    want = model.forward(x).tobytes()  # the parent's pool thread is running now
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = int(model.forward(x).tobytes() != want)
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split forward did not finish in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
