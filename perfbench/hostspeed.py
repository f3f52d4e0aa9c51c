"""Host-speed correction of timed values.

On a shared host the speed this process gets from its CPU drifts by up to
1.7x over seconds to minutes, as other tenants load the same cores; the
process's CPU time drifts with its wall time, so neither can be read as the
program's speed. A fixed reference loop timed right before and right after
the measured work sees the same drift. Each timed value is therefore scaled
by NOMINAL_S[kind] / (mean of the two reference times): it reads as the
time the work would take on a host running the reference in NOMINAL_S. The
reference is the benchmark's own code and never changes, so a change in a
corrected value is a change in the measured program.

The kind of reference matches the measured work: `python` (csv parsing,
float and dict work) for Python-bound code, `numpy` (batched matmul, softmax
and normalisation on attention-sized arrays) for the `nn` workloads.
"""

import csv
import io
import time

import numpy as np

# About each reference's fastest time on a 2-CPU x86-64 host with one BLAS
# thread. Fixed constants: they set the scale of corrected values only.
NOMINAL_S = {"python": 0.020, "numpy": 0.014}

_TEXT = "\n".join(
    f"2024-01-{1 + i % 28:02d}T{i % 24:02d}:00,st{i % 3},{i * 0.37 % 50:.2f},"
    f"{i * 1.3 % 900:.1f},{i % 7}" for i in range(12000))
_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 24, 64))
_W = _rng.standard_normal((64, 64)) / 8.0


def python_reference():
    acc, by_station = 0.0, {}
    for row in csv.reader(io.StringIO(_TEXT)):
        acc += float(row[2]) + float(row[3])
        by_station[row[1]] = by_station.get(row[1], 0) + int(row[4])
    return acc


def numpy_reference():
    out = _X
    for _ in range(6):
        h = out @ _W
        s = h @ h.transpose(0, 2, 1)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        s /= s.sum(axis=-1, keepdims=True)
        o = s @ h
        out = (o - o.mean(axis=-1, keepdims=True)) / np.sqrt(o.var(axis=-1, keepdims=True) + 1e-5)
    return out


REFERENCES = {"python": python_reference, "numpy": numpy_reference}


def reference_s(kind):
    """Wall time of one run of the `kind` reference."""
    fn = REFERENCES[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def factor(kind, before_s, after_s):
    """Scale for a value timed between two reference runs of `kind`."""
    return NOMINAL_S[kind] / ((before_s + after_s) / 2.0)
