"""Helpers for bench/run.py: order statistics, seeded op order, output
digests, child processes with their own resource usage, the timed pass
loop, and a tracer that wraps the library's public functions from
outside the package.

Nothing here imports mckay; run.py hands the modules in.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field

TAIL_BEYOND = 10


# -- order statistics --------------------------------------------------

def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: the smallest sample with at least
    a share q of all samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    # round first: 1 - 10/63 times 63 is 53.000000000000007 in floats
    index = max(0, math.ceil(round(q * len(ordered), 9)) - 1)
    return ordered[index]


def tail_quantile(min_samples: int) -> float:
    """The highest quantile that leaves TAIL_BEYOND samples beyond it in
    a run of min_samples samples.  A workload fixes min_samples (ops per
    pass times its minimum pass count), so the quantile does not move
    when a faster program fits more passes into a run."""
    if min_samples <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples")
    return 1 - TAIL_BEYOND / min_samples


def latency_summary(samples, min_samples: int) -> tuple[float, float]:
    """(median, tail) of samples; see tail_quantile."""
    if len(samples) < min_samples:
        raise ValueError(f"{len(samples)} samples, fewer than {min_samples}")
    return (nearest_rank(samples, 0.5),
            nearest_rank(samples, tail_quantile(min_samples)))


# -- seeded op order ---------------------------------------------------

def permuted(items, rng) -> list:
    """A copy of items in an order drawn from rng; the multiset is kept."""
    out = list(items)
    rng.shuffle(out)
    return out


# -- output digests ----------------------------------------------------

def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_mismatch(label: str, data, expected: dict) -> str | None:
    """None when data hashes to the digest pinned for label, otherwise
    the reason it does not."""
    want = expected.get(label)
    if want is None:
        return f"no digest pinned for {label!r}"
    got = sha256_hex(data)
    if got != want:
        return f"{label}: sha256 {got[:12]} differs from pinned {want[:12]}"
    return None


# -- child processes ---------------------------------------------------

@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


def run_child(argv, env, cwd, scratch, timeout: float = 120.0) -> ChildResult:
    """Run argv to completion, timing it from spawn to reap and reading
    the child's own peak RSS from wait4.  Its stderr goes to a file in
    scratch, so a chatty child never blocks on a full pipe while stdout
    is drained.  A child that outlives timeout is killed and reaped."""
    with open(os.devnull, "rb") as stdin, \
            tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(proc.returncode, out, err.read(), seconds,
                           usage.ru_maxrss)


# -- timed passes ------------------------------------------------------

@dataclass
class Op:
    """One call or one process.  run() returns None when the output is
    right and a reason otherwise; an exception also counts as a failure."""

    label: str
    run: object


@dataclass
class PassResult:
    seconds: float
    op_seconds: dict = field(default_factory=dict)  # label -> seconds
    failures: list = field(default_factory=list)
    # label -> reference samples taken just before and just after the op
    reference_seconds: dict = field(default_factory=dict)


def reference_loop() -> float:
    """Seconds for a fixed stretch of pure-Python integer work that calls
    no mckay code and allocates nothing the cyclic GC tracks: how fast
    this machine runs the interpreter at the moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


REFERENCE_SAMPLES = 4


def run_pass(ops, reference=None) -> PassResult:
    """Run the ops in order.  With a reference, REFERENCE_SAMPLES of it
    are timed before the first op and after every op, outside the ops'
    times, and each op keeps the samples on both sides of it."""
    result = PassResult(0.0)
    sample = lambda: [reference() for _ in range(REFERENCE_SAMPLES)]
    before = sample() if reference is not None else None
    for op in ops:
        t0 = time.perf_counter()
        try:
            problem = op.run()
        except Exception as exc:  # an op that raises is a failed op
            problem = f"{type(exc).__name__}: {exc}"
        spent = time.perf_counter() - t0
        result.op_seconds[op.label] = spent
        result.seconds += spent
        if problem is not None:
            result.failures.append(f"{op.label}: {problem}")
        if reference is not None:
            after = sample()
            result.reference_seconds[op.label] = before + after
            before = after
    return result


def normalised(seconds: float, reference_samples, nominal: float) -> float:
    """seconds rescaled to a machine on which the reference takes nominal
    seconds, using the reference's median over samples taken alongside:
    the machine's speed drifts over seconds, so the nearest samples say
    best how fast it ran while the op did."""
    return seconds * nominal / median(reference_samples)


def op_medians(op_seconds) -> dict:
    """Each op's median time over a list of {label: seconds}, one per
    pass.  Every op is deterministic work run once per pass, so its
    median is its time with the machine's sample-to-sample noise taken
    out; the end-to-end figures are built from these."""
    return {label: median(p[label] for p in op_seconds)
            for label in op_seconds[0]}


def repeat_passes(one_pass, seconds: float, min_passes: int) -> list:
    """Call one_pass() at least min_passes times, then again while the
    next pass is expected to end within seconds of the start."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - t0
        if len(results) >= min_passes and \
                time.perf_counter() - start + last > seconds:
            return results


# -- tracing -----------------------------------------------------------

@dataclass
class Span:
    name: str
    layer: str
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_seconds: float = 0.0
    sizes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass(frozen=True)
class Target:
    """A public function to trace: module.attr, or module.cls.attr for a
    method.  The layer is the part of name before the first dot, which is
    the module.  sizes(args, kwargs, result) gives the span's counts."""

    module: str
    attr: str
    name: str
    cls: str | None = None
    sizes: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


class Tracer:
    """Records spans (name, start, end, parent, sizes) around calls into
    the traced functions.  install() rebinds every reference to a target
    in the given modules, including names imported with `from x import
    f`, and uninstall() puts the originals back."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list = []

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(target.name, target.layer, parent)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_seconds += span.seconds
                self.spans.append(span)
            if target.sizes is not None:
                span.sizes = target.sizes(args, kwargs, result)
            return result
        return traced

    def install(self, modules: dict) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            home = modules[target.module]
            if target.cls is not None:
                owner = getattr(home, target.cls)
                original = owner.__dict__[target.attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(target, original.__func__))
                else:
                    wrapped = self._wrap(target, original)
                setattr(owner, target.attr, wrapped)
                self._undo.append((owner, target.attr, original))
                continue
            original = getattr(home, target.attr)
            wrapped = self._wrap(target, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def outermost(spans, name: str) -> list[Span]:
    """Spans of name not nested inside another span of the same name."""
    def nested(span):
        parent = span.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False
    return [s for s in spans if s.name == name and not nested(s)]
