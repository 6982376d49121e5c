"""Benchmark of the mckay pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
src/ and installs nothing.  Workloads (why each was chosen is in
NOTES.md):

  catalog   in-process build_group -> character_table -> mckay_quiver ->
            reconstruct_g_dim for 20 groups
  weights   in-process multiplicity windows and strata on D~4, E~6,
            E~7 and E~8 pipelines built in set-up
  cli       one `python -m mckay.cli` process per op, every command once
            with a fresh empty cache (cold) and once with a cache filled
            in set-up (warm)

The seed permutes op order only.  Every op's output is checked; an op
that raises or gives a wrong output is counted in `failed`.  The last
line of stdout is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run that wraps the library's public functions from outside.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import harness as h  # noqa: E402

SETUP_REPEATS = 3
# End-to-end times are reported in seconds on a machine where
# harness.reference_loop takes this long (its median on the 2-vCPU,
# 2.1 GHz VM the benchmark was tuned on, Python 3.11).  Each op is
# rescaled by the loop's median over the samples taken just before and
# after it, so the machine's speed drifting by tens of percent over
# seconds to minutes does not read as a change in the program.
REFERENCE_SECONDS = 0.0035
MODULES = ("cyclotomic", "groups", "chartab", "quiver", "roots",
           "highest_weight", "strata", "cache", "cli")
EXPECTED = json.loads((BENCH / "expected.json").read_text())

# -- workload inputs ---------------------------------------------------

# The 15-group acceptance catalog, then larger groups that load chartab
# (r^3 class work) and classification.  cyclic:24 and up are left out:
# classification does not finish (NOTES.md).
CATALOG = ([f"cyclic:{n}" for n in range(2, 9)]
           + [f"binary-dihedral:{m}" for m in range(2, 7)]
           + ["binary-tetrahedral", "binary-octahedral", "binary-icosahedral"]
           + ["cyclic:12", "cyclic:16", "cyclic:18",
              "binary-dihedral:10", "binary-dihedral:16"])

WEIGHT_SPECS = ("binary-dihedral:2", "binary-tetrahedral",
                "binary-octahedral", "binary-icosahedral")
BOX_TYPES = ("E~7", "E~8")
DEPTH = 8
STRATA_N = 12

E8 = "binary-icosahedral"
_E8_L0 = "1,0,0,0,0,0,0,0,0"
COMMANDS = (
    ("group", E8), ("chartab", E8), ("quiver", E8), ("quiver", E8, "--dot"),
    ("roots", E8), ("dimg", E8),
    ("char", E8, "--hw", _E8_L0, "--depth", "4", "--oracle"),
    ("char", E8, "--hw", "1,1,0,0,0,0,0,0,0", "--depth", "6"),
    ("strata", E8, "--n", "240"),
    ("strata", E8, "--n", "12", "--w", "1,1,1,1,1,1,1,1,1"),
    ("fiber", E8, "--v", "1,2,2,3,3,4,4,5,6", "--w", _E8_L0,
     "--v0", "0,0,0,0,0,0,0,0,0", "--lam", "1"),
    ("group", "cyclic:4"), ("chartab", "binary-dihedral:2"),
    ("quiver", "cyclic:3", "--dot"), ("roots", "binary-tetrahedral"),
    ("dimg", "cyclic:5"),
    ("char", "cyclic:2", "--hw", "1,0", "--depth", "4", "--oracle"),
    ("strata", "cyclic:2", "--n", "4"),
    ("strata", "cyclic:2", "--n", "2", "--w", "2,0"),
    ("fiber", "cyclic:2", "--v", "1,1", "--w", "1,0", "--v0", "0,0",
     "--lam", "1"),
    ("drinfeld", "--eigs", "1,1;z4;"),
)
PROBE_COMMANDS = (
    ("dimg", "binary-dihedral:2"),
    ("char", "binary-dihedral:2", "--hw", "1,0,0,0,0", "--depth", "4", "--oracle"),
    ("strata", "binary-dihedral:2", "--n", "12", "--w", "1,1,1,1,1"),
)
CACHED_SPECS = tuple(dict.fromkeys(c[1] for c in COMMANDS if c[0] != "drinfeld"))


def lie_dimension(ade_type: str) -> int:
    """dim g of the finite type under an affine tag, from the formulas."""
    family, rank = ade_type[0], int(ade_type[2:])
    if family == "A":
        return rank * (rank + 2)
    if family == "D":
        return rank * (2 * rank - 1)
    return {6: 78, 7: 133, 8: 248}[rank]


def table_json(table) -> str:
    return json.dumps([[list(v), m] for v, m in table.sorted_items()])


def labels_json(labels) -> str:
    return json.dumps([label.to_json_obj() for label in labels])


def lambda_0(cd) -> tuple[int, ...]:
    return tuple(int(i == cd.trivial_vertex) for i in range(cd.vertex_count))


def second_framing(cd) -> tuple[int, ...]:
    """Lambda_0 + Lambda_k for the first non-trivial vertex k."""
    w = list(lambda_0(cd))
    w[1 if cd.trivial_vertex != 1 else 0] += 1
    return tuple(w)


def weight_cases(cds):
    """(label, function name, framing, window, cd) for every weights op.
    The label keys the pinned digest, which Freudenthal and Weyl-Kac
    share, so each op also checks that the two algorithms agree."""
    for cd in cds:
        for w in (lambda_0(cd), second_framing(cd)):
            label = f"{cd.ade_type} depth {DEPTH} w={w}"
            yield label, "freudenthal", w, DEPTH, cd
            yield label, "weylkac_oracle", w, DEPTH, cd
        if cd.ade_type in BOX_TYPES:
            label = f"{cd.ade_type} box delta w={lambda_0(cd)}"
            yield label, "freudenthal_box", lambda_0(cd), cd.delta, cd
            yield label, "weylkac_box", lambda_0(cd), cd.delta, cd
        yield (f"{cd.ade_type} strata n={STRATA_N} all-ones", "enumerate_strata",
               (1,) * cd.vertex_count, STRATA_N, cd)


# -- the package, loaded from the checkout ------------------------------

def load_mckay() -> dict:
    if not (SRC / "mckay" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mckay package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("mckay")
    modules = {"mckay": package}
    for name in MODULES:
        modules[name] = importlib.import_module(f"mckay.{name}")
    return modules


class Context:
    """What a run shares: the modules, a scratch directory inside the
    checkout, the environment for child interpreters and the seeded rng."""

    def __init__(self, m: dict, scratch: Path, seed: int):
        self.m = m
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.python = sys.executable
        self._fresh = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._fresh += 1
        path = self.scratch / f"{prefix}-{self._fresh}"
        path.mkdir()
        return path

    def env(self, cache_dir) -> dict:
        # Only what the child needs: never the user's cache directory.
        return {"PATH": os.environ.get("PATH", os.defpath),
                "PYTHONPATH": str(SRC), "MCKAY_CACHE": str(cache_dir)}

    def child(self, argv, cache_dir) -> h.ChildResult:
        return h.run_child([self.python, "-s", *argv], self.env(cache_dir), ROOT,
                           self.scratch)

    def cli_child(self, command, cache_dir) -> h.ChildResult:
        return self.child(["-m", "mckay.cli", *command], cache_dir)


def prepare_package(ctx: Context) -> None:
    """Byte-compile the package afresh, then import it in a new
    interpreter: what every child process starts from."""
    empty = ctx.fresh_dir("cache")
    for argv in (["-m", "compileall", "-q", "-f", str(SRC / "mckay")],
                 ["-c", "import mckay.cli"]):
        result = ctx.child(argv, empty)
        if result.returncode != 0:
            raise RuntimeError(f"set-up step {argv} failed: "
                               f"{result.stderr.decode(errors='replace')}")


# -- workloads ---------------------------------------------------------

class Workload:
    name = ""
    min_passes = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.m = ctx.m

    def setup(self) -> None:
        prepare_package(self.ctx)

    def ops(self) -> list:
        raise NotImplementedError

    def traced_ops(self) -> list:
        """The in-process op list the traced run times."""
        return self.ops()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def report(self, typical: dict) -> str:
        return ""


class Catalog(Workload):
    name = "catalog"
    min_passes = 5

    def ops(self):
        return [h.Op(spec, self._pipeline(spec)) for spec in CATALOG]

    def _pipeline(self, text):
        m = self.m

        def run():
            spec = m["groups"].GroupSpec.parse(text)
            group = m["groups"].build_group(spec)
            table = m["chartab"].character_table(group)
            cd = m["quiver"].mckay_quiver(table)
            dim_g = m["roots"].reconstruct_g_dim(cd)
            want = m["quiver"].expected_ade_type(spec)
            if cd.ade_type != want:
                return f"classified {cd.ade_type}, expected {want}"
            if sum(d * d for d in cd.delta) != spec.order:
                return f"sum of delta^2 is not |G| = {spec.order}"
            if dim_g != lie_dimension(want):
                return f"dim g {dim_g}, expected {lie_dimension(want)}"
            return None
        return run


class Weights(Workload):
    name = "weights"
    min_passes = 2

    def setup(self):
        super().setup()
        m = self.m
        self.cds = [m["quiver"].mckay_quiver(m["chartab"].character_table(
            m["groups"].build_group(m["groups"].GroupSpec.parse(text))))
            for text in WEIGHT_SPECS]

    def ops(self):
        return [h.Op(f"{fn} {label}", self._case(label, fn, w, window, cd))
                for label, fn, w, window, cd in weight_cases(self.cds)]

    def _case(self, label, fn, w, window, cd):
        m = self.m
        module = m["strata"] if fn == "enumerate_strata" else m["highest_weight"]

        def run():
            if fn == "enumerate_strata":
                labels = module.enumerate_strata(window, w, cd)
                return h.digest_mismatch(label, labels_json(labels),
                                         EXPECTED["weights"])
            table = getattr(module, fn)(w, cd, window)
            if fn.endswith("_box"):
                if table.multiplicity((0,) * cd.vertex_count) != 1:
                    return "m(0) is not 1"
                if table.multiplicity(cd.delta) != cd.rank:
                    return f"m(delta) = {table.multiplicity(cd.delta)}, " \
                           f"not the rank {cd.rank}"
            return h.digest_mismatch(label, table_json(table), EXPECTED["weights"])
        return run


class Cli(Workload):
    """Each command twice per pass: cold, in a fresh empty cache that the
    run misses, computes and writes; and warm, reading the cache filled
    in set-up."""

    name = "cli"
    min_passes = 3

    def setup(self):
        super().setup()
        self.rss_kb = []
        self.warm_dir = self.ctx.fresh_dir("warm")
        for spec in CACHED_SPECS:
            result = self.ctx.cli_child(("dimg", spec), self.warm_dir)
            if result.returncode != 0:
                raise RuntimeError(f"filling the cache for {spec} failed: "
                                   f"{result.stderr.decode(errors='replace')}")

    def ops(self):
        return self._ops(self._process)

    def traced_ops(self):
        return self._ops(self._in_process)

    def _ops(self, kind):
        return [h.Op(f"{phase} {' '.join(c)}", kind(c, phase == "cold"))
                for c in COMMANDS for phase in ("cold", "warm")]

    @contextlib.contextmanager
    def _cache(self, cold: bool):
        if not cold:
            yield self.warm_dir
            return
        path = self.ctx.fresh_dir("cold")
        try:
            yield path
        finally:
            shutil.rmtree(path)

    def _process(self, command, cold):
        def run():
            with self._cache(cold) as cache_dir:
                result = self.ctx.cli_child(command, cache_dir)
            self.rss_kb.append(result.maxrss_kb)
            if result.returncode != 0:
                return f"exit {result.returncode}: " \
                       f"{result.stderr.decode(errors='replace').strip()}"
            return h.digest_mismatch(" ".join(command), result.stdout,
                                     EXPECTED["cli"])
        return run

    def _in_process(self, command, cold):
        def run():
            with self._cache(cold) as cache_dir:
                code, out = run_cli_in_process(self.m, command, cache_dir)
            if code != 0:
                return f"exit {code}"
            return h.digest_mismatch(" ".join(command), out, EXPECTED["cli"])
        return run

    def peak_rss_mb(self):
        return max(self.rss_kb) / 1024

    def report(self, typical):
        lines = []
        for phase in ("cold", "warm"):
            times = [t for label, t in typical.items() if label.startswith(phase)]
            lines.append(f"  {phase}: median {h.median(times):.4f} s, slowest "
                         f"{max(times):.4f} s over {len(times)} commands")
        return "\n".join(lines)


WORKLOADS = {w.name: w for w in (Catalog, Weights, Cli)}


@contextlib.contextmanager
def cache_env(cache_dir):
    """MCKAY_CACHE set to cache_dir for the library calls in the block."""
    previous = os.environ.get("MCKAY_CACHE")
    os.environ["MCKAY_CACHE"] = str(cache_dir)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["MCKAY_CACHE"]
        else:
            os.environ["MCKAY_CACHE"] = previous


def run_cli_in_process(m: dict, command, cache_dir) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with cache_env(cache_dir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = m["cli"].run(list(command))
    return code, out.getvalue()


# -- the traced run ----------------------------------------------------

def _window(args, kwargs, result):
    w, cd, window = args[:3]
    if isinstance(window, int):
        vectors = math.comb(cd.vertex_count + window, window)
    else:
        vectors = math.prod(c + 1 for c in window)
    return {"window": vectors, "nonzero": len(result.entries)}


def _group_sizes(args, kwargs, result):
    return {"elements": result.order, "classes": len(result.classes)}


def _cache_load_sizes(m):
    def sizes(args, kwargs, result):
        if result is None:
            return {"hit": 0, "bytes": 0}
        return {"hit": 1, "bytes": m["cache"].entry_path(args[0]).stat().st_size}
    return sizes


def _cache_store_sizes(m):
    def sizes(args, kwargs, result):
        return {"bytes": m["cache"].entry_path(args[0]).stat().st_size}
    return sizes


def trace_targets(m: dict) -> list:
    T = h.Target
    return [
        T("groups", "build_group", "groups.build_group", sizes=_group_sizes),
        T("groups", "from_json_obj", "groups.from_json", cls="FiniteSubgroup",
          sizes=_group_sizes),
        T("groups", "to_json_obj", "groups.to_json", cls="FiniteSubgroup"),
        T("chartab", "character_table", "chartab.character_table",
          sizes=lambda a, k, r: {"classes": r.n_classes}),
        T("chartab", "from_json_obj", "chartab.from_json", cls="CharacterTable",
          sizes=lambda a, k, r: {"classes": r.n_classes}),
        T("chartab", "to_json_obj", "chartab.to_json", cls="CharacterTable"),
        T("quiver", "mckay_quiver", "quiver.mckay_quiver"),
        T("quiver", "classify_ade", "quiver.classify_ade"),
        T("quiver", "from_json_obj", "quiver.from_json", cls="CartanData"),
        T("quiver", "to_json_obj", "quiver.to_json", cls="CartanData"),
        T("quiver", "to_dot", "quiver.to_dot"),
        T("roots", "positive_roots", "roots.positive_roots",
          sizes=lambda a, k, r: {"positive": r.count}),
        T("roots", "reconstruct_g_dim", "roots.reconstruct_g_dim"),
        T("roots", "root_system_for", "roots.root_system_for"),
        T("highest_weight", "freudenthal", "highest_weight.freudenthal",
          sizes=_window),
        T("highest_weight", "weylkac_oracle", "highest_weight.weylkac",
          sizes=_window),
        T("highest_weight", "freudenthal_box", "highest_weight.freudenthal_box",
          sizes=_window),
        T("highest_weight", "weylkac_box", "highest_weight.weylkac_box",
          sizes=_window),
        T("highest_weight", "drinfeld_polynomials", "highest_weight.drinfeld"),
        T("strata", "enumerate_strata", "strata.enumerate_strata",
          sizes=lambda a, k, r: {"labels": len(r)}),
        T("strata", "enumerate_strata_rank1", "strata.enumerate_strata",
          sizes=lambda a, k, r: {"labels": len(r)}),
        T("strata", "fiber_parts", "strata.fiber_parts"),
        T("cache", "load", "cache.load", sizes=_cache_load_sizes(m)),
        T("cache", "store", "cache.store", sizes=_cache_store_sizes(m)),
        T("cli", "run", "cli.run"),
    ]


# Per-layer metric -> the span whose outermost calls it sums.
SPAN_SECONDS = {
    "groups.build_group_s": "groups.build_group",
    "groups.from_json_s": "groups.from_json",
    "groups.to_json_s": "groups.to_json",
    "chartab.character_table_s": "chartab.character_table",
    "chartab.from_json_s": "chartab.from_json",
    "quiver.mckay_quiver_s": "quiver.mckay_quiver",
    "quiver.classify_ade_s": "quiver.classify_ade",
    "quiver.from_json_s": "quiver.from_json",
    "roots.positive_roots_s": "roots.positive_roots",
    "roots.reconstruct_g_dim_s": "roots.reconstruct_g_dim",
    "highest_weight.freudenthal_s": "highest_weight.freudenthal",
    "highest_weight.weylkac_s": "highest_weight.weylkac",
    "highest_weight.freudenthal_box_s": "highest_weight.freudenthal_box",
    "highest_weight.weylkac_box_s": "highest_weight.weylkac_box",
    "strata.enumerate_strata_s": "strata.enumerate_strata",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
    "cli.run_inproc_s": "cli.run",
}
LAYERS = ("groups", "chartab", "quiver", "roots", "highest_weight", "strata",
          "cache", "cli")
HW_SPANS = ("highest_weight.freudenthal", "highest_weight.weylkac",
            "highest_weight.freudenthal_box", "highest_weight.weylkac_box")


def layer_metrics(spans) -> dict:
    def top(*names):
        return [s for name in names for s in h.outermost(spans, name)]

    def total(name_list, key):
        return sum(s.sizes.get(key, 0) for s in top(*name_list))

    out = {metric: sum(s.seconds for s in top(name))
           for metric, name in SPAN_SECONDS.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_seconds for s in spans
                                     if s.layer == layer)
    group_spans = ("groups.build_group", "groups.from_json")
    out["groups.elements"] = total(group_spans, "elements")
    out["groups.classes"] = total(group_spans, "classes")
    out["chartab.max_classes"] = max(
        [s.sizes["classes"] for s in top("chartab.character_table",
                                         "chartab.from_json")] or [0])
    out["roots.positive_count"] = total(["roots.positive_roots"], "positive")
    out["highest_weight.window_vectors"] = total(HW_SPANS, "window")
    out["highest_weight.nonzero_entries"] = total(HW_SPANS, "nonzero")
    out["highest_weight.nonzero_frac"] = (
        out["highest_weight.nonzero_entries"] / out["highest_weight.window_vectors"]
        if out["highest_weight.window_vectors"] else 0.0)
    out["strata.labels"] = total(["strata.enumerate_strata"], "labels")
    loads = top("cache.load")
    out["cache.hits"] = sum(s.sizes["hit"] for s in loads)
    out["cache.misses"] = len(loads) - out["cache.hits"]
    out["cache.entry_bytes"] = total(["cache.load", "cache.store"], "bytes")
    return out


def probe_ops(ctx: Context) -> list:
    """A fixed, small tour through every layer, run in each traced pass
    so that every per-layer metric is measured on every workload.  On a
    workload that does not use a layer, the layer's numbers are this
    probe's alone."""
    m = ctx.m
    spec = "binary-dihedral:2"
    state = {}

    def roots_direct():
        system = m["roots"].positive_roots(m["quiver"].reference_finite("E~8"))
        return None if system.count == 120 else f"{system.count} E~8 roots"

    def cli_cold():
        state["cache"] = ctx.fresh_dir("probe")
        code, _ = run_cli_in_process(m, ("group", spec), state["cache"])
        return None if code == 0 else f"exit {code}"

    def cli_warm(command):
        def run():
            code, out = run_cli_in_process(m, command, state["cache"])
            if code != 0:
                return f"exit {code}"
            return h.digest_mismatch(" ".join(command), out, EXPECTED["probe"])
        return run

    def box():
        with cache_env(state["cache"]):
            _, _, cd = m["cli"].load_pipeline(m["groups"].GroupSpec.parse(spec))
        shutil.rmtree(state.pop("cache"))
        table = m["highest_weight"].freudenthal_box(lambda_0(cd), cd, cd.delta)
        if table != m["highest_weight"].weylkac_box(lambda_0(cd), cd, cd.delta):
            return "D~4 delta box: the two algorithms disagree"
        if table.multiplicity(cd.delta) != cd.rank:
            return "D~4 delta box: m(delta) is not the rank"
        return None

    return [h.Op("probe positive_roots E~8", roots_direct),
            h.Op("probe cold group", cli_cold),
            *(h.Op(f"probe {' '.join(c)}", cli_warm(c)) for c in PROBE_COMMANDS),
            h.Op("probe box", box)]


def interpreter_probe(ctx: Context, repeats: int = 3) -> dict:
    """Bare interpreter start, and `import mckay.cli` above that floor."""
    empty = ctx.fresh_dir("cache")
    bare = h.median(ctx.child(["-c", "pass"], empty).seconds
                    for _ in range(repeats))
    imported = h.median(ctx.child(["-c", "import mckay.cli"], empty).seconds
                        for _ in range(repeats))
    return {"cli.interpreter_s": bare, "cli.import_s": imported - bare}


def traced_run(workload: Workload, ctx: Context, seconds: float):
    tracer = h.Tracer(trace_targets(ctx.m))
    ops = workload.traced_ops()
    probe = probe_ops(ctx)
    # An untimed pass first fills the per-process caches (lru_cache'd
    # reference diagrams and root systems), which would otherwise land
    # on whichever pass came first.
    warm = h.run_pass(ops)
    timed = lambda: h.run_pass(h.permuted(ops, ctx.rng), h.reference_loop)
    failures = list(warm.failures)
    attempted = len(ops)
    pairs = 0

    def traced_pass():
        tracer.install(ctx.m)
        try:
            traced = timed()
            probed = h.run_pass(probe)
        finally:
            tracer.uninstall()
        return traced, probed

    def one_pair():
        nonlocal attempted, pairs
        pairs += 1
        if pairs % 2:  # alternate which side goes first
            plain = timed()
            traced, probed = traced_pass()
        else:
            traced, probed = traced_pass()
            plain = timed()
        attempted += 2 * len(ops) + len(probe)
        failures.extend(plain.failures + traced.failures + probed.failures)
        metrics = layer_metrics(tracer.take())
        metrics.update(interpreter_probe(ctx))
        return normalised_seconds(plain), normalised_seconds(traced), metrics

    results = h.repeat_passes(one_pair, seconds, 1)
    metrics = {name: h.median(r[2][name] for r in results)
               for name in results[0][2]}
    metrics["trace.overhead_s"] = (h.median(r[1] for r in results)
                                   - h.median(r[0] for r in results))
    return metrics, attempted, failures, len(results)


# -- the untraced run --------------------------------------------------

def normalised_ops(p: h.PassResult) -> dict:
    return {label: h.normalised(t, p.reference_seconds[label], REFERENCE_SECONDS)
            for label, t in p.op_seconds.items()}


def normalised_seconds(p: h.PassResult) -> float:
    return sum(normalised_ops(p).values())


def latency_metrics(typical: dict, passes: int, min_samples: int) -> dict:
    """wall_s is one pass over the op list, op_p50_s and op_tail_s are
    quantiles of op latency, all from the ops' medians over the passes."""
    p50, tail = h.latency_summary([t for t in typical.values()
                                   for _ in range(passes)], min_samples)
    return {"wall_s": sum(typical.values()), "op_p50_s": p50, "op_tail_s": tail}


def timed_run(workload: Workload, ctx: Context, seconds: float):
    ops = workload.ops()
    passes = h.repeat_passes(
        lambda: h.run_pass(h.permuted(ops, ctx.rng), h.reference_loop),
        seconds, workload.min_passes)
    min_samples = len(ops) * workload.min_passes
    raw = h.op_medians([p.op_seconds for p in passes])
    typical = h.op_medians([normalised_ops(p) for p in passes])
    metrics = {**latency_metrics(typical, len(passes), min_samples),
               "peak_rss_mb": workload.peak_rss_mb()}
    raw_metrics = latency_metrics(raw, len(passes), min_samples)
    reference = h.median(r for p in passes
                         for samples in p.reference_seconds.values()
                         for r in samples)
    lines = [f"workload {workload.name}: {len(passes)} passes of {len(ops)} ops; "
             f"tail is p{100 * h.tail_quantile(min_samples):.1f} of "
             f"{len(ops) * len(passes)} samples",
             f"  reference loop median {reference * 1e3:.3f} ms (nominal "
             f"{REFERENCE_SECONDS * 1e3:.3f} ms); raw seconds: "
             + ", ".join(f"{k} {v:.4f}" for k, v in raw_metrics.items())]
    report = workload.report(raw)
    if report:
        lines.append(report)
    failures = [f for p in passes for f in p.failures]
    return metrics, len(ops) * len(passes), failures, "\n".join(lines)


UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
         "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        m = load_mckay()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the mckay package: {exc}", file=sys.stderr)
        return 2

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        ctx = Context(m, scratch, args.seed)
        workload = WORKLOADS[args.workload](ctx)
        setup_times, setup_reference = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            setup_reference.extend(h.reference_loop() for _ in range(5))
        if args.trace:
            metrics, attempted, failures, passes = traced_run(
                workload, ctx, args.seconds)
            print(f"workload {args.workload}: traced, {passes} pass pair(s), "
                  f"seed {args.seed}")
        else:
            metrics, attempted, failures, report = timed_run(
                workload, ctx, args.seconds)
            setup_s = h.normalised(h.median(setup_times), setup_reference,
                                   REFERENCE_SECONDS)
            metrics = {"setup_s": setup_s, **metrics}
            print(report)
            print(f"  set-up: median of {SETUP_REPEATS}, raw "
                  f"{h.median(setup_times):.4f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
