import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mckay

MODULES = ["mckay", "mckay.cache", "mckay.chartab", "mckay.cli",
           "mckay.cyclotomic", "mckay.groups", "mckay.highest_weight",
           "mckay.quiver", "mckay.record", "mckay.roots", "mckay.strata"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_the_package_all_lists_every_public_import():
    public = {n for n, v in vars(mckay).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == set(mckay.__all__)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_floats():
    # every `mckay` command is a fresh process, so what `import mckay.cli`
    # pulls in is paid on each one; `dataclasses` alone brings `inspect`,
    # `ast` and `dis`.  pytest has loaded them all here, hence the child.
    slow = ["dataclasses", "inspect", "ast", "dis", "cmath"]
    package_root = Path(mckay.__file__).resolve().parent.parent
    code = f"import mckay.cli, sys; print(sorted(sys.modules.keys() & {set(slow)!r}))"
    result = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True,
                            text=True, env={"PATH": "/usr/bin:/bin",
                                            "PYTHONPATH": str(package_root)}, cwd="/")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_function_the_benchmark_traces_can_be_wrapped(monkeypatch):
    # bench/run.py wraps the library's functions by module and name; a
    # deleted or renamed one must fail here, not only in the benchmark
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends to it
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    modules = run.load_mckay()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = run.h.Tracer(run.trace_targets(modules))
    try:
        tracer.install(modules)
        assert modules["quiver"].classify_ade is not before["quiver"]["classify_ade"]
    finally:
        tracer.uninstall()
    for name, module in modules.items():
        assert all(vars(module)[k] is v for k, v in before[name].items())
