"""The stdout of the CLI, pinned in `golden.json`: each argv line, as
written after `mckay`, maps to the sha256 of what it prints.  Section
`tier1` holds the six spec commands on 23 small specs and four with 30
to 60 classes, the README examples and five strata listings; the tests
here check it.  Section `ci` holds the six commands on the other 91
accepted specs and the slow named lines.  Run as a script, the module
checks both sections:

    PYTHONPATH=src python tests/test_pinned_output.py

Each line whose stdout changed is printed as a manifest line with its
new digest, so a change meant to alter bytes pastes those lines."""

import hashlib
import json
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mckay import cli

from conftest import pipeline

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE / "golden.json").read_text())
TIER1 = MANIFEST["tier1"]

SPEC_COMMANDS = ("group {}", "chartab {}", "quiver {}", "quiver {} --dot",
                 "roots {}", "dimg {}")
# the seeded split retries twice on cyclic:16 and binary-dihedral:10
SMALL = [*(f"cyclic:{n}" for n in (*range(2, 13), 16)),
         *(f"binary-dihedral:{m}" for m in (*range(2, 9), 10)),
         "binary-tetrahedral", "binary-octahedral", "binary-icosahedral"]
SCALE = ["cyclic:30", "cyclic:60", "binary-dihedral:30", "binary-dihedral:57"]
STRATA = ["cyclic:2 --n 60",  # rank one, 28629 labels
          "cyclic:2 --n 40 --w 2,1",  # 19246 labels
          # 376 labels over 132 v0, 124 of them sharing sum(v0_i delta_i)
          "binary-dihedral:2 --n 30 --w 1,1,1,1,1",
          # narrow quivers whose walk prunes on the bound of what later
          # entries can add
          "binary-dihedral:2 --n 12 --w 1,1,1,1,1",
          "binary-dihedral:7 --n 16 --w 1,1,1,1,1,1,1,1,1,1"]


class _Digest:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())

    def flush(self):
        pass


def check(pins: dict) -> list[str]:
    """Each line of `pins` that does not exit 0 with its pinned digest,
    as a manifest line with the digest it printed.  The lines run in
    process through `cli.run`, with one pipeline per spec from
    `conftest.pipeline`."""
    load = cli.load_pipeline
    cli.load_pipeline = lambda spec, use_cache=True: pipeline(str(spec))
    failures = []
    try:
        for line, digest in pins.items():
            with redirect_stdout(_Digest()) as out:
                code = cli.run(shlex.split(line))
            new = out.sha.hexdigest()
            if (code, new) != (0, digest):
                failures.append(f'    {json.dumps(line)}: "{new}",'
                                + (f"  (exit {code})" if code else ""))
    finally:
        cli.load_pipeline = load
    return failures


def readme_examples() -> list[str]:
    """The README usage lines after `mckay`, read as the `-X dev` CI step
    reads them: each line that starts with `mckay `, less its comment."""
    lines = (re.sub(r" *#.*", "", line)
             for line in (HERE.parent / "README.md").read_text().splitlines())
    return [line[len("mckay "):] for line in lines if line.startswith("mckay ")]


def assert_pinned(*lines):
    failures = check({line: TIER1[line] for line in lines})
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("spec", SMALL)
def test_group_chartab_and_quiver_json_are_pinned(spec):
    assert_pinned(*(command.format(spec) for command in SPEC_COMMANDS))


@pytest.mark.parametrize("spec", SCALE)
def test_group_json_is_pinned_at_scale(spec):
    assert_pinned(f"group {spec}")


@pytest.mark.parametrize("spec", SCALE)
def test_chartab_and_quiver_json_are_pinned_at_scale(spec):
    assert_pinned(*(command.format(spec) for command in SPEC_COMMANDS[1:]))


@pytest.mark.parametrize("args", STRATA)
def test_strata_stdout_is_pinned(args):
    assert_pinned(f"strata {args}")


# `roots` renders the root system of the quiver's type, plus a `type` key
@pytest.mark.parametrize("spec", ["cyclic:60", "binary-dihedral:57", "binary-tetrahedral",
                                  "binary-octahedral", "binary-icosahedral"],
                         ids=["A~59", "D~59", "E~6", "E~7", "E~8"])
def test_root_system_json_is_pinned(spec):
    assert_pinned(f"roots {spec}")


def test_every_readme_example_is_a_pinned_line():
    examples = readme_examples()
    assert len(examples) == 11
    assert [line for line in examples if line not in TIER1] == []
    assert_pinned(*examples)


def test_the_tests_here_check_every_tier1_line():
    checked = {command.format(spec) for spec in SMALL + SCALE for command in SPEC_COMMANDS}
    assert set(TIER1) == checked | set(readme_examples()) | {f"strata {a}" for a in STRATA}


if __name__ == "__main__":
    failures = check({**TIER1, **MANIFEST["ci"]})
    print("\n".join(failures) or f"{len(TIER1) + len(MANIFEST['ci'])} lines as pinned")
    sys.exit(1 if failures else 0)
