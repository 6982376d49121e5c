"""Command line front end.

Every subcommand emits deterministic JSON on stdout (DOT for
`quiver --dot`); diagnostics go to stderr.  Exit codes: 0 success,
2 usage error (bad arguments, an unknown group spec or one above the
class budget, a window or strata listing over its budget) or stdout
not writable, 1 an invariant failure (`InvariantError`).  `GroupSpec`
refuses a spec over the class budget: it reads no cache and builds no
group.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from math import lcm

from . import cache
from .chartab import CharacterTable, character_table
from .cyclotomic import CycNumber, root_of_unity
from .errors import InvariantError
from .groups import CLASS_BUDGET, FiniteSubgroup, GroupSpec, build_group
from .highest_weight import drinfeld_polynomials, freudenthal, weylkac_oracle
from .quiver import CartanData, mckay_quiver, to_dot
from .roots import reconstruct_g_dim, root_system_for
from .strata import _list_strata, fiber_parts

__all__ = ["run", "main"]


def load_pipeline(spec: GroupSpec, use_cache: bool = True
                  ) -> tuple[FiniteSubgroup, CharacterTable, CartanData]:
    """Group, character table, and Cartan data for a spec.  The group is
    always built by closure; the table goes through the on-disk cache
    unless told otherwise.  The entry holds the table alone, which is
    rebuilt from its values on the group with every check; the quiver
    is always derived from the table.  An entry that fails to load or to
    verify is recomputed and overwritten."""
    key = str(spec)
    group = build_group(spec)
    payload = cache.load(key) if use_cache else None
    if payload is not None:
        try:
            table = CharacterTable.from_json_obj(payload["chartab"], group)
            return group, table, mckay_quiver(table)
        except (LookupError, TypeError, ValueError, AttributeError,
                ArithmeticError, InvariantError):
            pass  # a damaged entry, or one that does not verify
    table = character_table(group)
    if use_cache:
        try:
            cache.store(key, {"chartab": table.to_json_obj()})
        except OSError as exc:
            print(f"warning: cache not written: {exc}", file=sys.stderr)
    return group, table, mckay_quiver(table)


def _parse_int_vector(text: str, label: str) -> tuple[int, ...]:
    """A comma-separated integer list; an empty text is the empty list.
    The library checks its length and signs."""
    if text.strip() == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--{label} must be a comma-separated integer list")


# `drinfeld --eigs` budgets, checked on the tokens before any value is
# built.  The worst accepted input, 32 eigenvalues at one vertex mixing
# roots of unity of order 359 and 18-digit fractions, runs in 0.2 s
# (Python 3.11, 2 vCPU; the cost is quadratic in the count at one vertex
# and grows with phi(lcm)).  There are at most as many vertices as a
# quiver of an accepted group spec has.
EIGENVALUE_BUDGET = 32
ROOT_ORDER_BUDGET = 360
_EIG_TOKEN = re.compile(r"([+-]?[0-9]{1,18})(?:/([0-9]{1,18}))?"
                        r"|z([0-9]{1,18})(?:\^([+-]?[0-9]{1,18}))?")


def _parse_eigenvalues(text: str) -> list[list[CycNumber]]:
    """Per vertex (';'-separated) a ','-separated multiset of tokens:
    an integer a, a fraction a/b or a root of unity zN or zN^k, every
    integer of at most 18 digits.  More than CLASS_BUDGET vertices, more
    than EIGENVALUE_BUDGET tokens, or orders N whose lcm is above
    ROOT_ORDER_BUDGET, are refused before a value is built."""
    parts = text.split(";")
    if len(parts) > CLASS_BUDGET:
        raise ValueError(f"{len(parts)} vertices, above the class budget of {CLASS_BUDGET}")
    vertices = []
    for part in parts:
        matches = []
        for tok in part.split(",") if part.strip() else ():
            match = _EIG_TOKEN.fullmatch(tok.strip())
            if match is None:
                raise ValueError(f"bad eigenvalue {tok.strip()!r}: use integers, "
                                 "fractions like 3/2, or roots of unity like z8^3, "
                                 "each integer of at most 18 digits")
            matches.append(match)
        vertices.append(matches)
    count = sum(map(len, vertices))
    if count > EIGENVALUE_BUDGET:
        raise ValueError(f"{count} eigenvalues, above the budget of {EIGENVALUE_BUDGET}")
    order = lcm(*(int(m[3]) for ms in vertices for m in ms if m[3]))
    if order > ROOT_ORDER_BUDGET:
        raise ValueError(f"the roots of unity have order lcm {order}, above the "
                         f"budget of {ROOT_ORDER_BUDGET}")
    return [[_eigenvalue(*m.groups()) for m in ms] for ms in vertices]


def _eigenvalue(num, den, n, k) -> CycNumber:
    if n is not None:
        return root_of_unity(int(n), int(k or 1))
    if den is not None and int(den) == 0:
        raise ValueError(f"bad eigenvalue {num}/{den}: zero denominator")
    return CycNumber.coerce(Fraction(int(num), int(den or 1)))


def _emit(obj) -> None:
    """Indented JSON written while it is encoded."""
    _write(json.JSONEncoder(indent=2).iterencode(obj))


def _write(chunks) -> None:
    """The chunks and a newline, a few thousand chunks per write: the
    whole text is never held, and an unbuffered stdout (PYTHONUNBUFFERED)
    does not pay one write per chunk."""
    while batch := list(itertools.islice(chunks, 4096)):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def _json_ints(values) -> str:
    """A flat int list as _emit writes it inside a record of a list."""
    if not values:
        return "[]"
    return "[\n      " + ",\n      ".join(map(str, values)) + "\n    ]"


def _strata_text(blocks):
    """Each label's indented JSON with the text before it, from a
    template per block: the v0 head and the residual tail, with each
    partition's text between them.  The bytes are _emit's of the labels'
    JSON objects, since a label is two flat int lists, an int and a
    bool under fixed keys.  A listing is never empty: v0 = 0 with no
    free orbit is always in it."""
    before = "[\n  "
    for v0, residual, lams in blocks:
        head = f'{{\n    "v0": {_json_ints(v0)},\n    "lam": '
        tail = (f',\n    "residual": {residual},\n    "candidate": '
                f'{"true" if any(v0) else "false"}\n  }}')
        for lam in lams:
            yield f"{before}{head}{_json_ints(lam)}{tail}"
            before = ",\n  "
    yield "\n]"


def _multiplicity_json(table) -> dict:
    return {f"({','.join(str(x) for x in v)})": m for v, m in table.sorted_items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Exact McKay correspondence toolkit for finite "
                    "subgroups of SL2(C)")
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("spec", help="cyclic:n | binary-dihedral:m | "
                         "binary-tetrahedral | binary-octahedral | "
                         "binary-icosahedral")
        cmd.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk cache")
        return cmd

    spec_command("group", "full group enumeration as JSON")
    spec_command("chartab", "exact character table as JSON")
    quiver_cmd = spec_command("quiver", "McKay quiver and affine Cartan data")
    quiver_cmd.add_argument("--dot", action="store_true",
                            help="emit Graphviz DOT instead of JSON")
    spec_command("roots", "positive roots of the finite root system")
    spec_command("dimg", "dimension of the simple Lie algebra, reconstructed")

    char_cmd = spec_command("char", "weight multiplicities of the integrable "
                            "module with the given highest weight")
    char_cmd.add_argument("--hw", required=True,
                          help="framing w as comma-separated multiplicities")
    char_cmd.add_argument("--depth", type=int, required=True,
                          help="height window bound")
    char_cmd.add_argument("--oracle", action="store_true",
                          help="also run the character-series algorithm and "
                          "fail on any disagreement")

    strata_cmd = spec_command("strata", "stratum labels of the fixed-point set")
    strata_cmd.add_argument("--n", type=int, required=True)
    strata_cmd.add_argument("--w", default=None,
                            help="framing (defaults to rank one)")

    fiber_cmd = spec_command("fiber", "fiber decomposition bookkeeping")
    fiber_cmd.add_argument("--v", required=True)
    fiber_cmd.add_argument("--w", required=True)
    fiber_cmd.add_argument("--v0", required=True)
    fiber_cmd.add_argument("--lam", default="")

    drinfeld_cmd = sub.add_parser(
        "drinfeld", help="Drinfeld polynomials from per-vertex eigenvalues")
    drinfeld_cmd.add_argument(
        "--eigs", required=True,
        help="semicolon-separated vertices, each a comma-separated eigenvalue "
             "multiset of integers a, fractions a/b and roots of unity zN or zN^k "
             f"(integers of at most 18 digits); at most {CLASS_BUDGET} vertices "
             f"and {EIGENVALUE_BUDGET} eigenvalues in all, and roots whose orders "
             f"N have lcm at most {ROOT_ORDER_BUDGET}")
    return parser


def _dispatch(args) -> None:
    if args.command == "drinfeld":
        _emit(drinfeld_polynomials(_parse_eigenvalues(args.eigs)).to_json_obj())
        return

    spec = GroupSpec.parse(args.spec)
    use_cache = not args.no_cache
    group, table, cartan = load_pipeline(spec, use_cache=use_cache)

    if args.command == "group":
        _emit(group.to_json_obj())
    elif args.command == "chartab":
        _emit(table.to_json_obj())
    elif args.command == "quiver":
        if args.dot:
            sys.stdout.write(to_dot(cartan))
        else:
            _emit(cartan.to_json_obj())
    elif args.command == "roots":
        system = root_system_for(cartan)
        _emit({"type": cartan.ade_type, **system.to_json_obj()})
    elif args.command == "dimg":
        _emit({"dim_g": reconstruct_g_dim(cartan), "type": cartan.ade_type})
    elif args.command == "char":
        w = _parse_int_vector(args.hw, "hw")
        table_f = freudenthal(w, cartan, args.depth)
        if args.oracle:
            table_k = weylkac_oracle(w, cartan, args.depth)
            if table_f != table_k:
                raise InvariantError("freudenthal and the character series "
                                     "disagree; this is a bug")
        _emit(_multiplicity_json(table_f))
    elif args.command == "strata":
        w = None if args.w is None else _parse_int_vector(args.w, "w")
        _write(_strata_text(_list_strata(args.n, w, cartan)))
    elif args.command == "fiber":
        v, w, v0, lam = (_parse_int_vector(getattr(args, name), name)
                         for name in ("v", "w", "v0", "lam"))
        _emit(fiber_parts(v, w, v0, lam, cartan).to_json_obj())
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")


def _glue_vectors(argv: list[str]) -> list[str]:
    """`--w -1,0,0` as `--w=-1,0,0` for each vector option: argparse reads
    a value that starts with '-' and is not a plain number as an option."""
    glued: list[str] = []
    for arg in argv:
        if (glued[-1:] and glued[-1] in ("--eigs", "--hw", "--w", "--v", "--v0", "--lam")
                and re.match(r"-[0-9]", arg)):
            glued[-1] = f"{glued[-1]}={arg}"
        else:
            glued.append(arg)
    return glued


def run(argv=None) -> int:
    parser = _build_parser()
    # argparse prints --help here; it is written below, where a failed write exits 2
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        args, code = parser.parse_args(
            _glue_vectors(sys.argv[1:] if argv is None else list(argv))), 0
    except SystemExit as exc:
        args, code = None, exc.code if isinstance(exc.code, int) else 2
    finally:
        help_text, sys.stdout = sys.stdout.getvalue(), stdout
    try:
        if args is None:
            sys.stdout.write(help_text)
        else:
            _dispatch(args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a stdout write: the cache catches its own
        if sys.stdout is sys.__stdout__:  # so the flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
