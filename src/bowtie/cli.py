"""Command line driver: classify, verify, hunt, lattice.

Exit codes
  0  success (verify: every applicable check passed)
  1  verify found at least one failing check
  2  unusable input: spec parse error, unknown theorem id, a --theorem
     selection that names no checker, a hunt --max that is negative or
     above the budget, a --budget or BOWTIE_BUDGET that is negative, a
     BOWTIE_BUDGET that is not an integer, or an output path that cannot
     be written
  3  improper submodule where a proper one is required
  4  instance exceeds the size budget (see BOWTIE_BUDGET), or the run
     ran out of memory within it
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys
import tempfile
from operator import and_, or_

from .classify import VARIANTS, ImproperError, classify_ideal, classify_submodule, whole_colon
from .duplication import detect_bowtie_form, predicted_sizes, table_bytes
from .instances import (SEEDS, InstanceSpec, SpecError, declared_module_size,
                        declared_ring_size, seed_spec)
from .modules import LatticeLimitError, Submodule
from .rings import Ideal, bits
from .theorems import (
    DEFAULT_BUDGET,
    READINGS,
    CorpusSpec,
    Instance,
    hunt,
    instance_rows,
    normalize_theorems,
    serialize_reports,
    summarize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IMPROPER = 3
EXIT_BUDGET = 4


class _Refused(Exception):
    """_Refused(code, message): a run refused where the reason was found;
    main prints the message and exits with the code."""


@contextlib.contextmanager
def _bad_input():
    """A ValueError the library raises about an argument refuses the run (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise _Refused(EXIT_BAD_INPUT, str(exc)) from None


class _Output:
    """Where a command's text goes, written whole: stdout when the path is
    None, else a temporary file beside the path, created at once so that
    an unwritable path is refused before any work. commit() renames the
    file over the path; leaving the block without a commit, by a refusal
    or an error, removes it, so the path keeps its previous bytes."""

    def __init__(self, path: str | None):
        self.path = path
        if path is None:
            return
        try:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, self.tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") would give
            self.file = os.fdopen(fd, "w")
        except OSError as exc:
            raise _Refused(EXIT_BAD_INPUT, f"cannot write {path}: {exc.strerror or exc}") from None

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, *exc) -> None:
        if self.path is not None:
            self.file.close()
            if os.path.exists(self.tmp):  # not committed
                os.unlink(self.tmp)

    def commit(self, text: str) -> None:
        if self.path is None:
            sys.stdout.write(text)
            return
        self.file.write(text)
        self.file.close()
        os.replace(self.tmp, self.path)


def _add_spec_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("spec", nargs="?", metavar="SPEC.json",
                    help="instance document (JSON)")
    sp.add_argument("--seed-corpus", metavar="NAME", default=None,
                    help="built-in instance name, or 'list' to show them")
    sp.add_argument("--budget", type=int, default=None, metavar="K",
                    help="largest |A><I| or |M><I| to build"
                         " (default: BOWTIE_BUDGET or 256)")


def _load_spec(args: argparse.Namespace) -> InstanceSpec:
    """The chosen instance spec; main answers --seed-corpus list first."""
    if args.seed_corpus is not None and args.spec is not None:
        raise _Refused(EXIT_BAD_INPUT, "give either a spec file or --seed-corpus, not both")
    if args.seed_corpus is not None:
        return seed_spec(args.seed_corpus)
    if args.spec is None:
        raise _Refused(EXIT_BAD_INPUT, "no instance given; pass SPEC.json or --seed-corpus NAME")
    return InstanceSpec.from_path(args.spec)


def _budget(flag: int | None) -> int:
    """--budget if given, else BOWTIE_BUDGET or 256; a negative budget is refused."""
    source, budget = "--budget", flag
    if flag is None:
        source, raw = "BOWTIE_BUDGET", os.environ.get("BOWTIE_BUDGET", "")
        if not raw.strip():
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise _Refused(EXIT_BAD_INPUT,
                           f"BOWTIE_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise _Refused(EXIT_BAD_INPUT, f"{source} must be nonnegative, got {budget}")
    return budget


def _check_size(what: str, size: int | None, cap: int, note: str = "") -> None:
    if size is not None and size > cap:
        raise _Refused(EXIT_BUDGET, f"{what} = {size} exceeds the budget {cap};"
                                    f" raise --budget or BOWTIE_BUDGET{note}")


def _build(spec: InstanceSpec, budget: int | None) -> tuple[Instance, Submodule]:
    """Build the duplication under the budget."""
    cap = _budget(budget)
    # |A><I| >= |A| and |M><I| >= |M|: refuse a large ring before its tables
    # are built, and a large module table before it is read
    _check_size("|A|", declared_ring_size(spec.ring_desc), cap)
    _check_size("|M|", declared_module_size(spec.module_desc), cap)
    ring, ideal, module, sub = spec.build()
    ring_size, module_size = predicted_sizes(ring, ideal, module)
    tables = ("the tables of A><I and M><I would hold"
              f" {table_bytes(ring, module, ring_size, module_size)} bytes")
    _check_size("|M><I|", module_size, cap, f" ({tables})")
    _check_size("|A><I|", ring_size, cap, f" ({tables})")
    name = spec.name or f"{ring.name}|I={ideal.label_set()}"
    # the per-N quantifiers cost |Lat| each, so the lattices are capped too
    limit = 16 * cap
    try:
        ctx = Instance(ring, ideal, module, key=name, lattice_limit=limit)
        for what, lattice in (("M", "base_submodules"), ("M><I", "bowtie_submodules")):
            try:
                getattr(ctx, lattice)
            except LatticeLimitError:
                raise _Refused(EXIT_BUDGET, f"lattice of {what} exceeds {limit} submodules"
                                            f" (16 x budget {cap}); raise --budget or"
                                            " BOWTIE_BUDGET") from None
    except MemoryError:
        raise _Refused(EXIT_BUDGET, f"out of memory building {name}: {tables};"
                                    " lower --budget or BOWTIE_BUDGET") from None
    return ctx, sub


def _variant_list(token: str) -> tuple[str, ...]:
    return VARIANTS if token == "all" else (token,)


def _reading_list(token: str) -> tuple[str, ...]:
    return READINGS if token == "both" else (token,)


# ------------------------------------------------------------- classify


def _print_verdicts(title: str, verdicts: dict, keep: tuple[str, ...]) -> None:
    print(f"[{title}]")
    for name, v in verdicts.items():
        if name not in keep:
            continue
        detail = v.witness_text or "-"
        print(f"{name}\t{v.holds}\t{detail}")


def cmd_classify(args: argparse.Namespace) -> int:
    ctx, n = _build(_load_spec(args), args.budget)
    if not n.is_proper:
        raise _Refused(EXIT_IMPROPER,
                       f"N = {n.label_set()} is not a proper submodule; nothing to classify")
    variants = _variant_list(args.variant)
    sub_keep = ("prime", "primary", "irreducible") + tuple(
        f"weakly_prime_{v}" for v in variants
    )
    ideal_keep = ("prime", "weakly_prime", "primary")
    inst = ctx.inst
    nb = ctx.bowtie(n)
    print(f"instance\t{ctx.key_for(n)}")
    print(f"sizes\t|A><I|={inst.bowtie_ring.size}\t|M><I|={inst.bowtie_module.size}")
    print(f"N\t{n.label_set()}")
    print(f"N><I\t{nb.label_set()}")
    _print_verdicts("N in M", classify_submodule(n, ctx.base_submodules), sub_keep)
    base_colon = Ideal.from_mask(inst.base_module.ring, whole_colon(n))
    print(f"members\t{base_colon.label_set()}")
    _print_verdicts("colon (N : M)", classify_ideal(base_colon), ideal_keep)
    _print_verdicts(
        "N><I in M><I", classify_submodule(nb, ctx.bowtie_submodules), sub_keep
    )
    dup_colon = ctx.colon(nb)
    print(f"members\t{dup_colon.label_set()}")
    _print_verdicts("colon (N><I : M><I)", classify_ideal(dup_colon), ideal_keep)
    return EXIT_OK


# --------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    with _bad_input():
        chosen = normalize_theorems(args.theorem)
    ctx, n = _build(spec, args.budget)
    variants = _variant_list(args.variant)
    readings = _reading_list(args.reading)
    rows = instance_rows(ctx, chosen, variants, readings, [n])
    for row in rows:
        print(row.line())
    failed = sum(1 for r in rows if r.outcome == "fail")
    passed = sum(1 for r in rows if r.outcome == "pass")
    na = len(rows) - failed - passed
    print(f"# checks: {passed} passed, {failed} failed, {na} not applicable",
          file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ----------------------------------------------------------------- hunt


def cmd_hunt(args: argparse.Namespace) -> int:
    budget = _budget(args.budget)
    with _bad_input():
        chosen = normalize_theorems(args.theorem)
        corpus = CorpusSpec(family=args.family, max_n=args.max)
        corpus.check_budget(budget)
    variants = _variant_list(args.variant)
    readings = _reading_list(args.reading)
    header = (
        f"hunt family={corpus.family} max={corpus.max_n}"
        f" theorems={','.join(chosen)} variants={','.join(variants)}"
        f" readings={','.join(readings)} budget={budget}"
    )
    # opened before the sweep, so an unwritable path costs no hunt
    with _Output(args.out) as out:
        reports = hunt(corpus, chosen, variants, readings,
                       workers=args.workers, budget=budget)
        out.commit(serialize_reports(reports, header))
    summary = summarize(reports)
    if args.out:
        print(f"wrote {len(reports)} report lines to {args.out}")
        print(summary)
    else:
        print(summary, file=sys.stderr)
    return EXIT_OK


# -------------------------------------------------------------- lattice


def _hasse_edges(subs: list[Submodule]) -> list[tuple[int, int]]:
    """The covering pairs (i, j), ascending: ups[i], the nodes above S_i, is
    the AND over x in S_i of the nodes that contain x, and the covers of i
    are the nodes of ups[i] above no other node of ups[i]."""
    containing = [0] * subs[0].module.size
    for i, s in enumerate(subs):
        for x in s.members:
            containing[x] |= 1 << i
    ups = [functools.reduce(and_, map(containing.__getitem__, s.members)) & ~(1 << i)
           for i, s in enumerate(subs)]
    return [(i, j) for i, up in enumerate(ups)
            for j in bits(up & ~functools.reduce(or_, map(ups.__getitem__, bits(up)), 0))]


def _badges(verdicts: dict) -> str:
    tags = {
        "prime": "P",
        "weakly_prime_af": "WP-af",
        "weakly_prime_azizi": "WP-az",
        "weakly_prime_behboodi": "WP-b",
        "primary": "Pri",
        "irreducible": "Irr",
    }
    out = [tag for name, tag in tags.items() if verdicts[name].holds]
    return " ".join(out) if out else "-"


def _lattice_dot(ctx: Instance) -> tuple[str, int]:
    """The lattice of M><I as DOT text, and its number of edges."""
    subs = ctx.bowtie_submodules
    lines = [
        "digraph submodule_lattice {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, s in enumerate(subs):
        if s.is_proper:
            badge = _badges(classify_submodule(s, subs))
        else:
            badge = "M><I"
        shape = detect_bowtie_form(ctx.inst, s)
        extra = ", peripheries=2" if shape is not None else ""
        # DOT strings end at " and escape with \, so labels escape both
        members = s.label_set().replace("\\", "\\\\").replace('"', '\\"')
        label = f"{members}\\n{badge}"
        lines.append(f'  s{i} [label="{label}"{extra}];')
    edges = _hasse_edges(subs)
    for i, j in edges:
        lines.append(f"  s{i} -> s{j};")
    lines.append("}")
    return "\n".join(lines) + "\n", len(edges)


def cmd_lattice(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    # opened before the lattice is built, so an unwritable path costs nothing
    with _Output(args.dot) as out:
        ctx, _n = _build(spec, args.budget)
        text, edges = _lattice_dot(ctx)
        out.commit(text)
    if args.dot:
        print(f"wrote {args.dot}")
    print(f"nodes\t{len(ctx.bowtie_submodules)}", file=sys.stderr)
    print(f"edges\t{edges}", file=sys.stderr)
    print("bowtie-form nodes have doubled borders", file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bowtie",
        description="Exact classification and theorem checking for "
                    "amalgamated duplications of finite rings and modules.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="all predicates on N and N><I")
    _add_spec_args(sp)
    sp.add_argument("--variant", choices=VARIANTS + ("all",),
                    default="all", help="weakly-prime definition to report")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify", help="run theorem checkers on one instance")
    _add_spec_args(sp)
    sp.add_argument("--theorem", action="append", metavar="ID",
                    help="theorem ids, 'transfer-all' or 'all', comma-separated,"
                         " in any case (repeatable; default all)")
    sp.add_argument("--variant", choices=VARIANTS + ("all",),
                    default="all")
    sp.add_argument("--reading", choices=READINGS + ("both",), default="both",
                    help="quantifier domain for the colon characterizations")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hunt", help="sweep a corpus of Z_n instances")
    sp.add_argument("--family", choices=("zn",), default="zn")
    sp.add_argument("--max", type=int, default=6, metavar="N",
                    help="largest modulus to sweep (default 6)")
    sp.add_argument("--theorem", action="append", metavar="ID",
                    help="theorem ids, 'transfer-all' or 'all', comma-separated,"
                         " in any case (repeatable; default all)")
    sp.add_argument("--variant", choices=VARIANTS + ("all",),
                    default="all")
    sp.add_argument("--reading", choices=READINGS + ("both",), default="both")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write the report file here instead of stdout")
    sp.add_argument("--workers", type=int, default=1, metavar="W",
                    help="parallel processes (output is identical for any W)")
    sp.add_argument("--budget", type=int, default=None, metavar="K",
                    help="skip instances with |M><I| above this")
    sp.set_defaults(func=cmd_hunt)

    sp = sub.add_parser("lattice", help="submodule lattice of M><I as DOT")
    _add_spec_args(sp)
    sp.add_argument("--dot", metavar="PATH", default=None,
                    help="write DOT here instead of stdout")
    sp.set_defaults(func=cmd_lattice)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command: the one place that reports a refusal and picks the
    exit code. Any other exception is a bug, and keeps its traceback."""
    args = _parser().parse_args(argv)
    if getattr(args, "seed_corpus", None) == "list":
        print("\n".join(sorted(SEEDS)))
        return EXIT_OK
    try:
        return args.func(args)
    except _Refused as exc:
        code, message = exc.args
    except SpecError as exc:
        code, message = EXIT_BAD_INPUT, str(exc)
    except ImproperError as exc:
        code, message = EXIT_IMPROPER, str(exc)
    except MemoryError:
        # a budget too large for this machine, past _build: say so, with no traceback
        code, message = EXIT_BUDGET, "out of memory; lower --budget or BOWTIE_BUDGET"
    print(f"bowtie: error: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
