"""Command line driver: classify, verify, hunt, lattice.

Exit codes
  0  success (verify: every applicable check passed)
  1  verify found at least one failing check
  2  unusable input: spec parse error, unknown theorem id, negative
     hunt --max, a BOWTIE_BUDGET that is not an integer, or an output
     path that cannot be written
  3  improper submodule where a proper one is required
  4  instance exceeds the size budget (see BOWTIE_BUDGET)
"""

from __future__ import annotations

import argparse
import functools
import sys
from operator import and_, or_
from pathlib import Path

from .classify import VARIANTS, ImproperError, classify_ideal, classify_submodule
from .duplication import detect_bowtie_form, predicted_sizes
from .instances import (SEEDS, InstanceSpec, SpecError, declared_module_size,
                        declared_ring_size, seed_spec)
from .modules import LatticeLimitError, Submodule, colon_into_ring, whole_submodule
from .rings import bits
from .theorems import (
    READINGS,
    CorpusSpec,
    Instance,
    default_budget,
    hunt,
    instance_rows,
    normalize_theorems,
    rows_for_submodule,
    serialize_reports,
    summarize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IMPROPER = 3
EXIT_BUDGET = 4


def _err(msg: str) -> None:
    print(f"bowtie: error: {msg}", file=sys.stderr)


def _write(path: str, text: str) -> bool:
    """Write text to the path; False, after a message, when it cannot."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _err(f"cannot write {path}: {exc.strerror or exc}")
        return False
    return True


def _add_spec_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("spec", nargs="?", metavar="SPEC.json",
                    help="instance document (JSON)")
    sp.add_argument("--seed-corpus", metavar="NAME", default=None,
                    help="built-in instance name, or 'list' to show them")
    sp.add_argument("--budget", type=int, default=None, metavar="K",
                    help="largest |A><I| or |M><I| to build"
                         " (default: BOWTIE_BUDGET or 256)")


def _load_spec(args: argparse.Namespace) -> InstanceSpec | int:
    """The chosen instance spec, or an exit code after printing a message."""
    if args.seed_corpus == "list":
        for name in sorted(SEEDS):
            print(name)
        return EXIT_OK
    if args.seed_corpus is not None and args.spec is not None:
        _err("give either a spec file or --seed-corpus, not both")
        return EXIT_BAD_INPUT
    try:
        if args.seed_corpus is not None:
            return seed_spec(args.seed_corpus)
        if args.spec is None:
            _err("no instance given; pass SPEC.json or --seed-corpus NAME")
            return EXIT_BAD_INPUT
        return InstanceSpec.from_path(args.spec)
    except SpecError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT


def _budget(flag: int | None) -> int | None:
    """--budget if given, else BOWTIE_BUDGET or 256; None (reported) if the
    variable is not an integer."""
    if flag is not None:
        return flag
    try:
        return default_budget()
    except ValueError as exc:
        _err(str(exc))
        return None


def _over_budget(what: str, size: int | None, cap: int) -> bool:
    if size is not None and size > cap:
        _err(f"{what} = {size} exceeds the budget {cap}; raise --budget or BOWTIE_BUDGET")
        return True
    return False


def _build(spec: InstanceSpec, budget: int | None) -> tuple[Instance, Submodule] | int:
    """Build the duplication under the budget; exit code on refusal."""
    cap = _budget(budget)
    if cap is None:
        return EXIT_BAD_INPUT
    # |A><I| >= |A| and |M><I| >= |M|: refuse a large ring before its tables
    # are built, and a large module table before it is read
    if (_over_budget("|A|", declared_ring_size(spec.ring_desc), cap)
            or _over_budget("|M|", declared_module_size(spec.module_desc), cap)):
        return EXIT_BUDGET
    try:
        ring, ideal, module, sub = spec.build()
    except SpecError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT
    ring_size, module_size = predicted_sizes(ring, ideal, module)
    if _over_budget("|M><I|", module_size, cap) or _over_budget("|A><I|", ring_size, cap):
        return EXIT_BUDGET
    name = spec.name or f"{ring.name}|I={ideal.label_set()}"
    # the per-N quantifiers cost |Lat| each, so the lattices are capped too
    limit = 16 * cap
    ctx = Instance(ring, ideal, module, key=name, lattice_limit=limit)
    for what, lattice in (("M", "base_submodules"), ("M><I", "bowtie_submodules")):
        try:
            getattr(ctx, lattice)
        except LatticeLimitError:
            _err(f"lattice of {what} exceeds {limit} submodules (16 x budget {cap});"
                 " raise --budget or BOWTIE_BUDGET")
            return EXIT_BUDGET
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
    spec = _load_spec(args)
    if isinstance(spec, int):
        return spec
    built = _build(spec, args.budget)
    if isinstance(built, int):
        return built
    ctx, n = built
    if not n.is_proper:
        _err(f"N = {n.label_set()} is not a proper submodule; nothing to classify")
        return EXIT_IMPROPER
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
    base_colon = colon_into_ring(n, whole_submodule(inst.base_module))
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


def _theorem_tokens(raw: list[str] | None) -> list[str] | None:
    """Flatten repeatable, comma-separable --theorem flags; None means all."""
    if not raw:
        return None
    tokens = [t for arg in raw for t in arg.split(",") if t.strip()]
    if any(t.lower() == "all" for t in tokens):
        return None
    return tokens


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if isinstance(spec, int):
        return spec
    tokens = _theorem_tokens(args.theorem)
    try:
        chosen = normalize_theorems(tokens)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT
    built = _build(spec, args.budget)
    if isinstance(built, int):
        return built
    ctx, n = built
    variants = _variant_list(args.variant)
    readings = _reading_list(args.reading)
    rows = instance_rows(ctx, chosen)
    rows.extend(rows_for_submodule(ctx, n, chosen, variants, readings))
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
    if budget is None:
        return EXIT_BAD_INPUT
    tokens = _theorem_tokens(args.theorem)
    try:
        chosen = normalize_theorems(tokens)
        corpus = CorpusSpec(family=args.family, max_n=args.max)
        corpus.check_budget(budget)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT
    variants = _variant_list(args.variant)
    readings = _reading_list(args.reading)
    reports = hunt(corpus, chosen, variants, readings,
                   workers=args.workers, budget=budget)
    header = (
        f"hunt family={corpus.family} max={corpus.max_n}"
        f" theorems={','.join(chosen)} variants={','.join(variants)}"
        f" readings={','.join(readings)} budget={budget}"
    )
    text = serialize_reports(reports, header)
    summary = summarize(reports)
    if args.out:
        if not _write(args.out, text):
            return EXIT_BAD_INPUT
        print(f"wrote {len(reports)} report lines to {args.out}")
        print(summary)
    else:
        sys.stdout.write(text)
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


def cmd_lattice(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if isinstance(spec, int):
        return spec
    built = _build(spec, args.budget)
    if isinstance(built, int):
        return built
    ctx, _n = built
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
    text = "\n".join(lines) + "\n"
    if args.dot:
        if not _write(args.dot, text):
            return EXIT_BAD_INPUT
        print(f"wrote {args.dot}")
    else:
        sys.stdout.write(text)
    print(f"nodes\t{len(subs)}", file=sys.stderr)
    print(f"edges\t{len(edges)}", file=sys.stderr)
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
                    help="theorem id, 'transfer-all', or 'all' (repeatable)")
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
                    help="theorem id, 'transfer-all', or 'all' (repeatable)")
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
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ImproperError as exc:
        _err(str(exc))
        return EXIT_IMPROPER


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
