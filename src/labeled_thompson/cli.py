"""Command-line front end.

Composition is the right action throughout: in an expression "a * b" the
element a acts first, so points satisfy (w)(a*b) = ((w)a)b.  Exit codes:
0 success, 1 a verification answered false, 2 usage errors, 3 an internal
consistency check failed or any other exception escaped (a bug, never a
false answer), so exit 1 only ever means false; input nested past the
recursion limit, in an expression or a JSON file, is a usage error.
`lsupp` counts the cones of a support before it builds them, up to the
first block past the limit, and refuses, with exit 2, supports of more
than LSUPP_MAX_CONES = 2^16 cones, and `act` and `splinter-check` refuse
depths past MAX_WORD_DEPTH = 2^12 before any work, since both take time
linear in the depth.  `splinter-check` also
refuses, before it loads the group, a product --pairs x --points x --depth
past MAX_SPLINTER_WORK = 2^23, since its time grows with all three, and an
--elements count past MAX_SPLINTER_ELEMENTS = 2^14, since each element
costs a faithfulness walk of its own, and, before it lists the G-set, a
group of more than MAX_GSET_ORDER elements; `complex` likewise refuses
complexes past the size limits of `complexes`, counted exactly, and a
descending link whose caret-orbit table, 2|G|^2 states, is past
MAX_DLINK_CLASSES, `homology` boundary matrices past MAX_BOUNDARY_CELLS and
complex files whose maximal simplices have more than MAX_FACE_ENTRIES face
entries, an expression power any product past MAX_POWER_COLUMNS columns,
and `injectivize`, or any command over a non-injective rule, a quotient
past MAX_QUOTIENT_ORDER elements before its table is built.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

from . import complexes, elements, germs, perfection, serialize, splinter
from .expressions import parse_expression
from .sampling import random_element
from .words import EventuallyPeriodicWord

LSUPP_MAX_CONES = 1 << 16
MAX_WORD_DEPTH = 1 << 12
# --pairs x --points x --depth of `splinter-check`: the defaults (25 pairs,
# 50 points) at MAX_WORD_DEPTH make 5,120,000 and are admitted
MAX_SPLINTER_WORK = 1 << 23
# --elements of `splinter-check`: each random element is walked at its own
# depth over the whole G-set
MAX_SPLINTER_ELEMENTS = 1 << 14

EPILOG = (
    "Expressions compose left to right as right actions: (w)(a*b) = ((w)a)b. "
    "Labels are backend tokens from the --group file."
)


def _count(text: str) -> int:
    """argparse type of depths, budgets and sizes: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _check_word_depth(depth: int) -> None:
    if depth > MAX_WORD_DEPTH:
        raise ValueError(f"--depth {depth} is more than MAX_WORD_DEPTH = {MAX_WORD_DEPTH}")


def _emit(args, data: dict, text: str) -> None:
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(text)


def _emit_element(args, x) -> None:
    data = serialize.element_to_json(x)
    _emit(args, data, repr(x.diagram))


def cmd_mul(args):
    ctx = serialize.load_context(args.group)
    out = parse_expression(args.a, ctx) * parse_expression(args.b, ctx)
    _emit_element(args, out)
    return 0


def cmd_inv(args):
    ctx = serialize.load_context(args.group)
    _emit_element(args, ~parse_expression(args.expr, ctx))
    return 0


def cmd_reduce(args):
    ctx = serialize.load_context(args.group)
    _emit_element(args, parse_expression(args.expr, ctx))
    return 0


def cmd_eq(args):
    ctx = serialize.load_context(args.group)
    same = parse_expression(args.a, ctx) == parse_expression(args.b, ctx)
    _emit(args, {"equal": same}, f"equal: {str(same).lower()}")
    return 0 if same else 1


def cmd_is_id(args):
    ctx = serialize.load_context(args.group)
    ans = parse_expression(args.expr, ctx).is_identity()
    _emit(args, {"identity": ans}, f"identity: {str(ans).lower()}")
    return 0 if ans else 1


def cmd_act(args):
    _check_word_depth(args.depth)
    ctx = serialize.load_context(args.group)
    x = parse_expression(args.expr, ctx)
    point = EventuallyPeriodicWord.parse(args.point)
    word = x.act_word(point, args.depth)
    _emit(args, {"image": word}, word)
    return 0


def cmd_label(args):
    ctx = serialize.load_context(args.group)
    x = parse_expression(args.expr, ctx)
    at = "" if args.at == "eps" else args.at
    try:
        g = germs.label_at(x, at)
    except germs.LabelUndefined as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, {"label": repr(g)}, repr(g))
    return 0


def cmd_lsupp(args):
    ctx = serialize.load_context(args.group)
    x = parse_expression(args.expr, ctx)
    if germs.lsupp_count(x, args.depth, LSUPP_MAX_CONES) > LSUPP_MAX_CONES:
        raise ValueError(
            f"the support has more than {LSUPP_MAX_CONES} cones at depth "
            f"{args.depth}; lower --depth"
        )
    approx = germs.lsupp_approx(x, args.depth)
    data = approx.to_json()
    _emit(args, data, f"depth {data['depth']}: " + " ".join(data["cones"]))
    return 0


def cmd_decompose(args):
    ctx = serialize.load_context(args.group)
    x = parse_expression(args.expr, ctx)
    # decompose raises AssertionError (exit 3) on a certificate that fails
    # to verify, so one that it returns is verified
    cert = perfection.decompose(x)
    data = serialize.certificate_to_json(cert)
    data["verified"] = True
    _emit(
        args,
        data,
        f"factors: {len(cert.factors)}, tail columns: "
        f"{len(cert.tail.diagram.columns)}, verified: true",
    )
    return 0


def cmd_witness(args):
    ctx = serialize.load_context(args.group)
    x = parse_expression(args.expr, ctx)
    p, q = perfection.commutator_witness(x)
    # the one check of the pair: a wrong witness is a bug, exit 3
    if p * q * ~p * ~q != x:
        raise AssertionError("commutator witness failed to verify")
    data = {
        "p": serialize.element_to_json(p),
        "q": serialize.element_to_json(q),
        "verified": True,
    }
    _emit(args, data, "verified: true")
    return 0


def cmd_splinter_check(args):
    _check_word_depth(args.depth)
    work = args.pairs * args.points * max(args.depth, 1)
    if work > MAX_SPLINTER_WORK:
        raise ValueError(
            f"--pairs x --points x --depth is {work:,}, more than "
            f"MAX_SPLINTER_WORK = {MAX_SPLINTER_WORK:,}"
        )
    if args.elements > MAX_SPLINTER_ELEMENTS:
        raise ValueError(
            f"--elements {args.elements:,} is more than "
            f"MAX_SPLINTER_ELEMENTS = {MAX_SPLINTER_ELEMENTS:,}"
        )
    ctx = serialize.load_context(args.group)
    rng = random.Random(args.seed)
    gset = splinter.GSet.regular(ctx.backend)
    hom_ok = True
    for _ in range(args.pairs):
        a = random_element(rng, ctx)
        b = random_element(rng, ctx)
        if not splinter.check_hom(
            gset, a, b, samples=args.points, depth=args.depth, rng=rng
        ):
            hom_ok = False
            break
    faithful_ok = True
    for _ in range(args.elements):
        x = random_element(rng, ctx)
        d = max(splinter.depth_of(x), 1)
        if splinter.check_faithful(gset, x, d) != x.is_identity():
            faithful_ok = False
            break
    ok = hom_ok and faithful_ok
    _emit(
        args,
        {"hom": hom_ok, "faithful": faithful_ok},
        f"hom: {str(hom_ok).lower()}, faithful-vs-word-problem: "
        f"{str(faithful_ok).lower()}",
    )
    return 0 if ok else 1


def cmd_germ(args):
    if (args.A or args.B) and not args.witness:
        raise ValueError("-A and -B need --witness")
    ctx = serialize.load_context(args.group)
    if args.witness:
        a_tuple = [parse_expression(t, ctx) for t in args.A]
        b_tuple = [parse_expression(t, ctx) for t in args.B]
        gamma = germs.transitivity_witness(a_tuple, b_tuple, args.budget)
        _emit_element(args, gamma)
        return 0
    a, b = (parse_expression(t, ctx) for t in args.compare or args.perp)
    check = germs.germ_compare if args.compare else germs.perp
    ans = check(a, b, args.budget)
    _emit(args, {"answer": ans.kind, "depth": ans.depth}, repr(ans))
    return 0


def cmd_complex(args):
    if args.family == "matching":
        cx = complexes.matching_complex(args.n)
    else:
        ctx = serialize.load_context(args.group)
        link = complexes.dlink_complex(ctx, args.n)
        if not complexes.check_complete_join(link):
            print("error: complete-join verification failed", file=sys.stderr)
            return 1
        cx = link.complex
    data = cx.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh)
        print(f"wrote {args.out}: {len(cx.vertices)} vertices, f = {cx.f_vector()}")
    else:
        _emit(
            args, data, f"{len(cx.vertices)} vertices, f = {cx.f_vector()}"
        )
    return 0


def cmd_homology(args):
    cx = serialize.load_json(args.complex, complexes.SimplicialComplex.from_json)
    res = complexes.homology(cx, args.up_to)
    data = res.to_json()
    lines = [
        f"H~_{row['dim']}: betti {row['betti']}, torsion {row['torsion']}"
        for row in data
    ]
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_injectivize(args):
    ctx = serialize.load_context(args.group)
    if ctx.pi_hat is None:
        from .groups import injectivize as run_tower

        hat_g, pi, hat_phi, steps = run_tower(ctx.source_recursion)
    else:
        # the context ran the tower already: its working picture is the quotient
        hat_g, pi, hat_phi, steps = ctx.backend, ctx.pi_hat, ctx.recursion, ctx.tower_steps
    data = {
        "steps": steps,
        "order": hat_g.n,
        "group": serialize.backend_to_json(hat_g),
        "recursion": serialize.recursion_to_json(hat_phi),
        "projection": {
            ctx.source_backend.format_element(v): hat_g.format_element(
                pi(ctx.source_backend.element(v)).value
            )
            for v in ctx.source_backend.element_values()
        },
    }
    _emit(args, data, f"tower stabilized after {steps} step(s); quotient order {hat_g.n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ltg",
        description="Exact computations in labeled Thompson groups.",
        epilog=EPILOG,
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    def group_opt(p, required=True):
        p.add_argument(
            "-g", "--group", required=required, help="group/recursion JSON file"
        )

    p = sub.add_parser("mul", help="multiply two expressions")
    group_opt(p)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("inv", help="invert an expression")
    group_opt(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_inv)

    p = sub.add_parser("reduce", help="canonical reduced form")
    group_opt(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("eq", help="exact equality of two expressions")
    group_opt(p)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("is-id", help="word problem: is the element trivial?")
    group_opt(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_is_id)

    p = sub.add_parser("act", help="act on a Cantor point")
    group_opt(p)
    p.add_argument("expr")
    p.add_argument("--point", required=True, help='e.g. "(0)" or "01(10)"')
    p.add_argument("--depth", type=_count, default=8)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("label", help="label at a dyadic cone")
    group_opt(p)
    p.add_argument("expr")
    p.add_argument("--at", required=True, help="binary word (or eps)")
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("lsupp", help="labeled-support approximation")
    group_opt(p)
    p.add_argument("expr")
    p.add_argument("--depth", type=_count, required=True)
    p.set_defaults(fn=cmd_lsupp)

    p = sub.add_parser("decompose", help="commutator certificate")
    group_opt(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("witness-commutator", help="explicit commutator witness")
    group_opt(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("splinter-check", help="permutation-model consistency")
    group_opt(p)
    p.add_argument("--pairs", type=_count, default=25)
    p.add_argument("--points", type=_count, default=50)
    p.add_argument("--depth", type=_count, default=12)
    p.add_argument("--elements", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_splinter_check)

    p = sub.add_parser("germ", help="germ comparison at the all-zero point")
    group_opt(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    mode.add_argument("--perp", nargs=2, metavar=("A", "B"))
    mode.add_argument("--witness", action="store_true")
    p.add_argument(
        "-A", action="append", default=[], help="witness target tuple (with --witness)"
    )
    p.add_argument(
        "-B", action="append", default=[], help="witness source tuple (with --witness)"
    )
    p.add_argument("--budget", type=_count, default=4096)
    p.set_defaults(fn=cmd_germ)

    p = sub.add_parser("complex", help="build a complex")
    csub = p.add_subparsers(dest="family", required=True)
    pm = csub.add_parser("matching", help="matching complex on n points")
    pm.add_argument("-n", type=_count, required=True)
    pm.add_argument("-o", "--out")
    pm.set_defaults(fn=cmd_complex)
    pd = csub.add_parser("dlink", help="descending link at height n")
    pd.add_argument("-n", type=_count, required=True)
    group_opt(pd)
    pd.add_argument("-o", "--out")
    pd.set_defaults(fn=cmd_complex)

    p = sub.add_parser("homology", help="reduced integer homology of a complex file")
    p.add_argument("complex")
    p.add_argument("--up-to", dest="up_to", type=_count, required=True)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("injectivize", help="quotient tower of the recursion")
    group_opt(p)
    p.set_defaults(fn=cmd_injectivize)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a bug, never a false answer: the traceback goes with the report
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
