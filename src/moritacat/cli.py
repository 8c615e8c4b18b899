"""Command-line front-end for the library.

Every verb maps to exactly one library operation; unknown verbs are
rejected before any file I/O.  Reports go to standard output, as JSON
with ``--json`` (identical inputs yield byte-identical JSON output);
diagnostics go to standard error.

Exit codes separate "false" from "error" so shell pipelines can branch
on mathematical answers:

* 0 — success / affirmative answer,
* 1 — well-formed negative answer (not equivalent, no lift, probe
  failed),
* 2 — invalid input (unreadable file, schema violation, ill-posed
  question),
* 3 — the computation hit a hermitian element whose minimal polynomial
  does not split over the Gaussian rationals.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .completion import (
    LazySaturation,
    identity_proj_object,
    validate_proj_object,
    word_dim,
)
from .homotopy import ClassMatrix, aut_group, ho_compose, hom_monoid
from .jsonio import SchemaError, dumps
from .ktheory import NotCommutativeProductForm, k0, k0_ring, tensor
from .presentations import (
    LiftSquare,
    build_universal,
    fibrancy_probe,
    pushout_interval,
    pushout_rn,
    rlp_lift,
    sum_lift,
)
from .semisimple import (
    NotSplitOverBaseField,
    SemisimpleForm,
    are_morita_equivalent,
    decompose,
    standard_realization,
)
from .starcat import (
    ConcreteStarCategory,
    StarFunctor,
    validate_category,
    validate_functor,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INVALID = 2
EXIT_NOT_SPLIT = 3


class CommandError(Exception):
    """An invalid input or ill-posed question; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input plumbing


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CommandError(
            f"{path}: line {exc.lineno}, column {exc.colno}: "
            f"invalid JSON: {exc.msg}"
        ) from None


def _parse(path, parse, *args):
    """parse(*args), with a SchemaError refused as a CommandError naming
    the document's path."""
    try:
        return parse(*args)
    except SchemaError as exc:
        raise CommandError(f"{path}: {exc}") from None


def _load_value(path):
    return _parse(path, jsonio.parse_document, _load_json(path))


def _as_concrete(value, path) -> ConcreteStarCategory:
    """A concrete category from a category document (semisimple forms
    are realized canonically)."""
    if isinstance(value, ConcreteStarCategory):
        return value
    if isinstance(value, SemisimpleForm):
        return standard_realization(value)
    raise CommandError(
        f"{path}: a category document is required (concrete or semisimple)"
    )


def _as_form(value, path) -> SemisimpleForm:
    """A semisimple form from a category document (concrete categories
    are decomposed)."""
    if isinstance(value, SemisimpleForm):
        return value
    return decompose(_as_concrete(value, path)).form


def _load_concrete(path):
    return _as_concrete(_load_value(path), path)


def _load_form(path):
    return _as_form(_load_value(path), path)


def _load_ho(path) -> ClassMatrix:
    value = _load_value(path)
    if not isinstance(value, ClassMatrix):
        raise CommandError(f'{path}: a "ho-morphism" document is required')
    return value


# ---------------------------------------------------------------------------
# output plumbing


def _emit(args, doc, lines, code=EXIT_OK):
    """Print doc (under --json) or the text lines; return the exit code."""
    if args.json:
        sys.stdout.write(dumps(doc))
    else:
        for line in lines:
            print(line)
    return code


def _emit_error(args, message, extra=None, code=EXIT_INVALID):
    print(f"error: {message}", file=sys.stderr)
    if args is not None and getattr(args, "json", False):
        doc = {"error": message}
        if extra:
            doc.update(extra)
        sys.stdout.write(dumps(doc))
    return code


def _class_str(cls):
    return "(" + ", ".join(str(c) for c in cls) + ")"


def _class_lines(object_classes):
    return ["object classes:"] + [f"  {name}: {_class_str(cls)}" for name, cls in object_classes]


# ---------------------------------------------------------------------------
# verbs


def cmd_validate(args):
    raw = _load_json(args.file)
    kind = raw.get("kind", "?") if isinstance(raw, dict) else "?"
    value = _parse(args.file, jsonio.parse_document, raw)
    if isinstance(value, ConcreteStarCategory):
        problems = [str(v) for v in validate_category(value)]
    elif isinstance(value, StarFunctor):
        problems = list(validate_functor(value))
    else:
        # Semisimple forms, presentations, and homotopy-class matrices
        # are fully checked during parsing.
        problems = []
    doc = {"kind": kind, "valid": not problems, "problems": problems}
    if problems:
        lines = [f"{kind}: {len(problems)} problem(s)"]
        lines.extend(f"  - {p}" for p in problems)
        return _emit(args, doc, lines, EXIT_INVALID)
    return _emit(args, doc, [f"{kind}: valid"])


def cmd_decompose(args):
    value = _load_value(args.file)
    if isinstance(value, SemisimpleForm):
        form = value
        doc = jsonio.semisimple_form_to_json(form)
        lines = [f"already semisimple: {form.k} block(s)"]
    else:
        d = decompose(_as_concrete(value, args.file))
        form = d.form
        doc = jsonio.semisimple_form_to_json(form)
        doc["unit_ranks"] = list(d.unit_ranks)
        lines = [f"{form.k} block(s)"]
        for name, rank in zip(form.blocks, d.unit_ranks):
            lines.append(f"  {name}: unit rank {rank}")
    return _emit(args, doc, lines + _class_lines(form.object_classes))


def _load_proj_object(path, cat):
    """A saturation object of cat read from a JSON document, refused
    with its schema error or its validate_proj_object problems."""
    obj = _parse(path, jsonio.proj_object_from_json, _load_json(path), cat)
    problems = validate_proj_object(cat, obj)
    if problems:
        raise CommandError(f"{path}: not a saturation object: " + "; ".join(problems))
    return obj


def cmd_saturate(args):
    cat = _load_concrete(args.file)
    sat = LazySaturation(cat)
    if args.object is not None and args.hom is not None:
        raise CommandError("--object and --hom are mutually exclusive")
    if args.object is not None:
        obj = _load_proj_object(args.object, cat)
        doc = {
            "object": jsonio.proj_object_to_json(obj),
            "ambient_dimension": word_dim(cat, obj.word),
            "rank": obj.proj.rank(),
        }
        lines = [
            f"valid saturation object over ({', '.join(obj.word)}): "
            f"rank {obj.proj.rank()} in ambient dimension {word_dim(cat, obj.word)}"
        ]
        return _emit(args, doc, lines)
    if args.hom is not None:
        src, tgt = (_load_proj_object(path, cat) for path in args.hom)
        basis = sat.hom_basis(src, tgt)
        doc = {
            "dimension": len(basis),
            "basis": [jsonio.matrix_to_json(m) for m in basis],
        }
        lines = [f"hom space of dimension {len(basis)}"]
        return _emit(args, doc, lines)
    images = {
        x: jsonio.proj_object_to_json(identity_proj_object(cat, x))
        for x in cat.object_names()
    }
    doc = {
        "base": [{"name": o.name, "dim": o.dim} for o in cat.objects],
        "objects": images,
    }
    lines = ["saturation is computed on demand; base objects embed as:"]
    for x in cat.object_names():
        lines.append(f"  {x}: word ({x}), full projection")
    lines.append("probe further objects with --object and hom spaces with --hom")
    return _emit(args, doc, lines)


def cmd_morita(args):
    a = _load_concrete(args.a)
    b = _load_concrete(args.b)
    equivalent, witness = are_morita_equivalent(a, b)
    if not equivalent:
        reason = f"block count {decompose(a).form.k} ≠ {decompose(b).form.k}"
        doc = {"equivalent": False, "reason": reason}
        return _emit(args, doc, [f"not Morita equivalent: {reason}"], EXIT_NO)
    doc = {
        "equivalent": True,
        "witness": jsonio.functor_to_json(witness) if witness is not None else None,
    }
    lines = ["Morita equivalent"]
    if witness is not None:
        lines.append("witness functor object images:")
        for name, obj in witness.object_map:
            lines.append(
                f"  {name} -> word ({', '.join(obj.word)}), rank {obj.proj.rank()}"
            )
    else:
        note = (
            "the categories are Morita equivalent, but the exact witness "
            "construction found no functor"
        )
        doc["note"] = note
        lines.append(note)
    return _emit(args, doc, lines)


def cmd_hom(args):
    fa = _load_form(args.a)
    fb = _load_form(args.b)
    monoid = hom_monoid(fa, fb)
    generators = [
        {"target": t, "source": s} for t, s in monoid.generator_labels
    ]
    doc = {
        "rank": monoid.rank,
        "shape": list(monoid.shape),
        "generators": generators,
    }
    lines = [
        f"free commutative monoid of rank {monoid.rank} "
        f"(matrices of shape {monoid.shape[0]} x {monoid.shape[1]})"
    ]
    lines.extend(f"  generator: {t} <- {s}" for t, s in monoid.generator_labels)
    if args.bound is not None:
        elements = monoid.bounded_elements(args.bound)
        doc["bounded_elements"] = len(elements)
        lines.append(
            f"{len(elements)} element(s) with entry sum at most {args.bound}"
        )
    return _emit(args, doc, lines)


def cmd_compose(args):
    first = _load_ho(args.first)
    second = _load_ho(args.second)
    if first.target_form != second.source_form:
        raise CommandError(
            "not composable: the target form of the first morphism must "
            "equal the source form of the second"
        )
    result = ho_compose(second, first)
    doc = jsonio.ho_morphism_to_json(result)
    lines = ["composite multiplicity matrix:"]
    lines.extend("  " + _class_str(row) for row in result.mult)
    return _emit(args, doc, lines)


def cmd_picard(args):
    form = _load_form(args.file)
    try:
        group = aut_group(form, verify=args.verify, verify_entry_bound=args.bound)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    summary = f"{group.label} (order {group.order})"
    if group.verified:
        summary += ", verified by enumeration"
    doc = {
        "group": group.label,
        "order": group.order,
        "verified": group.verified,
        "generators": [[list(row) for row in g.mult] for g in group.generators],
    }
    return _emit(args, doc, [summary])


def cmd_k0(args):
    form = _load_form(args.file)
    group = k0(form)
    doc = {
        "rank": group.rank,
        "blocks": list(group.blocks),
        "objects": {name: list(cls) for name, cls in group.object_classes},
    }
    lines = [f"free abelian of rank {group.rank} on blocks: "
             + ", ".join(group.blocks)]
    return _emit(args, doc, lines + _class_lines(group.object_classes))


def cmd_tensor(args):
    fa = _load_form(args.a)
    fb = _load_form(args.b)
    product = tensor(fa, fb)
    doc = jsonio.semisimple_form_to_json(product)
    lines = [f"tensor product has {product.k} block(s): "
             + ", ".join(product.blocks)]
    return _emit(args, doc, lines + _class_lines(product.object_classes))


def cmd_k0_ring(args):
    form = _load_form(args.file)
    try:
        ring = k0_ring(form)
    except NotCommutativeProductForm as exc:
        raise CommandError(str(exc)) from None
    doc = {
        "rank": ring.rank,
        "unit": list(ring.unit()),
        "pointwise": True,
    }
    lines = [
        f"K0 ring: pointwise multiplication on Z^{ring.rank}, "
        f"unit {_class_str(ring.unit())}"
    ]
    return _emit(args, doc, lines)


def cmd_universal(args):
    try:
        pres = (
            build_universal(args.kind)
            if args.n is None
            else build_universal(args.kind, args.n)
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    doc = jsonio.presentation_to_json(pres)
    lines = [
        f"presentation {pres.name}: {len(pres.vertices)} object(s), "
        f"{len(pres.arrows)} arrow(s), {len(pres.relations)} relation(s)"
    ]
    if pres.vertices:
        lines.append("objects: " + ", ".join(pres.vertices))
    for a in pres.arrows:
        lines.append(f"  arrow {a.name}: {a.src} -> {a.tgt}")
    for r in pres.relations:
        lines.append(f"  relation {r}")
    return _emit(args, doc, lines)


def cmd_pushout(args):
    cat = _load_concrete(args.file)
    if args.interval is not None:
        try:
            po = pushout_interval(cat, args.interval)
        except (KeyError, ValueError) as exc:
            raise CommandError(str(exc)) from None
        doc = {
            "category": jsonio.category_to_json(po.category),
            "original": po.x0,
            "copy": po.x1,
        }
        lines = [
            f"adjoined {po.x1}, a unitarily isomorphic copy of {po.x0}",
            "objects now: " + ", ".join(po.category.object_names()),
        ]
        return _emit(args, doc, lines)
    g_doc = _load_json(args.rn)
    objects_doc = g_doc.get("objects") if isinstance(g_doc, dict) else None
    if not isinstance(objects_doc, dict):
        raise CommandError(
            f'{args.rn}: a projection assignment needs an "objects" mapping'
        )
    n = len(objects_doc)
    pres = build_universal("P", n) if n > 0 else build_universal("F", 0)
    asg = _parse(args.rn, jsonio.assignment_from_json, g_doc, cat, pres, "$")
    try:
        po = pushout_rn(cat, asg)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    doc = {
        "category": jsonio.category_to_json(po.category),
        "range": po.r_name,
        "word": list(po.word),
        "projection": jsonio.matrix_to_json(po.proj),
    }
    lines = [
        f"adjoined range object {po.r_name} for a rank-{po.proj.rank()} "
        f"projection over word ({', '.join(po.word)})",
        "objects now: " + ", ".join(po.category.object_names()),
    ]
    return _emit(args, doc, lines)


def cmd_fibrancy_probe(args):
    cat = _load_concrete(args.file)
    report = fibrancy_probe(cat)
    doc = {
        "target": report.target_kind,
        "verdict": report.verdict,
        "all_pass": report.all_pass,
        "zero": {"ok": report.zero.ok},
        "sums": [
            {"pair": list(p.pair), "ok": p.ok} for p in report.sums
        ],
        "splittings": [
            {
                "object": p.base_object,
                "class": list(p.class_vector),
                "ok": p.ok,
            }
            for p in report.splittings
        ],
        "failing": report.failing(),
    }
    lines = [f"verdict: {report.verdict}"]
    if report.all_pass:
        lines.append(
            f"all probes passed ({len(report.sums)} sum(s), "
            f"{len(report.splittings)} splitting(s))"
        )
    else:
        lines.extend(f"  failing: {item}" for item in report.failing())
    return _emit(args, doc, lines, EXIT_OK if report.all_pass else EXIT_NO)


def cmd_lift_check(args):
    value = _load_value(args.functor)
    if not isinstance(value, StarFunctor) or isinstance(value.target, LazySaturation):
        raise CommandError(f'{args.functor}: a "functor" document is required')
    square = _parse(args.square, jsonio.square_from_json, _load_json(args.square), value)
    try:
        if isinstance(square, LiftSquare):
            family = "R"
            lift = rlp_lift(value, square)
        else:
            family = "S"
            lift = sum_lift(value, square)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    if lift is None:
        doc = {"family": family, "n": square.n, "found": False, "lift": None}
        return _emit(args, doc, ["no lift"], EXIT_NO)
    doc = {
        "family": family,
        "n": square.n,
        "found": True,
        "lift": jsonio.assignment_to_json(lift),
    }
    lines = ["lift found; object images:"]
    for vertex, image in lift.objects:
        lines.append(f"  {vertex} -> {image}")
    return _emit(args, doc, lines)


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="moritacat",
        description=(
            "Exact computations with finite-dimensional *-categories over "
            "the Gaussian rationals: completions, Morita equivalence, "
            "homotopy classes, K-theory."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )

    sub = parser.add_subparsers(dest="verb", metavar="VERB")
    sub.required = True

    p = sub.add_parser(
        "validate",
        parents=[common],
        help="parse a document and check every structural invariant",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "decompose",
        parents=[common],
        help="block decomposition of a category",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "saturate",
        parents=[common],
        help="query the saturation of a category",
    )
    p.add_argument("file")
    p.add_argument(
        "--object", metavar="OBJ", help="validate a saturation-object document"
    )
    p.add_argument(
        "--hom",
        nargs=2,
        metavar=("SRC", "TGT"),
        help="hom-space basis between two saturation objects",
    )
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser(
        "morita",
        parents=[common],
        help="decide Morita equivalence of two categories",
    )
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_morita)

    p = sub.add_parser(
        "hom",
        parents=[common],
        help="the homotopy-category hom monoid between two categories",
    )
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--bound",
        type=int,
        default=None,
        help="also count the elements with entry sum at most BOUND",
    )
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser(
        "compose",
        parents=[common],
        help="compose two homotopy classes (first applied first)",
    )
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser(
        "picard",
        parents=[common],
        help="the Picard group (homotopy self-equivalences) of a category",
    )
    p.add_argument("file")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-derive the group by exhaustive enumeration",
    )
    p.add_argument(
        "--bound",
        type=int,
        default=2,
        help="entry bound of the --verify enumeration (default 2)",
    )
    p.set_defaults(func=cmd_picard)

    p = sub.add_parser(
        "k0", parents=[common], help="the K0 group of a category"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser(
        "tensor",
        parents=[common],
        help="the tensor product of two categories, in semisimple form",
    )
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser(
        "k0-ring",
        parents=[common],
        help="the ring structure on K0 of a product of base fields",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_k0_ring)

    p = sub.add_parser(
        "universal",
        parents=[common],
        help="emit a standard generating presentation",
    )
    p.add_argument(
        "kind", choices=["F", "S", "P", "R", "SP", "SR", "I", "0"]
    )
    p.add_argument("n", nargs="?", type=int, default=None)
    p.set_defaults(func=cmd_universal)

    p = sub.add_parser(
        "pushout",
        parents=[common],
        help="adjoin an interval copy or a range object to a category",
    )
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--interval", metavar="OBJECT", help="adjoin a unitary copy of OBJECT"
    )
    group.add_argument(
        "--rn",
        metavar="ASSIGNMENT",
        help="adjoin a range object for a projection-matrix assignment",
    )
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser(
        "fibrancy-probe",
        parents=[common],
        help="probe a category for zero objects, sums, and splittings",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_fibrancy_probe)

    p = sub.add_parser(
        "lift-check",
        parents=[common],
        help="search for a lift of a square through a functor",
    )
    p.add_argument("functor")
    p.add_argument("square")
    p.set_defaults(func=cmd_lift_check)

    return parser


def main(argv=None) -> int:
    # Reports use non-ASCII symbols; do not depend on the caller's locale.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        return args.func(args)
    except CommandError as exc:
        return _emit_error(args, str(exc))
    except NotSplitOverBaseField as exc:
        return _emit_error(
            args,
            "the category does not split over the Gaussian rationals: "
            f"hermitian element with minimal polynomial {exc.polynomial}",
            extra={"polynomial": exc.polynomial},
            code=EXIT_NOT_SPLIT,
        )


if __name__ == "__main__":
    sys.exit(main())
