"""JSON reading and writing for every value the command line handles.

Documents carry a top-level "kind" discriminator: "concrete" for a
category given by objects and matrix hom spans, "semisimple" for a
category given by blocks and multiplicities, "functor" for a *-functor
between concrete categories, "saturation-functor" for one landing in a
saturation, "presentation" for a quiver with relations, and
"ho-morphism" for a homotopy-class matrix.  Matrices are row-major
nested arrays of canonical scalar strings; scalars that are not in
lowest terms are rejected rather than silently normalized.

Parsing is strict: every violation raises SchemaError, which names the
offending location (a JSON-pointer-style path) and the violated rule.
Serialization emits canonical forms, so parse(serialize(v)) == v holds
exactly for each supported value type.
"""

from __future__ import annotations

import json

from .completion import LazySaturation, ProjObject
from .homotopy import ClassMatrix, ho_morphism
from .presentations import (
    Arrow,
    Assignment,
    LiftSquare,
    Presentation,
    Relation,
    SumSquare,
    Term,
    assignment,
    build_universal,
    presentation,
)
from .scalar import (
    ExactMatrix,
    ScalarFormatError,
    format_scalar,
    parse_scalar,
)
from .semisimple import SemisimpleForm
from .starcat import ConcreteStarCategory, StarFunctor, star_category, star_functor


class SchemaError(ValueError):
    """A document violates the input schema; carries the location and
    the violated rule."""

    def __init__(self, pointer: str, rule: str):
        super().__init__(f"at {pointer}: {rule}")
        self.pointer = pointer
        self.rule = rule


def dumps(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing
    newline.  Identical values serialize to identical bytes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require(cond: bool, pointer: str, rule: str):
    if not cond:
        raise SchemaError(pointer, rule)


def _as_dict(doc, pointer):
    _require(isinstance(doc, dict), pointer, "an object is required")
    return doc


def _as_list(doc, pointer):
    _require(isinstance(doc, list), pointer, "an array is required")
    return doc


def _as_str(doc, pointer):
    _require(isinstance(doc, str), pointer, "a string is required")
    return doc


def _as_int(doc, pointer):
    _require(type(doc) is int, pointer, "an integer is required")
    return doc


def _field(doc, key, pointer):
    _as_dict(doc, pointer)
    _require(key in doc, pointer, f'the "{key}" field is required')
    return doc[key]


def _kind_of(doc, pointer):
    return _as_str(_field(doc, "kind", pointer), f"{pointer}.kind")


def _expect_kind(doc, pointer, kind):
    _require(
        _kind_of(doc, pointer) == kind, f"{pointer}.kind", f'kind "{kind}" is required'
    )


def _scalar(doc, pointer):
    """Parse a scalar string; a malformed one is a schema error."""
    try:
        return parse_scalar(_as_str(doc, pointer))
    except ScalarFormatError as exc:
        raise SchemaError(
            pointer,
            "scalar strings must be canonical lowest-terms "
            f'("a/b" or "a/b+c/d*i"): {exc}',
        ) from None


def _object_name(name, pointer):
    _as_str(name, pointer)
    _require(name != "", pointer, "object names must be nonempty")
    _require("->" not in name, pointer, 'object names must not contain "->"')
    return name


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(m: ExactMatrix):
    return [
        [format_scalar(m.entry(i, j)) for j in range(m.cols)]
        for i in range(m.rows)
    ]


def matrix_from_json(doc, rows: int, cols: int, pointer: str) -> ExactMatrix:
    """Parse a row-major nested array of canonical scalar strings with
    a known expected shape (the shape is always determined by the
    surrounding document)."""
    _as_list(doc, pointer)
    _require(
        len(doc) == rows, pointer, f"a matrix with {rows} rows is required"
    )
    entries = []
    for i, row in enumerate(doc):
        _as_list(row, f"{pointer}[{i}]")
        _require(
            len(row) == cols,
            f"{pointer}[{i}]",
            f"a row of {cols} entries is required",
        )
        for j, cell in enumerate(row):
            entries.append(_scalar(cell, f"{pointer}[{i}][{j}]"))
    return ExactMatrix(rows, cols, tuple(entries))


# ---------------------------------------------------------------------------
# concrete categories


def _pair_key(src: str, tgt: str) -> str:
    return f"{src}->{tgt}"


def category_to_json(cat: ConcreteStarCategory):
    objects = []
    for o in cat.objects:
        _object_name(o.name, "$.objects")
        decl = {"name": o.name, "dim": o.dim}
        if o.unit != ExactMatrix.identity(o.dim):
            decl["unit"] = matrix_to_json(o.unit)
        objects.append(decl)
    homs = {}
    for (src, tgt), mats in cat.homs:
        homs[_pair_key(src, tgt)] = [matrix_to_json(m) for m in mats]
    return {"kind": "concrete", "objects": objects, "homs": homs}


def category_from_json(doc, pointer: str = "$") -> ConcreteStarCategory:
    _expect_kind(doc, pointer, "concrete")
    decls_doc = _as_list(_field(doc, "objects", pointer), f"{pointer}.objects")
    decls = []
    dims = {}
    units = {}
    for i, od in enumerate(decls_doc):
        here = f"{pointer}.objects[{i}]"
        name = _object_name(_field(od, "name", here), f"{here}.name")
        _require(name not in dims, f"{here}.name", "object names must be unique")
        dim = _as_int(_field(od, "dim", here), f"{here}.dim")
        _require(dim >= 0, f"{here}.dim", "dimensions must be nonnegative")
        if "unit" in od:
            unit = matrix_from_json(od["unit"], dim, dim, f"{here}.unit")
        else:
            unit = ExactMatrix.identity(dim)
        dims[name] = dim
        units[name] = unit
        decls.append((name, dim, unit))
    homs_doc = doc.get("homs", {})
    _as_dict(homs_doc, f"{pointer}.homs")
    homs = {}
    for key in homs_doc:
        here = f"{pointer}.homs[{key!r}]"
        parts = key.split("->")
        _require(
            len(parts) == 2 and parts[0] in dims and parts[1] in dims,
            here,
            'hom keys must be "src->tgt" over declared object names',
        )
        src, tgt = parts
        mats_doc = _as_list(homs_doc[key], here)
        homs[(src, tgt)] = [
            matrix_from_json(m, dims[tgt], dims[src], f"{here}[{i}]")
            for i, m in enumerate(mats_doc)
        ]
    # An omitted "x->x" span implicitly contains the object's identity;
    # an explicitly given one is taken literally, so validation can
    # still catch endomorphism spans that omit their unit.
    for name in dims:
        if (name, name) not in homs:
            homs[(name, name)] = [units[name]]
    return star_category(decls, homs)


# ---------------------------------------------------------------------------
# semisimple forms


def semisimple_form_to_json(form: SemisimpleForm):
    return {
        "kind": "semisimple",
        "blocks": list(form.blocks),
        "objects": [
            {"name": name, "mult": list(cls)}
            for name, cls in form.object_classes
        ],
    }


def semisimple_form_from_json(doc, pointer: str = "$") -> SemisimpleForm:
    _expect_kind(doc, pointer, "semisimple")
    blocks_doc = _as_list(_field(doc, "blocks", pointer), f"{pointer}.blocks")
    blocks = []
    for i, b in enumerate(blocks_doc):
        here = f"{pointer}.blocks[{i}]"
        _as_str(b, here)
        _require(b not in blocks, here, "block names must be unique")
        blocks.append(b)
    objs_doc = _as_list(_field(doc, "objects", pointer), f"{pointer}.objects")
    classes = []
    seen = set()
    for i, od in enumerate(objs_doc):
        here = f"{pointer}.objects[{i}]"
        name = _as_str(_field(od, "name", here), f"{here}.name")
        _require(name not in seen, f"{here}.name", "object names must be unique")
        seen.add(name)
        mult_doc = _as_list(_field(od, "mult", here), f"{here}.mult")
        _require(
            len(mult_doc) == len(blocks),
            f"{here}.mult",
            "one multiplicity per block is required",
        )
        mult = []
        for j, m in enumerate(mult_doc):
            _as_int(m, f"{here}.mult[{j}]")
            _require(
                m >= 0, f"{here}.mult[{j}]", "multiplicities must be nonnegative"
            )
            mult.append(m)
        classes.append((name, tuple(mult)))
    for j, b in enumerate(blocks):
        _require(
            any(cls[j] > 0 for _, cls in classes),
            f"{pointer}.blocks[{j}]",
            f'no phantom blocks: some object must meet block "{b}"',
        )
    return SemisimpleForm(tuple(blocks), tuple(classes))


# ---------------------------------------------------------------------------
# saturation objects


def proj_object_to_json(obj: ProjObject):
    return {"word": list(obj.word), "proj": matrix_to_json(obj.proj)}


def proj_object_from_json(
    doc, base: ConcreteStarCategory, pointer: str = "$"
) -> ProjObject:
    word_doc = _as_list(_field(doc, "word", pointer), f"{pointer}.word")
    word = []
    for i, letter in enumerate(word_doc):
        here = f"{pointer}.word[{i}]"
        _as_str(letter, here)
        _require(
            base.has_object(letter),
            here,
            "word letters must name objects of the base category",
        )
        word.append(letter)
    total = sum(base.dim(x) for x in word)
    proj = matrix_from_json(_field(doc, "proj", pointer), total, total, f"{pointer}.proj")
    return ProjObject(tuple(word), proj)


# ---------------------------------------------------------------------------
# functors


def functor_to_json(f: StarFunctor):
    """A "functor" document, or a "saturation-functor" document when f
    lands in a saturation (its target is then the saturation's base and
    object images are saturation objects)."""
    if isinstance(f.target, LazySaturation):
        kind, target = "saturation-functor", f.target.base
        objects = {src: proj_object_to_json(o) for src, o in f.object_map}
    else:
        kind, target = "functor", f.target
        objects = dict(f.object_map)
    arrows = {}
    for (src, tgt), mats in f.arrow_map:
        arrows[_pair_key(src, tgt)] = [matrix_to_json(m) for m in mats]
    return {
        "kind": kind,
        "source": category_to_json(f.source),
        "target": category_to_json(target),
        "objects": objects,
        "arrows": arrows,
    }



def _parse_arrow_images(doc, source, pointer, target, object_map):
    """The arrow-image lists of a functor document, keyed and sized by
    the source's nonzero hom spans and the image objects."""
    arrows_doc = _as_dict(doc.get("arrows", {}), f"{pointer}.arrows")
    expected = {
        _pair_key(x, y): (x, y)
        for x, y in source.pairs()
        if source.hom_basis(x, y)
    }
    for key in arrows_doc:
        _require(
            key in expected,
            f"{pointer}.arrows[{key!r}]",
            'arrow keys must be "src->tgt" over nonzero hom spans of the source',
        )
    arrow_map = {}
    for key, (x, y) in expected.items():
        here = f"{pointer}.arrows[{key!r}]"
        _require(key in arrows_doc, here, f'the "{key}" arrow images are required')
        images_doc = _as_list(arrows_doc[key], here)
        basis = source.hom_basis(x, y)
        _require(
            len(images_doc) == len(basis),
            here,
            f"one image per basis element is required ({len(basis)})",
        )
        rows, cols = target.dim(object_map[y]), target.dim(object_map[x])
        arrow_map[(x, y)] = [
            matrix_from_json(m, rows, cols, f"{here}[{i}]")
            for i, m in enumerate(images_doc)
        ]
    return arrow_map


def _functor_from_json(doc, pointer, kind) -> StarFunctor:
    _expect_kind(doc, pointer, kind)
    source = category_from_json(_field(doc, "source", pointer), f"{pointer}.source")
    base = category_from_json(_field(doc, "target", pointer), f"{pointer}.target")
    target = LazySaturation(base) if kind == "saturation-functor" else base
    objects_doc = _as_dict(_field(doc, "objects", pointer), f"{pointer}.objects")
    object_map = {}
    for name in source.object_names():
        here = f"{pointer}.objects[{name!r}]"
        _require(name in objects_doc, here, "every source object needs an image")
        if kind == "saturation-functor":
            image = proj_object_from_json(objects_doc[name], base, here)
        else:
            image = _as_str(objects_doc[name], here)
            _require(base.has_object(image), here, "images must name objects of the target")
        object_map[name] = image
    for name in objects_doc:
        _require(
            source.has_object(name),
            f"{pointer}.objects[{name!r}]",
            "object keys must name objects of the source",
        )
    arrow_map = _parse_arrow_images(doc, source, pointer, target, object_map)
    return star_functor(source, target, object_map, arrow_map)


def functor_from_json(doc, pointer: str = "$") -> StarFunctor:
    return _functor_from_json(doc, pointer, "functor")


def saturation_functor_from_json(doc, pointer: str = "$") -> StarFunctor:
    return _functor_from_json(doc, pointer, "saturation-functor")


# ---------------------------------------------------------------------------
# homotopy-class matrices


def ho_morphism_to_json(h: ClassMatrix):
    if not h.is_effective():
        raise TypeError("no document form for a class matrix with negative entries")
    return {
        "kind": "ho-morphism",
        "source": semisimple_form_to_json(h.source_form),
        "target": semisimple_form_to_json(h.target_form),
        "mult": [list(row) for row in h.mult],
    }


def ho_morphism_from_json(doc, pointer: str = "$") -> ClassMatrix:
    _expect_kind(doc, pointer, "ho-morphism")
    source = semisimple_form_from_json(
        _field(doc, "source", pointer), f"{pointer}.source"
    )
    target = semisimple_form_from_json(
        _field(doc, "target", pointer), f"{pointer}.target"
    )
    mult_doc = _as_list(_field(doc, "mult", pointer), f"{pointer}.mult")
    _require(
        len(mult_doc) == target.k,
        f"{pointer}.mult",
        "one row per target block is required",
    )
    rows = []
    for i, row in enumerate(mult_doc):
        here = f"{pointer}.mult[{i}]"
        _as_list(row, here)
        _require(
            len(row) == source.k, here, "one column per source block is required"
        )
        for j, e in enumerate(row):
            _as_int(e, f"{here}[{j}]")
            _require(
                e >= 0, f"{here}[{j}]", "multiplicities must be nonnegative"
            )
        rows.append(tuple(row))
    return ho_morphism(source, target, tuple(rows))


# ---------------------------------------------------------------------------
# presentations


def term_to_json(t: Term):
    if t.kind == "gen":
        return {"kind": "gen", "name": t.name}
    if t.kind == "id":
        return {"kind": "id", "object": t.name}
    if t.kind == "adj":
        return {"kind": "adj", "term": term_to_json(t.terms[0])}
    if t.kind == "comp":
        return {"kind": "comp", "terms": [term_to_json(s) for s in t.terms]}
    if t.kind == "sum":
        out = {"kind": "sum", "terms": [term_to_json(s) for s in t.terms]}
        if t.src is not None:
            out["src"] = t.src
        if t.tgt is not None:
            out["tgt"] = t.tgt
        return out
    if t.kind == "scalar":
        return {
            "kind": "scalar",
            "coeff": format_scalar(t.coeff),
            "term": term_to_json(t.terms[0]),
        }
    raise ValueError(f"unknown term kind {t.kind!r}")


def term_from_json(doc, pointer: str) -> Term:
    kind = _kind_of(doc, pointer)
    if kind == "gen":
        return Term("gen", name=_as_str(_field(doc, "name", pointer), f"{pointer}.name"))
    if kind == "id":
        return Term(
            "id", name=_as_str(_field(doc, "object", pointer), f"{pointer}.object")
        )
    if kind == "adj":
        return Term(
            "adj", terms=(term_from_json(_field(doc, "term", pointer), f"{pointer}.term"),)
        )
    if kind in ("comp", "sum"):
        terms_doc = _as_list(_field(doc, "terms", pointer), f"{pointer}.terms")
        terms = tuple(
            term_from_json(s, f"{pointer}.terms[{i}]")
            for i, s in enumerate(terms_doc)
        )
        if kind == "comp":
            _require(
                len(terms) >= 1, f"{pointer}.terms", "compositions must be nonempty"
            )
            # A one-factor composition is the factor itself; collapsing
            # keeps parsed terms equal to constructor-built ones.
            return terms[0] if len(terms) == 1 else Term("comp", terms=terms)
        src = doc.get("src")
        tgt = doc.get("tgt")
        if src is not None:
            _as_str(src, f"{pointer}.src")
        if tgt is not None:
            _as_str(tgt, f"{pointer}.tgt")
        _require(
            terms or (src is not None and tgt is not None),
            pointer,
            "empty sums must carry src and tgt vertices",
        )
        return Term("sum", terms=terms, src=src, tgt=tgt)
    if kind == "scalar":
        coeff = _scalar(_field(doc, "coeff", pointer), f"{pointer}.coeff")
        return Term(
            "scalar",
            terms=(term_from_json(_field(doc, "term", pointer), f"{pointer}.term"),),
            coeff=coeff,
        )
    raise SchemaError(
        f"{pointer}.kind",
        'term kinds are "gen", "id", "adj", "comp", "sum", and "scalar"',
    )


def presentation_to_json(pres: Presentation):
    return {
        "kind": "presentation",
        "name": pres.name,
        "objects": list(pres.vertices),
        "arrows": [
            {"name": a.name, "src": a.src, "tgt": a.tgt} for a in pres.arrows
        ],
        "relations": [
            {
                "label": r.label,
                "lhs": term_to_json(r.lhs),
                "rhs": term_to_json(r.rhs),
            }
            for r in pres.relations
        ],
    }


def presentation_from_json(doc, pointer: str = "$") -> Presentation:
    _expect_kind(doc, pointer, "presentation")
    name = _as_str(_field(doc, "name", pointer), f"{pointer}.name")
    vertices_doc = _as_list(_field(doc, "objects", pointer), f"{pointer}.objects")
    vertices = [
        _as_str(v, f"{pointer}.objects[{i}]") for i, v in enumerate(vertices_doc)
    ]
    arrows_doc = _as_list(_field(doc, "arrows", pointer), f"{pointer}.arrows")
    arrows = []
    for i, ad in enumerate(arrows_doc):
        here = f"{pointer}.arrows[{i}]"
        arrows.append(
            Arrow(
                _as_str(_field(ad, "name", here), f"{here}.name"),
                _as_str(_field(ad, "src", here), f"{here}.src"),
                _as_str(_field(ad, "tgt", here), f"{here}.tgt"),
            )
        )
    relations_doc = _as_list(
        _field(doc, "relations", pointer), f"{pointer}.relations"
    )
    relations = []
    for i, rd in enumerate(relations_doc):
        here = f"{pointer}.relations[{i}]"
        relations.append(
            Relation(
                _as_str(_field(rd, "label", here), f"{here}.label"),
                term_from_json(_field(rd, "lhs", here), f"{here}.lhs"),
                term_from_json(_field(rd, "rhs", here), f"{here}.rhs"),
            )
        )
    try:
        return presentation(name, vertices, arrows, relations)
    except (ValueError, KeyError) as exc:
        raise SchemaError(pointer, f"not a well-typed presentation: {exc}") from None


# ---------------------------------------------------------------------------
# assignments and lifting squares


def assignment_to_json(asg: Assignment):
    return {
        "objects": {v: o for v, o in asg.objects},
        "arrows": {a: matrix_to_json(m) for a, m in asg.arrows},
    }


def assignment_from_json(
    doc, target: ConcreteStarCategory, pres: Presentation, pointer: str
) -> Assignment:
    """Parse a representation of ``pres`` in a concrete category: one
    target object per vertex, one matrix per arrow, shapes determined
    by the vertex images."""
    objects_doc = _as_dict(_field(doc, "objects", pointer), f"{pointer}.objects")
    objects = {}
    for v in pres.vertices:
        here = f"{pointer}.objects[{v!r}]"
        _require(v in objects_doc, here, f'vertex "{v}" needs an object')
        image = _as_str(objects_doc[v], here)
        _require(
            target.has_object(image),
            here,
            "images must name objects of the target category",
        )
        objects[v] = image
    for v in objects_doc:
        _require(
            pres.has_vertex(v),
            f"{pointer}.objects[{v!r}]",
            "object keys must be vertices of the presentation",
        )
    arrows_doc = _as_dict(doc.get("arrows", {}), f"{pointer}.arrows")
    arrows = {}
    for a in pres.arrows:
        here = f"{pointer}.arrows[{a.name!r}]"
        _require(a.name in arrows_doc, here, f'arrow "{a.name}" needs a matrix')
        arrows[a.name] = matrix_from_json(
            arrows_doc[a.name],
            target.dim(objects[a.tgt]),
            target.dim(objects[a.src]),
            here,
        )
    for a in arrows_doc:
        try:
            pres.arrow(a)
        except KeyError:
            raise SchemaError(
                f"{pointer}.arrows[{a!r}]",
                "arrow keys must be arrows of the presentation",
            ) from None
    return assignment(target, objects, arrows)


def square_to_json(square):
    if isinstance(square, LiftSquare):
        family = "R"
    elif isinstance(square, SumSquare):
        family = "S"
    else:
        raise TypeError("expected a lifting square")
    return {
        "kind": "square",
        "family": family,
        "n": square.n,
        "top": assignment_to_json(square.top),
        "bottom": assignment_to_json(square.bottom),
    }


def square_from_json(doc, f: StarFunctor, pointer: str = "$"):
    """Parse a lifting square against the functor it will be tested on:
    the top edge lands in f's source, the bottom in f's target."""
    _expect_kind(doc, pointer, "square")
    family = _as_str(_field(doc, "family", pointer), f"{pointer}.family")
    _require(
        family in ("R", "S"), f"{pointer}.family", 'the family is "R" or "S"'
    )
    n = _as_int(_field(doc, "n", pointer), f"{pointer}.n")
    _require(n >= 0, f"{pointer}.n", "n must be nonnegative")
    if family == "R":
        top_pres = (
            build_universal("P", n) if n > 0 else build_universal("F", 0)
        )
        bottom_pres = build_universal("R", n)
    else:
        _require(n >= 1, f"{pointer}.n", "direct-sum squares need n >= 1")
        top_pres = build_universal("F", n)
        bottom_pres = build_universal("S", n)
    top = assignment_from_json(
        _field(doc, "top", pointer), f.source, top_pres, f"{pointer}.top"
    )
    bottom = assignment_from_json(
        _field(doc, "bottom", pointer), f.target, bottom_pres, f"{pointer}.bottom"
    )
    if family == "R":
        return LiftSquare(n, top, bottom)
    return SumSquare(n, top, bottom)


# ---------------------------------------------------------------------------
# dispatch


_PARSERS = {
    "concrete": category_from_json,
    "semisimple": semisimple_form_from_json,
    "functor": functor_from_json,
    "saturation-functor": saturation_functor_from_json,
    "presentation": presentation_from_json,
    "ho-morphism": ho_morphism_from_json,
}


def parse_document(doc, pointer: str = "$"):
    """Parse any self-describing document by its "kind" field."""
    kind = _kind_of(doc, pointer)
    parser = _PARSERS.get(kind)
    if parser is None:
        known = ", ".join(sorted(_PARSERS))
        raise SchemaError(f"{pointer}.kind", f"unknown kind {kind!r} (known: {known})")
    return parser(doc, pointer)


def to_document(value):
    """Serialize any supported value to its document form."""
    if isinstance(value, ConcreteStarCategory):
        return category_to_json(value)
    if isinstance(value, SemisimpleForm):
        return semisimple_form_to_json(value)
    if isinstance(value, StarFunctor):
        return functor_to_json(value)
    if isinstance(value, Presentation):
        return presentation_to_json(value)
    if isinstance(value, ClassMatrix):
        return ho_morphism_to_json(value)
    raise TypeError(f"no document form for {type(value).__name__}")
