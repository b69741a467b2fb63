"""JSON Schemas (draft-07) for every file format the CLI accepts or emits.

The same dictionaries are shipped under ``docs/schemas/`` and honored
bit-exactly: loaders validate against them.  ``_record`` builds every object
schema, closed with ``additionalProperties: false``, so an unknown field is
refused at any depth; the one open object is ``monomial.cover_symbols``, a
map from orders to symbol names.

Shared sub-schemas live once in ``DEFINITIONS`` and are referenced by
``$ref``; ``document`` makes a standalone file (``JOB``, ``all_schemas``)
of a fragment such as ``RESOLUTION`` by adding what it reaches.
"""

from __future__ import annotations

from .registry import MORPHISM_KINDS


def _ref(name: str) -> dict:
    return {"$ref": f"#/definitions/{name}"}


def _record(required: list[str], **properties) -> dict:
    """A closed object schema; ``required`` is left out when empty."""
    return {"type": "object", "additionalProperties": False,
            **({"required": required} if required else {}),
            "properties": properties}


def _list(items: dict, **extra) -> dict:
    return {"type": "array", "items": items, **extra}


def _or_null(schema: dict) -> dict:
    return {"oneOf": [{"type": "null"}, schema]}


def _int(minimum: int | None = None) -> dict:
    return {"type": "integer",
            **({} if minimum is None else {"minimum": minimum})}


_STR = {"type": "string"}
_BOOL = {"type": "boolean"}
_NAME_LIST = _list(_STR)
_MOTIVE = _ref("motive")
_OPT_MOTIVE = _ref("optional_motive")
_DIV_CLASSES = _list(_ref("divisor_class"))


MOTIVE = _record(
    ["space", "terms"], space=_STR,
    terms=_list(_record(["monomial", "bundle", "coeff"],
                        monomial=_NAME_LIST, bundle=_NAME_LIST,
                        coeff=_list(_list(_int(), minItems=2, maxItems=2)))))

# no ``$id`` here: embedded in ``JOB``, it would become the base of its $refs
REGISTRY = _record(
    ["schema"],
    schema={"const": "motivic.registry/1"},
    spaces=_list(_record(["name"], name=_STR, dim=_or_null(_int(0)),
                         strata=_NAME_LIST)),
    generators=_list(_record(["space", "names"], space=_STR,
                             names=_NAME_LIST)),
    symbols=_list(_record(["name", "space"], name=_STR, space=_STR,
                          order=_int(1), underlying=_OPT_MOTIVE,
                          cover=_or_null(_NAME_LIST))),
    morphisms=_list(_record(
        ["name", "source", "target"], name=_STR, source=_STR, target=_STR,
        kind={"enum": list(MORPHISM_KINDS)},
        pull_symbols=_list(_record(["symbol", "image"], symbol=_STR,
                                   image=_MOTIVE)),
        pull_bundles=_list(_record(["generator", "image"], generator=_STR,
                                   image=_NAME_LIST)),
        push_classes=_list(_record(["monomial", "bundle", "image"],
                                   monomial=_NAME_LIST, bundle=_NAME_LIST,
                                   cover=_BOOL, image=_MOTIVE)))),
    products=_list(_record(["name", "left", "right"], name=_STR, left=_STR,
                           right=_STR)),
    square_roots=_list(_record(
        ["space", "line_bundle", "trivialization", "class"], space=_STR,
        line_bundle=_STR, trivialization=_STR, **{"class": _NAME_LIST})),
)

RESOLUTION = _record(
    ["kind", "space_u0", "dim_u", "divisors", "strata"],
    kind={"const": "resolution"},
    space_u0=_STR,
    dim_u=_int(1),
    divisors=_list(_record(["id", "N", "nu"], id=_STR, N=_int(1), nu=_int(1),
                           boundary=_BOOL)),
    strata=_list(_record(["divisors", "cover_order", "class"],
                         divisors=_NAME_LIST, cover_order=_int(1),
                         **{"class": _MOTIVE})),
    critical_values=_list(_record(["value"], value=_STR,
                                  space=_or_null(_STR), ambient=_OPT_MOTIVE,
                                  classes=_DIV_CLASSES)),
    points=_list(_record(["label", "value", "classes"], label=_STR,
                         value=_STR, classes=_DIV_CLASSES)),
    constant=_BOOL,
)

MONOMIAL = _record(
    ["kind", "exponents", "base_space"],
    kind={"const": "monomial"},
    exponents=_list(_int(1)),
    unit_vars=_list(_int(0)),
    base_space=_STR,
    unit_generators=_NAME_LIST,
    # the one open object: order -> symbol name
    cover_symbols={"type": "object", "additionalProperties": _STR},
)

ATLAS = _record(
    ["kind", "regions", "charts"],
    kind={"const": "atlas"},
    regions=_list(_record(["name", "space"], name=_STR, space=_STR)),
    charts=_list(_record(
        ["id", "region", "dim_u", "mf", "Q"], id=_STR, region=_STR,
        dim_u=_int(0),
        mf={"oneOf": [_MOTIVE, _record(["vanishing_of"],
                                       vanishing_of=_ref("resolution"),
                                       critical_value=_STR)]},
        Q=_NAME_LIST)),
    overlaps=_list(_record(
        ["chart_a", "chart_b", "region", "p_a", "p_b", "q_t"],
        chart_a=_STR, chart_b=_STR, region=_STR, p_a=_NAME_LIST,
        p_b=_NAME_LIST, q_t=_NAME_LIST, restrict_a=_or_null(_STR),
        restrict_b=_or_null(_STR), mf_t=_OPT_MOTIVE)),
    oriented=_BOOL,
    scissor=_or_null(_list(_record(
        ["region", "entries"], region=_STR, sign={"enum": [1, -1]},
        entries=_list(_record(["monomial", "bundle", "class"],
                              monomial=_NAME_LIST, bundle=_NAME_LIST,
                              **{"class": _MOTIVE}))))),
)

FIXEDPOINTS = _record(
    ["kind", "components"],
    kind={"const": "fixedpoints"},
    components=_list(_record(["id", "weights"], id=_STR, weights=_list(_int()),
                             motive=_OPT_MOTIVE, good=_BOOL,
                             circle_compact=_BOOL)),
    direct=_OPT_MOTIVE,
    direct_atlas=_or_null(_ref("atlas")),
)

ARC_CHECK = _record(["kind", "monomial", "resolution"],
                    kind={"const": "arc-check"}, monomial=_ref("monomial"),
                    resolution=_ref("resolution"))

TS = _record(["kind", "factors"], kind={"const": "ts"},
             factors=_list(_MOTIVE, minItems=1))

DEFINITIONS = {
    "motive": MOTIVE,
    "optional_motive": _or_null(_MOTIVE),
    "divisor_class": _record(["divisors", "class"], divisors=_NAME_LIST,
                             **{"class": _MOTIVE}),
    "resolution": RESOLUTION,
    "monomial": MONOMIAL,
    "atlas": ATLAS,
}


def document(schema: dict, id_: str | None = None) -> dict:
    """``schema`` as a standalone file, with the ``DEFINITIONS`` it reaches
    (also through other definitions) and ``$schema``/``$id`` given an id."""
    reached: dict = {}
    todo = [schema]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            name = node.get("$ref", "").removeprefix("#/definitions/")
            if name and name not in reached:
                reached[name] = DEFINITIONS[name]
                todo.append(reached[name])
            todo.extend(node.values())
        elif isinstance(node, list):
            todo.extend(node)
    head = {"$schema": "http://json-schema.org/draft-07/schema#",
            "$id": id_} if id_ else {}
    return {**head, **schema, **({"definitions": reached} if reached else {})}


JOB = document(_record(
    ["schema", "registry", "payload"],
    schema={"const": "motivic.job/1"},
    registry=REGISTRY,
    payload={"oneOf": [_ref("resolution"), _ref("monomial"), _ref("atlas"),
                       FIXEDPOINTS, ARC_CHECK, TS]},
    params=_record([], series_order=_int(0), critical_value=_STR),
), "motivic.job/1")


def all_schemas() -> dict:
    """Every shipped schema document by file name.  Only ``JOB`` is built at
    import, since it is all a CLI process validates against; the others are
    built here, for ``write_schema_files`` and the tests."""
    return {
        "registry": document(REGISTRY, "motivic.registry/1"),
        "motive": document(MOTIVE, "motivic.motive/1"),
        "resolution": document(RESOLUTION),
        "monomial": document(MONOMIAL),
        "atlas": document(ATLAS),
        "fixedpoints": document(FIXEDPOINTS),
        "arc-check": document(ARC_CHECK),
        "ts": document(TS),
        "job": JOB,
    }


def write_schema_files(directory) -> None:
    """Write each schema to ``directory/<name>.json`` as the shipped files
    are written: indent 1, sorted keys, a final newline."""
    import json
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in all_schemas().items():
        (out / f"{name}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if len(sys.argv) == 3 and sys.argv[1] == "--write":
        write_schema_files(sys.argv[2])
    else:
        print("usage: python -m motivic.schemas --write DIR", file=sys.stderr)
        sys.exit(2)
