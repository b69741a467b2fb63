"""JSON Schemas (draft-07) for every file format the CLI accepts or emits.

The same dictionaries are shipped under ``docs/schemas/`` and honored
bit-exactly: loaders validate against them and unknown fields are rejected
through ``additionalProperties: false``.

Shared sub-schemas live once in ``DEFINITIONS`` and are referenced by
``$ref``; ``document`` makes a standalone file (``JOB``, ``all_schemas``)
of a fragment such as ``RESOLUTION`` by adding what it reaches.
"""

from __future__ import annotations


def _ref(name: str) -> dict:
    return {"$ref": f"#/definitions/{name}"}


_OPT_MOTIVE = _ref("optional_motive")
_DIV_CLASS = _ref("divisor_class")


MOTIVE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["space", "terms"],
    "properties": {
        "space": {"type": "string"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["monomial", "bundle", "coeff"],
                "properties": {
                    "monomial": {"type": "array", "items": {"type": "string"}},
                    "bundle": {"type": "array", "items": {"type": "string"}},
                    "coeff": {"type": "array", "items": {
                        "type": "array", "items": {"type": "integer"},
                        "minItems": 2, "maxItems": 2}},
                },
            },
        },
    },
}

_NAME_LIST = {"type": "array", "items": {"type": "string"}}

# no ``$id`` here: embedded in ``JOB``, it would become the base of its $refs
REGISTRY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema"],
    "properties": {
        "schema": {"const": "motivic.registry/1"},
        "spaces": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name"],
            "properties": {"name": {"type": "string"},
                           "dim": {"oneOf": [{"type": "null"},
                                             {"type": "integer", "minimum": 0}]},
                           "strata": _NAME_LIST}}},
        "generators": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["space", "names"],
            "properties": {"space": {"type": "string"}, "names": _NAME_LIST}}},
        "symbols": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name", "space"],
            "properties": {"name": {"type": "string"},
                           "space": {"type": "string"},
                           "order": {"type": "integer", "minimum": 1},
                           "underlying": _OPT_MOTIVE,
                           "cover": {"oneOf": [{"type": "null"}, _NAME_LIST]}}}},
        "morphisms": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name", "source", "target"],
            "properties": {
                "name": {"type": "string"}, "source": {"type": "string"},
                "target": {"type": "string"},
                "kind": {"enum": ["open-inclusion", "etale", "to-point",
                                  "general"]},
                "pull_symbols": {"type": "array", "items": {
                    "type": "object", "additionalProperties": False,
                    "required": ["symbol", "image"],
                    "properties": {"symbol": {"type": "string"},
                                   "image": _ref("motive")}}},
                "pull_bundles": {"type": "array", "items": {
                    "type": "object", "additionalProperties": False,
                    "required": ["generator", "image"],
                    "properties": {"generator": {"type": "string"},
                                   "image": _NAME_LIST}}},
                "push_classes": {"type": "array", "items": {
                    "type": "object", "additionalProperties": False,
                    "required": ["monomial", "bundle", "image"],
                    "properties": {"monomial": _NAME_LIST,
                                   "bundle": _NAME_LIST,
                                   "cover": {"type": "boolean"},
                                   "image": _ref("motive")}}},
            }}},
        "products": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name", "left", "right"],
            "properties": {"name": {"type": "string"},
                           "left": {"type": "string"},
                           "right": {"type": "string"}}}},
        "square_roots": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["space", "line_bundle", "trivialization", "class"],
            "properties": {"space": {"type": "string"},
                           "line_bundle": {"type": "string"},
                           "trivialization": {"type": "string"},
                           "class": _NAME_LIST}}},
    },
}

RESOLUTION = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "space_u0", "dim_u", "divisors", "strata"],
    "properties": {
        "kind": {"const": "resolution"},
        "space_u0": {"type": "string"},
        "dim_u": {"type": "integer", "minimum": 1},
        "divisors": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["id", "N", "nu"],
            "properties": {"id": {"type": "string"},
                           "N": {"type": "integer", "minimum": 1},
                           "nu": {"type": "integer", "minimum": 1},
                           "boundary": {"type": "boolean"}}}},
        "strata": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["divisors", "cover_order", "class"],
            "properties": {"divisors": _NAME_LIST,
                           "cover_order": {"type": "integer", "minimum": 1},
                           "class": _ref("motive")}}},
        "critical_values": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["value"],
            "properties": {"value": {"type": "string"},
                           "space": {"oneOf": [{"type": "null"},
                                               {"type": "string"}]},
                           "ambient": _OPT_MOTIVE,
                           "classes": {"type": "array", "items": _DIV_CLASS}}}},
        "points": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["label", "value", "classes"],
            "properties": {"label": {"type": "string"},
                           "value": {"type": "string"},
                           "classes": {"type": "array", "items": _DIV_CLASS}}}},
        "constant": {"type": "boolean"},
    },
}

MONOMIAL = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "exponents", "base_space"],
    "properties": {
        "kind": {"const": "monomial"},
        "exponents": {"type": "array", "items": {"type": "integer",
                                                 "minimum": 1}},
        "unit_vars": {"type": "array", "items": {"type": "integer",
                                                 "minimum": 0}},
        "base_space": {"type": "string"},
        "unit_generators": _NAME_LIST,
        "cover_symbols": {"type": "object",
                          "additionalProperties": {"type": "string"}},
    },
}

_CHART_MF = {"oneOf": [_ref("motive"), {
    "type": "object", "additionalProperties": False,
    "required": ["vanishing_of"],
    "properties": {"vanishing_of": _ref("resolution"),
                   "critical_value": {"type": "string"}},
}]}

ATLAS = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "regions", "charts"],
    "properties": {
        "kind": {"const": "atlas"},
        "regions": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name", "space"],
            "properties": {"name": {"type": "string"},
                           "space": {"type": "string"}}}},
        "charts": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["id", "region", "dim_u", "mf", "Q"],
            "properties": {"id": {"type": "string"},
                           "region": {"type": "string"},
                           "dim_u": {"type": "integer", "minimum": 0},
                           "mf": _CHART_MF, "Q": _NAME_LIST}}},
        "overlaps": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["chart_a", "chart_b", "region", "p_a", "p_b", "q_t"],
            "properties": {"chart_a": {"type": "string"},
                           "chart_b": {"type": "string"},
                           "region": {"type": "string"},
                           "p_a": _NAME_LIST, "p_b": _NAME_LIST,
                           "q_t": _NAME_LIST,
                           "restrict_a": {"oneOf": [{"type": "null"},
                                                    {"type": "string"}]},
                           "restrict_b": {"oneOf": [{"type": "null"},
                                                    {"type": "string"}]},
                           "mf_t": _OPT_MOTIVE}}},
        "oriented": {"type": "boolean"},
        "scissor": {"oneOf": [{"type": "null"}, {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["region", "entries"],
            "properties": {"region": {"type": "string"},
                           "sign": {"enum": [1, -1]},
                           "entries": {"type": "array", "items": {
                               "type": "object",
                               "additionalProperties": False,
                               "required": ["monomial", "bundle", "class"],
                               "properties": {"monomial": _NAME_LIST,
                                              "bundle": _NAME_LIST,
                                              "class": _ref("motive")}}}}}}]},
    },
}

FIXEDPOINTS = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "components"],
    "properties": {
        "kind": {"const": "fixedpoints"},
        "components": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "required": ["id", "weights"],
            "properties": {"id": {"type": "string"},
                           "weights": {"type": "array",
                                       "items": {"type": "integer"}},
                           "motive": _OPT_MOTIVE,
                           "good": {"type": "boolean"},
                           "circle_compact": {"type": "boolean"}}}},
        "direct": _OPT_MOTIVE,
        "direct_atlas": {"oneOf": [{"type": "null"}, _ref("atlas")]},
    },
}

ARC_CHECK = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "monomial", "resolution"],
    "properties": {
        "kind": {"const": "arc-check"},
        "monomial": _ref("monomial"),
        "resolution": _ref("resolution"),
    },
}

TS = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "factors"],
    "properties": {
        "kind": {"const": "ts"},
        "factors": {"type": "array", "items": _ref("motive"), "minItems": 1},
    },
}

DEFINITIONS = {
    "motive": MOTIVE,
    "optional_motive": {"oneOf": [{"type": "null"}, _ref("motive")]},
    "divisor_class": {
        "type": "object", "additionalProperties": False,
        "required": ["divisors", "class"],
        "properties": {"divisors": _NAME_LIST, "class": _ref("motive")},
    },
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


JOB = document({
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "registry", "payload"],
    "properties": {
        "schema": {"const": "motivic.job/1"},
        "registry": REGISTRY,
        "payload": {"oneOf": [_ref("resolution"), _ref("monomial"),
                              _ref("atlas"), FIXEDPOINTS, ARC_CHECK, TS]},
        "params": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "series_order": {"type": "integer", "minimum": 0},
                "critical_value": {"type": "string"},
            },
        },
    },
}, "motivic.job/1")

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
    import json
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, schema in all_schemas().items():
        (out / f"{name}.json").write_text(
            json.dumps(schema, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if len(sys.argv) == 3 and sys.argv[1] == "--write":
        write_schema_files(sys.argv[2])
    else:
        print("usage: python -m motivic.schemas --write DIR", file=sys.stderr)
        sys.exit(2)
