"""Job-file parsing: schema validation plus payload dispatch."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Any

# Imported eagerly on purpose: the benchmark's start-up probe reads the
# ``jsonschema`` line of ``python -X importtime -c "import motivic.cli"``
# (see tests/test_cli.py::test_import_of_cli_loads_jsonschema).
import jsonschema

from .errors import RegistryError, ValidationFailed
from .registry import Registry
from .schemas import JOB
from .serialize import (atlas_from_json, fixedpoints_from_json,
                        monomial_from_json, registry_from_json,
                        resolution_from_json, ts_from_json)


@dataclass
class Job:
    registry: Registry
    kind: str
    payload: Any
    params: dict = field(default_factory=dict)


@cache
def job_validator() -> jsonschema.Draft7Validator:
    """The draft-07 validator of ``JOB``, built once per process.

    ``JOB`` is a constant, so its check against the metaschema lives in the
    test suite rather than on every parse.
    """
    return jsonschema.Draft7Validator(JOB)


def parse_job(data: dict) -> Job:
    """Validate a job document against the schema and build its objects.

    Unknown spaces, symbols or generators in a schema-valid job are
    validation errors too.
    """
    exc = jsonschema.exceptions.best_match(job_validator().iter_errors(data))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path)
        raise ValidationFailed([f"job schema: {exc.message} (at /{path})"])
    try:
        reg = registry_from_json(data["registry"])
        kind, parsed = _build_payload(reg, data["payload"])
    except RegistryError as err:
        raise ValidationFailed([str(err)]) from None
    return Job(reg, kind, parsed, dict(data.get("params", {})))


def _build_payload(reg: Registry, payload: dict) -> tuple[str, Any]:
    kind = payload["kind"]
    if kind == "resolution":
        parsed = resolution_from_json(reg, payload)
    elif kind == "monomial":
        parsed = monomial_from_json(reg, payload)
    elif kind == "arc-check":
        parsed = (monomial_from_json(reg, payload["monomial"]),
                  resolution_from_json(reg, payload["resolution"]))
    elif kind == "atlas":
        parsed = atlas_from_json(reg, payload)
    elif kind == "fixedpoints":
        parsed = fixedpoints_from_json(reg, payload)
    elif kind == "ts":
        parsed = ts_from_json(reg, payload)
    else:  # unreachable behind the schema
        raise ValidationFailed([f"unknown payload kind {kind!r}"])
    return kind, parsed


def require_kind(job: Job, *kinds: str) -> None:
    if job.kind not in kinds:
        raise ValidationFailed(
            [f"command needs a {' or '.join(kinds)} payload, got {job.kind!r}"])
