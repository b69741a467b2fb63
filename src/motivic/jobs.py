"""Job-file parsing: schema validation plus payload dispatch, and the
names and files of the shipped fixture jobs.

The fixture jobs are the one definition of the standard examples: the
builders in ``motivic.fixtures`` read them through ``build_payload``."""

from __future__ import annotations

import json
from functools import cache
from typing import Any

# Imported eagerly on purpose: the benchmark's start-up probe reads the
# ``jsonschema`` line of ``python -X importtime -c "import motivic.cli"``
# (see tests/test_cli.py::test_import_of_cli_loads_jsonschema).
import jsonschema

from .errors import RegistryError, SpaceMismatch, ValidationFailed
from .registry import Record, Registry
from .schemas import JOB
from .serialize import (atlas_from_json, fixedpoints_from_json,
                        monomial_from_json, registry_from_json,
                        resolution_from_json, ts_from_json)


# the job files shipped under ``motivic/fixtures/``.  They are named and
# loaded here, not in ``motivic.fixtures`` (which re-exports these names and
# reads the files into records), so the CLI reads them without importing it.
FIXTURE_NAMES = (
    "z2", "z3", "z4", "x2", "x2y", "x2y_plane", "x2_line", "x2_line_blowup",
    "arc_z2", "arc_z3", "arc_z4", "arc_x2y", "atlas_z2", "atlas_cylinder",
    "localize_z1z2", "localize_two_points", "ts_z2_10",
)


def fixture_path(name: str):
    from importlib import resources

    return resources.files("motivic").joinpath("fixtures", f"{name}.json")


def load_fixture_job(name: str) -> dict:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; known: {FIXTURE_NAMES}")
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


class Job(Record):
    def __init__(self, registry: Registry, kind: str, payload: Any,
                 params: dict | None = None):
        self.registry, self.kind, self.payload = registry, kind, payload
        self.params = {} if params is None else params


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
    validation errors too, and so is a symbol used on a space it does not
    live on.
    """
    exc = jsonschema.exceptions.best_match(job_validator().iter_errors(data))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path)
        raise ValidationFailed([f"job schema: {exc.message} (at /{path})"])
    try:
        reg = registry_from_json(data["registry"])
        kind, parsed = build_payload(reg, data["payload"])
    except (RegistryError, SpaceMismatch) as err:
        raise ValidationFailed([str(err)]) from None
    return Job(reg, kind, parsed, dict(data.get("params", {})))


def build_payload(reg: Registry, payload: dict) -> tuple[str, Any]:
    """The kind of a schema-valid payload and its records over ``reg``."""
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
