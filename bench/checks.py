"""Output checks for benchmark jobs.

A job passes only if every report it wrote validates against the shipped
JSON schema, satisfies the invariants below, and is byte-identical to the
reference digest of the same input: a digest pinned in ``pins.json`` on the
default seed, otherwise the digest of the first passing job on that input.

Invariants, on any seed:

* analysis and indices reports describe the generated input (objects,
  attributes, crosses);
* the grouped ``describe`` counts sum to 2^|M|, the rows flagged as intents
  sum to the analysis ``concepts`` and the pseudo-intent rows to
  ``classes.pseudo_intents.total``;
* every randomization trial keeps the input's column sums, which the column
  strategy preserves.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

SCHEMA_PATH = Path("src/fcakit/schemas/report.schema.json")
PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Facts:
    """What the benchmark knows about one generated input, as fcakit reads it."""

    objects: int
    attributes: int
    column_sums: tuple[int, ...]

    @property
    def crosses(self) -> int:
        return sum(self.column_sums)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_validator(root: Path) -> jsonschema.protocols.Validator:
    schema = json.loads((root / SCHEMA_PATH).read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_pins() -> dict[str, dict[str, str]]:
    """Pinned digests: workload -> "<input index>/<file>" -> SHA-256."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def _report(data: bytes, kind: str, validator, problems: list[str]) -> dict | None:
    try:
        report = json.loads(data)
    except ValueError as exc:
        problems.append(f"{kind} report is not JSON: {exc}")
        return None
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        problems.append(f"{kind} report fails the schema: {errors[0]}")
        return None
    if report["kind"] != kind:
        problems.append(f"expected a {kind} report, got {report['kind']}")
        return None
    return report


def _dataset(report: dict, facts: Facts, problems: list[str]) -> None:
    ds = report["dataset"]
    got = (ds["objects"], ds["attributes"], ds["crosses"])
    want = (facts.objects, facts.attributes, facts.crosses)
    if got != want:
        problems.append(f"dataset (objects, attributes, crosses) is {got}, input has {want}")


def _describe(table: bytes, analysis: dict, facts: Facts, problems: list[str]) -> None:
    try:
        rows = list(csv.DictReader(io.StringIO(table.decode("utf-8"))))
        counts = [(int(r["count"]), r["is intent"] == "X", r["is pseudo intent"] == "X") for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"describe table is malformed: {exc!r}")
        return
    total = sum(c for c, _, _ in counts)
    if total != 2**facts.attributes:
        problems.append(f"describe counts sum to {total}, not 2^{facts.attributes}")
    intents = sum(c for c, is_intent, _ in counts if is_intent)
    if intents != analysis["concepts"]:
        problems.append(f"describe intent rows sum to {intents}, analyze found {analysis['concepts']} concepts")
    pseudo = sum(c for c, _, is_pseudo in counts if is_pseudo)
    if pseudo != analysis["classes"]["pseudo_intents"]["total"]:
        problems.append(f"describe pseudo-intent rows sum to {pseudo}, analyze found {analysis['classes']['pseudo_intents']['total']}")


def _randomization(report: dict, facts: Facts, problems: list[str]) -> None:
    _dataset(report, facts, problems)
    for trial in report["trial_digests"]:
        if tuple(trial["column_sums"]) != facts.column_sums:
            problems.append(f"trial {trial['index']} changed the column sums")
            return


def check_outputs(
    outputs: dict[str, bytes], facts: Facts, reference: dict[str, str], validator
) -> list[str]:
    """Problems found in one job's output files (empty when it passed).

    ``outputs`` maps file names (``analysis.json``, ``descr.csv``,
    ``descr.cxt``, ``indices.json``, ``randomization.json``) to their bytes;
    ``reference`` maps file names to the digests they must have.
    """
    problems: list[str] = []
    if "analysis.json" in outputs:
        analysis = _report(outputs["analysis.json"], "analysis", validator, problems)
        if analysis is not None:
            _dataset(analysis, facts, problems)
            if "descr.csv" in outputs:
                _describe(outputs["descr.csv"], analysis, facts, problems)
    if "indices.json" in outputs:
        indices = _report(outputs["indices.json"], "indices", validator, problems)
        if indices is not None:
            _dataset(indices, facts, problems)
    if "randomization.json" in outputs:
        report = _report(outputs["randomization.json"], "randomization", validator, problems)
        if report is not None:
            _randomization(report, facts, problems)
    for name, data in sorted(outputs.items()):
        want = reference.get(name)
        if want is not None and digest(data) != want:
            problems.append(f"{name} differs from its reference digest")
    return problems
