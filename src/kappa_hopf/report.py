"""Structured verification results.

A Check is one verified identity: id, paper anchor, status, rendered
residual, the order/degree it ran at, and its duration.  Checks that do
work are built inside run_check, the one place the engine reads the clock;
it stamps duration_ms on what the build returns.  Reports render to
human-readable text (with timings) and to canonical JSON (without timings,
so equal configurations produce byte-identical reports; see the shipped
report_schema.json).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

ENGINE_VERSION = "0.1.0"
SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INFO = "info"


@dataclass
class Check:
    check_id: str
    paper_anchor: str
    status: str
    residual: str = "0"
    order: int | None = None
    degree: int | None = None
    detail: str = ""
    duration_ms: float = 0.0

    def as_json_dict(self):
        d = {
            "id": self.check_id,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "residual": self.residual,
        }
        if self.order is not None:
            d["order"] = self.order
        if self.degree is not None:
            d["degree"] = self.degree
        if self.detail:
            d["detail"] = self.detail
        return d


def run_check(build):
    """Call build(), which returns a Check or a list of Checks, and stamp
    duration_ms on it; the checks of a list share the elapsed time evenly."""
    t0 = time.perf_counter()
    out = build()
    ms = (time.perf_counter() - t0) * 1000
    checks = out if isinstance(out, list) else [out]
    for c in checks:
        c.duration_ms = ms / max(1, len(checks))
    return out


@dataclass
class VerificationReport:
    suite: str
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    engine_version: str = ENGINE_VERSION

    def add(self, check):
        self.checks.append(check)
        return check

    def extend(self, checks):
        self.checks.extend(checks)

    @property
    def n_failed(self):
        return sum(1 for c in self.checks if c.status == FAIL)

    @property
    def passed(self):
        return self.n_failed == 0

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    # -- rendering ----------------------------------------------------
    def to_text(self):
        lines = [f"suite: {self.suite}   engine: {self.engine_version}"]
        if self.config:
            cfg = ", ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            lines.append(f"config: {cfg}")
        for c in self.checks:
            mark = {PASS: "PASS", FAIL: "FAIL", INFO: "INFO"}[c.status]
            extra = []
            if c.order is not None:
                extra.append(f"order={c.order}")
            if c.degree is not None:
                extra.append(f"degree={c.degree}")
            extra.append(f"{c.duration_ms:.1f}ms")
            lines.append(f"  [{mark}] {c.check_id} ({c.paper_anchor}; {', '.join(extra)})")
            if c.status != PASS or c.residual != "0":
                lines.append(f"         residual: {c.residual}")
            if c.detail:
                lines.append(f"         {c.detail}")
        lines.append(f"  => {len(self.checks)} checks, {self.n_failed} failed")
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "engine_version": self.engine_version,
            "suite": self.suite,
            "config": {k: self.config[k] for k in sorted(self.config)},
            "checks": [c.as_json_dict() for c in self.checks],
            "failed": self.n_failed,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def validate_report_json(doc, schema):
    """Minimal structural validation of a report dict against the shipped
    schema (required keys + primitive types).  Returns a list of problems."""
    problems = []

    def walk(value, spec, path):
        t = spec.get("type")
        if t == "object":
            if not isinstance(value, dict):
                problems.append(f"{path}: expected object")
                return
            for key in spec.get("required", []):
                if key not in value:
                    problems.append(f"{path}: missing required key {key!r}")
            for key, sub in spec.get("properties", {}).items():
                if key in value:
                    walk(value[key], sub, f"{path}.{key}")
            if not spec.get("additionalProperties", True):
                extra = set(value) - set(spec.get("properties", {}))
                if extra:
                    problems.append(f"{path}: unexpected keys {sorted(extra)}")
        elif t == "array":
            if not isinstance(value, list):
                problems.append(f"{path}: expected array")
                return
            sub = spec.get("items")
            if sub:
                for i, item in enumerate(value):
                    walk(item, sub, f"{path}[{i}]")
        elif t == "string":
            if not isinstance(value, str):
                problems.append(f"{path}: expected string")
            if "enum" in spec and value not in spec["enum"]:
                problems.append(f"{path}: {value!r} not in {spec['enum']}")
        elif t == "integer":
            if not isinstance(value, int):
                problems.append(f"{path}: expected integer")

    walk(doc, schema, "$")
    return problems
