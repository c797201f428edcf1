#!/usr/bin/env python
"""Docs gate: link-check the markdown suite, drift-check the protocol spec.

Run from the repository root (CI's ``docs`` job does):

    PYTHONPATH=src python tools/check_docs.py

Eleven checks, all fatal on failure:

1. **Link check** — every relative markdown link in ``README.md``,
   ``ROADMAP.md`` and ``docs/*.md`` must point at an existing file;
   fragment links (``#anchor``) must match a heading in the target
   document (GitHub slugification).
2. **Protocol drift check** — the Constants / Operations / Error codes
   tables in ``docs/protocol.md`` must agree with
   ``repro.engine.backends.protocol`` (and ``DEFAULT_PORT`` with
   ``repro.engine.backends.remote``), so the spec cannot silently rot
   while the implementation moves on.
3. **Experiment-schema drift check** — ``docs/experiments.md`` must
   document the ``SCHEMA_VERSION`` that ``repro.api.specs`` actually
   speaks, and its field tables must cover every ``Experiment`` /
   ``CampaignSpec`` / ``AnalysisSpec`` dataclass field.
4. **Service drift check** — ``docs/service.md`` must document
   ``DEFAULT_REGISTRY_PORT``, the exact ``JOB_STATES`` lifecycle, and
   every v3 service op / error code by name.
5. **Profiles drift check** — ``docs/profiles.md`` must document the
   schema/store constants ``repro.profiles`` actually exposes, the
   reuse tiers in ``REUSE_TIERS`` order, and every ``RegionProfile``
   field and outcome bucket by name.
6. **Recovery drift check** — ``docs/recovery.md`` must document the
   detectors/policies/final states in their canonical order, the full
   ``RecoverySpec`` field table, and every ``RecoveryPlan`` /
   ``RecoveryOutcome`` field by name.
7. **Warm-start drift check** — the "Warm-start execution" section of
   ``docs/architecture.md`` must name ``REPRO_WARMSTART``, both modes
   and the ladder constants ``repro.warmstart`` actually exposes, and
   README's "Global flags" table must carry a ``--warm-start`` row
   agreeing with the resolved default.
8. **Execution-tier drift check** — the "Execution tiers" section of
   ``docs/architecture.md`` must name ``compiled`` as the default and
   ``interp`` as the reference, and ``resolve_exec_tier()`` with
   ``REPRO_EXEC`` unset must return ``compiled``.
9. **Backend-name drift check** — README's ``--backend {…}`` row in
   "Global flags" and the backend table in the "Backends" section of
   ``docs/architecture.md`` must list exactly ``sorted(BACKENDS)``, so
   a retired backend cannot linger in the docs.
10. **Dotted-name drift check** — every backticked ``repro.…`` dotted
    name in ``README.md`` and ``docs/*.md`` (a trailing ``()`` allowed)
    must import as a module or resolve as an attribute of one, so a
    deleted or renamed function cannot stay documented.
11. **Trace-schema drift check** — the column table of the golden-trace
    passage in the "Golden artifacts" section of
    ``docs/architecture.md`` must list exactly the columns a sealed
    ``repro.trace.columnar.GoldenTrace`` stores (every array in
    ``_ARRAYS`` plus the CSR offsets and side containers), so a removed
    column cannot stay documented as one.
"""

from __future__ import annotations

import importlib
import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = [REPO / "README.md", REPO / "ROADMAP.md",
             *sorted((REPO / "docs").glob("*.md"))]

_LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (close enough for our docs)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set:
    text = _CODE_FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(m.group(1)) for m in _HEADING_RE.finditer(text)}


def check_links() -> list:
    errors = []
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(REPO)}: file missing")
            continue
        text = _CODE_FENCE_RE.sub("", doc.read_text(encoding="utf-8"))
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue  # external links are not checked offline
            path_part, _, fragment = target.partition("#")
            base = doc if not path_part else \
                (doc.parent / path_part).resolve()
            if not base.exists():
                errors.append(f"{doc.relative_to(REPO)}: broken link "
                              f"-> {target}")
                continue
            if fragment and base.suffix == ".md" and \
                    fragment not in heading_slugs(base):
                errors.append(f"{doc.relative_to(REPO)}: missing anchor "
                              f"-> {target}")
    return errors


# ------------------------------------------------------------- drift check
def section_table(text: str, heading: str,
                  source: str = "docs/protocol.md") -> list:
    """First-column cells (backtick-stripped) of the table under
    ``heading``, plus the raw second column for value tables."""
    pattern = re.compile(rf"^##+\s+{re.escape(heading)}\s*$", re.MULTILINE)
    match = pattern.search(text)
    if match is None:
        raise SystemExit(f"{source}: section {heading!r} not found")
    rows = []
    for line in text[match.end():].splitlines():
        stripped = line.strip()
        if stripped.startswith("##"):
            break  # next section
        if not stripped.startswith("|"):
            continue
        cells = [c.strip().strip("`") for c in stripped.strip("|")
                 .split("|")]
        if not cells or set(cells[0]) <= {"-", " ", ":"}:
            continue  # separator row
        rows.append(cells)
    if rows and rows[0][0].lower() in ("constant", "op", "code", "state",
                                       "tier", "detector", "policy",
                                       "final state", "field", "flag",
                                       "backend"):
        rows = rows[1:]  # header row
    return rows


def check_protocol_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    from repro.engine.backends import protocol, remote

    text = (REPO / "docs" / "protocol.md").read_text(encoding="utf-8")
    errors = []

    expected_constants = {
        "PROTOCOL_VERSION": protocol.PROTOCOL_VERSION,
        "KEY_VERSION": protocol.KEY_VERSION,
        "MAX_FRAME": protocol.MAX_FRAME,
        "DEFAULT_PORT": remote.DEFAULT_PORT,
    }
    documented = {row[0]: row[1] for row in section_table(text, "Constants")}
    for name, value in expected_constants.items():
        if name not in documented:
            errors.append(f"protocol.md Constants: {name} undocumented")
        elif documented[name] != str(value):
            errors.append(f"protocol.md Constants: {name} documented as "
                          f"{documented[name]!r}, code says {value!r}")
    for name in documented:
        if name not in expected_constants:
            errors.append(f"protocol.md Constants: {name} documented but "
                          f"not drift-checked (extend tools/check_docs.py)")

    doc_ops = [row[0] for row in section_table(text, "Operations")]
    if doc_ops != list(protocol.OPS):
        errors.append(f"protocol.md Operations table {doc_ops} != "
                      f"protocol.OPS {list(protocol.OPS)}")

    doc_codes = [row[0] for row in section_table(text, "Error codes")]
    if doc_codes != list(protocol.ERROR_CODES):
        errors.append(f"protocol.md Error codes table {doc_codes} != "
                      f"protocol.ERROR_CODES {list(protocol.ERROR_CODES)}")

    # the spec's title must name the version it specifies
    first_line = text.splitlines()[0]
    if f"version {protocol.PROTOCOL_VERSION}" not in first_line:
        errors.append(f"protocol.md title {first_line!r} does not name "
                      f"protocol version {protocol.PROTOCOL_VERSION}")
    return errors


def check_experiment_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    import dataclasses

    from repro.api import specs

    text = (REPO / "docs" / "experiments.md").read_text(encoding="utf-8")
    errors = []

    documented = {row[0]: row[1]
                  for row in section_table(text, "Schema")
                  if len(row) == 2}
    if documented.get("SCHEMA_VERSION") != str(specs.SCHEMA_VERSION):
        errors.append(
            f"experiments.md Schema: SCHEMA_VERSION documented as "
            f"{documented.get('SCHEMA_VERSION')!r}, code says "
            f"{specs.SCHEMA_VERSION!r}")

    # every dataclass field must appear in a field table / field list
    for cls, extra in ((specs.Experiment, {"schema_version"}),
                       (specs.CampaignSpec, set()),
                       (specs.AnalysisSpec, set()),
                       (specs.ProfileSpec, set())):
        names = {f.name for f in dataclasses.fields(cls)} | extra
        for name in sorted(names):
            if f"`{name}`" not in text:
                errors.append(f"experiments.md: {cls.__name__} field "
                              f"{name!r} undocumented")
    return errors


def check_service_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    from repro.engine.backends import protocol
    from repro.service import daemon, queue

    text = (REPO / "docs" / "service.md").read_text(encoding="utf-8")
    errors = []

    documented = {row[0]: row[1]
                  for row in section_table(text, "Constants",
                                           source="docs/service.md")}
    expected = str(daemon.DEFAULT_REGISTRY_PORT)
    if documented.get("DEFAULT_REGISTRY_PORT") != expected:
        errors.append(f"service.md Constants: DEFAULT_REGISTRY_PORT "
                      f"documented as "
                      f"{documented.get('DEFAULT_REGISTRY_PORT')!r}, "
                      f"code says {expected!r}")

    doc_states = [row[0] for row in
                  section_table(text, "Job queue",
                                source="docs/service.md")]
    if doc_states != list(queue.JOB_STATES):
        errors.append(f"service.md job-state table {doc_states} != "
                      f"queue.JOB_STATES {list(queue.JOB_STATES)}")

    # every v3 service op and error code must be discussed by name
    service_ops = (protocol.OP_REGISTER, protocol.OP_REGISTERED,
                   protocol.OP_HEARTBEAT, protocol.OP_LEAVE,
                   protocol.OP_RESOLVE, protocol.OP_HOSTS,
                   protocol.OP_SUBMIT, protocol.OP_JOBS,
                   protocol.OP_WATCH, protocol.OP_FETCH)
    service_codes = (protocol.ERR_UNKNOWN_HOST, protocol.ERR_UNKNOWN_JOB,
                     protocol.ERR_BAD_SPEC, protocol.ERR_JOB_FAILED)
    for name in (*service_ops, *service_codes):
        if f"`{name}`" not in text:
            errors.append(f"service.md: v3 op/code {name!r} undocumented")
    return errors


def check_profiles_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    import dataclasses

    from repro import profiles

    text = (REPO / "docs" / "profiles.md").read_text(encoding="utf-8")
    errors = []

    expected_constants = {
        "PROFILE_SCHEMA_VERSION": profiles.PROFILE_SCHEMA_VERSION,
        "STORE_VERSION": profiles.STORE_VERSION,
        "STORE_NAME": profiles.STORE_NAME,
        "INDEX_NAME": profiles.INDEX_NAME,
    }
    documented = {row[0]: row[1]
                  for row in section_table(text, "Constants",
                                           source="docs/profiles.md")}
    for name, value in expected_constants.items():
        if name not in documented:
            errors.append(f"profiles.md Constants: {name} undocumented")
        elif documented[name] != str(value):
            errors.append(f"profiles.md Constants: {name} documented as "
                          f"{documented[name]!r}, code says {value!r}")
    for name in documented:
        if name not in expected_constants:
            errors.append(f"profiles.md Constants: {name} documented but "
                          f"not drift-checked (extend tools/check_docs.py)")

    doc_tiers = [row[0] for row in
                 section_table(text, "Reuse tiers",
                               source="docs/profiles.md")]
    if doc_tiers != list(profiles.REUSE_TIERS):
        errors.append(f"profiles.md reuse-tier table {doc_tiers} != "
                      f"profiles.REUSE_TIERS {list(profiles.REUSE_TIERS)}")

    # every profile field and outcome bucket must be discussed by name
    from repro.profiles import profile as profile_mod
    names = [f.name for f in dataclasses.fields(profiles.RegionProfile)]
    for name in (*names, *profile_mod.OUTCOMES):
        if f"`{name}`" not in text:
            errors.append(f"profiles.md: RegionProfile field/outcome "
                          f"{name!r} undocumented")
    return errors


def check_recovery_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    import dataclasses

    from repro import recovery
    from repro.api import specs

    text = (REPO / "docs" / "recovery.md").read_text(encoding="utf-8")
    errors = []

    doc_detectors = [row[0] for row in
                     section_table(text, "Detectors",
                                   source="docs/recovery.md")]
    if doc_detectors != list(recovery.DETECTORS):
        errors.append(f"recovery.md detector table {doc_detectors} != "
                      f"recovery.DETECTORS {list(recovery.DETECTORS)}")

    doc_policies = [row[0] for row in
                    section_table(text, "Policies",
                                  source="docs/recovery.md")]
    if doc_policies != list(recovery.POLICIES):
        errors.append(f"recovery.md policy table {doc_policies} != "
                      f"recovery.POLICIES {list(recovery.POLICIES)}")

    doc_finals = [row[0] for row in
                  section_table(text, "Outcome invariance contract",
                                source="docs/recovery.md")]
    if doc_finals != list(recovery.FINAL_STATES):
        errors.append(f"recovery.md final-state table {doc_finals} != "
                      f"recovery.FINAL_STATES "
                      f"{list(recovery.FINAL_STATES)}")

    doc_spec = [row[0] for row in
                section_table(text, "RecoverySpec schema",
                              source="docs/recovery.md")]
    spec_fields = [f.name for f in dataclasses.fields(specs.RecoverySpec)]
    if doc_spec != spec_fields:
        errors.append(f"recovery.md RecoverySpec table {doc_spec} != "
                      f"RecoverySpec fields {spec_fields}")

    # every plan knob and outcome counter must be discussed by name
    plan_fields = [f.name for f in
                   dataclasses.fields(recovery.RecoveryPlan)]
    outcome_fields = [f.name for f in
                      dataclasses.fields(recovery.RecoveryOutcome)]
    for name in (*plan_fields, *outcome_fields):
        if f"`{name}`" not in text:
            errors.append(f"recovery.md: RecoveryPlan/RecoveryOutcome "
                          f"field {name!r} undocumented")
    return errors


def section_text(text: str, heading: str, source: str) -> str:
    """The body of the ``##`` section titled ``heading``."""
    pattern = re.compile(rf"^##\s+{re.escape(heading)}\s*$", re.MULTILINE)
    match = pattern.search(text)
    if match is None:
        raise SystemExit(f"{source}: section {heading!r} not found")
    end = text.find("\n## ", match.end())
    return text[match.end():end if end != -1 else len(text)]


def check_warmstart_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    from repro import warmstart

    errors = []
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = section_text(arch, "Warm-start execution",
                           "docs/architecture.md")
    required = (warmstart.ENV_VAR, *warmstart.WARMSTART_MODES,
                "DEFAULT_RUNGS", "MIN_STRIDE", "rung_for", "resume_run",
                "WARM_STATS", "--warm-start")
    for name in required:
        if f"`{name}`" not in section:
            errors.append(f"architecture.md Warm-start execution: "
                          f"{name!r} undocumented")

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    rows = section_table(readme, "Global flags", source="README.md")
    flags = {row[0].split()[0]: row for row in rows if row}
    expected = {"--warm-start": (warmstart.ENV_VAR, "on")}
    for flag, (env, default) in expected.items():
        row = flags.get(flag)
        if row is None:
            errors.append(f"README.md Global flags: {flag} row missing")
            continue
        if len(row) < 3 or row[1] != env or row[2] != default:
            errors.append(f"README.md Global flags: {flag} row must "
                          f"document env {env!r} and default {default!r}")
    # the documented default must be what the resolver actually does
    had = os.environ.pop(warmstart.ENV_VAR, None)
    try:
        if not warmstart.resolve_warmstart():
            errors.append("warmstart: resolve_warmstart() default is off "
                          "but README documents on")
    finally:
        if had is not None:
            os.environ[warmstart.ENV_VAR] = had
    return errors


def check_exec_tier_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    from repro.vm import exec_tier

    errors = []
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = section_text(arch, "Execution tiers", "docs/architecture.md")
    for marker in ("**`compiled`** (default)", "**`interp`** (reference)",
                   f"`{exec_tier.ENV_VAR}`"):
        if marker not in section:
            errors.append(f"architecture.md Execution tiers: {marker!r} "
                          f"missing")
    # the documented default must be what the resolver actually does
    had = os.environ.pop(exec_tier.ENV_VAR, None)
    try:
        default = exec_tier.resolve_exec_tier()
        if default != "compiled":
            errors.append(f"exec_tier: resolve_exec_tier() default is "
                          f"{default!r} but architecture.md documents "
                          f"'compiled'")
    finally:
        if had is not None:
            os.environ[exec_tier.ENV_VAR] = had
    return errors


def check_backend_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    from repro.engine.backends import BACKENDS

    expected = sorted(BACKENDS)
    errors = []
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    flag_rows = [row[0] for row in
                 section_table(readme, "Global flags", source="README.md")
                 if row and row[0].startswith("--backend ")]
    match = re.fullmatch(r"--backend \{([^}]*)\}", flag_rows[0]) \
        if len(flag_rows) == 1 else None
    if match is None or match.group(1).split(",") != expected:
        errors.append(f"README.md Global flags: need one "
                      f"'--backend {{{','.join(expected)}}}' row, found "
                      f"{flag_rows}")

    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    documented = [row[0] for row in section_table(
        arch, "Backends", source="docs/architecture.md")]
    if documented != expected:
        errors.append(f"architecture.md Backends table {documented} != "
                      f"BACKENDS {expected}")
    return errors


_DOTTED_RE = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")


def resolve_dotted(name: str):
    """The object a dotted ``repro.…`` name denotes: the longest prefix
    that imports as a module, then attributes; raises if none does."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def check_dotted_names() -> list:
    sys.path.insert(0, str(REPO / "src"))
    errors = []
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        text = path.read_text(encoding="utf-8")
        for name in sorted(set(_DOTTED_RE.findall(text))):
            try:
                resolve_dotted(name)
            except (ImportError, AttributeError) as exc:
                errors.append(f"{path.relative_to(REPO)}: `{name}` does "
                              f"not resolve ({exc})")
    return errors


def check_golden_columns_drift() -> list:
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from repro.trace import columnar
    from repro.trace.events import StaticTable

    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = section_text(arch, "Golden artifacts", "docs/architecture.md")
    start = section.find("The golden trace is **columnar**")
    if start == -1:
        return ["architecture.md Golden artifacts: the columnar golden "
                "trace passage is missing"]
    documented = []
    for line in section[start:].splitlines():
        stripped = line.strip()
        if not stripped.startswith("|"):
            if documented:
                break       # the end of the passage's table
            continue
        cell = stripped.strip("|").split("|")[0].strip()
        if set(cell) <= {"-", " ", ":"} or cell == "column":
            continue        # separator and header rows
        documented.append(cell.strip("`"))
    # what a sealed GoldenTrace pickles (every array in _ARRAYS among
    # them), bar the scalars: its length and meta
    empty = columnar.GoldenTrace(None, table=StaticTable((), (), (), (), ()))
    stored = {name for name, value in empty.seal().__getstate__().items()
              if isinstance(value, (np.ndarray, dict, list))}
    errors = [f"architecture.md golden columns: {name!r} undocumented"
              for name in sorted(stored - set(documented))]
    errors += [f"architecture.md golden columns: {name!r} is not a "
               f"GoldenTrace column" for name in documented
               if name not in stored]
    return errors


def main() -> int:
    errors = (check_links() + check_protocol_drift()
              + check_experiment_drift() + check_service_drift()
              + check_profiles_drift() + check_recovery_drift()
              + check_warmstart_drift() + check_exec_tier_drift()
              + check_backend_drift() + check_dotted_names()
              + check_golden_columns_drift())
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"docs ok: {len(DOC_FILES)} files link-checked, protocol tables "
          f"match the implementation")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
