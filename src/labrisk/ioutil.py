"""File plumbing: JSON Lines cohort serialization, atomic writes, and run
manifests."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile

import numpy as np

from . import LabriskError, decode_fields
from .catalog import EncounterRecord, record_from_dict, record_to_dict


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=1) + "\n")


def write_records_jsonl(path, records: list[EncounterRecord],
                        extra_fields: list[dict] | None = None) -> None:
    lines = []
    for i, r in enumerate(records):
        d = record_to_dict(r)
        if extra_fields is not None:
            d.update(extra_fields[i])
        lines.append(json.dumps(d, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_records_jsonl(path, fields: dict | None = None
                       ) -> tuple[list[EncounterRecord], list[dict]]:
    """Returns (records, extras): the encounter of each line and its
    `fields` (label, split, ...), each required and decoded by its decoder
    ({} without `fields`). LabriskError names the path if it cannot be
    opened, and path:line of a bad line. Lines are read one at a time."""
    records, extras = [], []
    try:
        f = open(path, "rb")
    except OSError as e:
        raise LabriskError(f"{path}: cannot read ({e})") from None
    with f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise LabriskError(f"{path}:{lineno}: {e}") from None
            records.append(record_from_dict(d, f"{path}:{lineno}"))
            extras.append(decode_fields(d, f"{path}:{lineno}", fields)
                          if fields else {})
    return records, extras


def write_table(path, header: list[str], rows) -> None:
    """Text table, comma-separated for a .csv path, tab-separated otherwise."""
    sep = "," if os.fspath(path).endswith(".csv") else "\t"
    lines = [sep.join(header)]
    for row in rows:
        lines.append(sep.join(
            format(v, ".10g") if isinstance(v, float) else str(v)
            for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, config: dict,
                   inputs: list[str], outputs: list[str],
                   details: dict) -> None:
    """Run manifest with the sha256 of every input and output file;
    `details` adds top-level fields (run time, stage-specific ones)."""
    from . import __version__
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": sha256_of_text(
            json.dumps(config, sort_keys=True, separators=(",", ":"))),
        "inputs": sorted(set(inputs)),
        "outputs": sorted(set(outputs)),
        "sha256": {p: sha256_of_file(p) for p in sorted({*inputs, *outputs})},
        "versions": {
            "labrisk": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        **details,
    }
    atomic_write_json(path, manifest)
