"""File plumbing: JSON Lines cohort serialization, atomic writes, and run
manifests."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile

import numpy as np

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


def read_records_jsonl(path) -> tuple[list[EncounterRecord], list[dict]]:
    """Returns (records, extras) where extras holds any non-record fields
    (label, split, ...) per line."""
    record_keys = {"patient_id", "encounter_id", "date", "age_years", "sex",
                   "measurements", "codes"}
    records, extras = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            records.append(record_from_dict(d))
            extras.append({k: v for k, v in d.items() if k not in record_keys})
    return records, extras


def write_table(path, header: list[str], rows: list[list]) -> None:
    """Tab-delimited text table."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(
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
                   details: dict | None = None) -> None:
    """Run manifest; `details` adds stage-specific top-level fields."""
    from . import __version__
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": sha256_of_text(
            json.dumps(config, sort_keys=True, separators=(",", ":"))),
        "inputs": sorted(os.fspath(p) for p in inputs),
        "outputs": sorted(os.fspath(p) for p in outputs),
        "versions": {
            "labrisk": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        **(details or {}),
    }
    atomic_write_json(path, manifest)
