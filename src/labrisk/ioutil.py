"""File plumbing: JSON Lines cohort serialization, atomic writes that give
the sha256 of the bytes they wrote, and run manifests."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from collections.abc import Iterable

import numpy as np

from . import LabriskError, __version__
# record_from_dict, the decoder callers pass for cohort.jsonl, stays bound
# here: the benchmark's span tracer (perfbench/spans.py) wraps this name.
from .catalog import record_from_dict  # noqa: F401


def atomic_write_text(path, data: str | bytes | Iterable[str | bytes]) -> str:
    """Write `data` via a 0600 temp file in the same directory, then rename;
    the sha256 of the bytes written. `data` is a str (as UTF-8), bytes, or an
    iterable of such chunks, each hashed and written as it arrives, so no
    second copy of the file is held. On any exception, one the iterable
    raises too, the temp file is removed and `path` keeps its old bytes."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    chunks = (data,) if isinstance(data, (str, bytes)) else data
    digest = hashlib.sha256()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                chunk = chunk.encode() if isinstance(chunk, str) else chunk
                digest.update(chunk)
                f.write(chunk)
        os.replace(tmp, path)
        return digest.hexdigest()
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj) -> str:
    return atomic_write_text(path, json.dumps(obj, indent=1) + "\n")


def write_records_jsonl(path, rows) -> str:
    """One sorted-key JSON line per dict of the iterable `rows`, each
    written as it is encoded."""
    return atomic_write_text(path, (json.dumps(d, sort_keys=True) + "\n"
                                    for d in rows))


def read_records_jsonl(path, decode) -> tuple[list, str]:
    """decode(obj, "path:line") of each non-blank line's JSON object, such as
    record_from_dict for cohort.jsonl, and the sha256 of the bytes read.
    LabriskError names the path if it cannot be opened, and path:line of a
    bad line. Lines are read, and hashed, one at a time."""
    rows, digest = [], hashlib.sha256()
    try:
        f = open(path, "rb")
    except OSError as e:
        raise LabriskError(f"{path}: cannot read ({e})") from None
    with f:
        for lineno, line in enumerate(f, 1):
            digest.update(line)
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise LabriskError(f"{path}:{lineno}: {e}") from None
            rows.append(decode(d, f"{path}:{lineno}"))
    return rows, digest.hexdigest()


def write_table(path, header: list[str], rows) -> str:
    """Text table, comma-separated for a .csv path, tab-separated otherwise."""
    sep = "," if os.fspath(path).endswith(".csv") else "\t"

    def lines():
        yield sep.join(header) + "\n"
        for row in rows:
            yield sep.join(format(v, ".10g") if isinstance(v, float)
                           else str(v) for v in row) + "\n"

    return atomic_write_text(path, lines())


def sha256_of_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_manifest(path, command: str, config: dict,
                   inputs: dict[str, str], outputs: dict[str, str],
                   details: dict) -> None:
    """Run manifest with the sha256 of every input and output file, as
    {path: sha256} of the bytes the command read (`inputs`) and wrote
    (`outputs`); `details` adds top-level fields (run time, stage-specific
    ones). No file is read here."""
    digests = {**inputs, **outputs}
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": sha256_of_bytes(json.dumps(
            config, sort_keys=True, separators=(",", ":")).encode()),
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "sha256": {p: digests[p] for p in sorted(digests)},
        "versions": {
            "labrisk": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        **details,
    }
    atomic_write_json(path, manifest)
