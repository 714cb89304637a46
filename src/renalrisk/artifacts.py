"""How an artifact is framed: its lineage line, the model-file header and its text rows.

A text artifact is UTF-8 rows, each ending in LF, the last one included; empty
lines are skipped and ``#`` lines are comments. Its first line is the lineage
``#! {"stage": ..., "stage_version": ..., "seed": ..., "config_sha256": ...,
"inputs": {name: sha256-of-file, ...}}``; a model file holds the same lineage
in its header: ``MODEL_MAGIC``, a little-endian uint32 length and a UTF-8 JSON
object. ``data_rows`` reads the rows of every text format, and refuses a file
cut short or not UTF-8, pipeline-made or not (external claims), naming the
file and the line. This module imports the standard library alone.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager, nullcontext
from os import SEEK_END, PathLike
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError, ParseError

LINEAGE_PREFIX = "#! "

# Introduces the vocabulary content hash in a feature table's comment line.
VOCAB_HEADER = "# vocab="

MODEL_MAGIC = b"RNRKLM01"

_HEADER_KEYS = (
    "format_version",
    "task",
    "n_classes",
    "n_features",
    "vocab_hash",
    "hyperparams",
    "lineage",
)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_model_header(handle, header: dict) -> None:
    """Write the magic, the header length and the canonical JSON header."""
    blob = _canonical(header).encode("utf-8")
    handle.write(MODEL_MAGIC)
    handle.write(struct.pack("<I", len(blob)))
    handle.write(blob)


def _read_header(handle, path) -> dict:
    if handle.read(8) != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    size = handle.read(4)
    if len(size) != 4:
        raise DataError(f"{path}: truncated model header")
    (length,) = struct.unpack("<I", size)
    blob = handle.read(length)
    if len(blob) != length:
        raise DataError(f"{path}: truncated model header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: model header is not UTF-8 JSON")
    if not isinstance(header, dict):
        raise DataError(f"{path}: model header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"{path}: model header lacks {', '.join(missing)}")
    for key in ("n_classes", "n_features"):
        if type(header[key]) is not int or header[key] < 0:
            raise DataError(f"{path}: model header has a bad {key} {header[key]!r}")
    return header


def read_model_header(path: str | Path) -> dict:
    with open(path, "rb") as handle:
        return _read_header(handle, path)


def read_artifact_lineage(path: Path) -> dict | None:
    """The lineage an artifact carries; None when it is missing or has none."""
    try:
        if path.suffix == ".bin":
            return read_model_header(path).get("lineage")
        if path.suffix == ".json":
            return json.loads(path.read_text(encoding="utf-8")).get("lineage")
        # Only the first line is decoded: a bad byte in the body is for its reader to name.
        with open(path, "rb") as handle:
            first = handle.readline().decode("utf-8")
        if first.startswith(LINEAGE_PREFIX):
            return json.loads(first[len(LINEAGE_PREFIX) :])
    except (DataError, OSError, ValueError, AttributeError):
        pass
    return None


def _cut_short(path) -> int:
    """The number of the last line of path when it does not end in a newline, else 0."""
    with open(path, "rb") as handle:
        if not handle.seek(0, SEEK_END):
            return 0
        handle.seek(-1, SEEK_END)
        if handle.read(1) == b"\n":
            return 0
        handle.seek(0)
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b"")) + 1


def _undecodable(path) -> DataError:
    """A ParseError for the first line of path that holds a byte that is not UTF-8."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00  # surrogateescape maps byte b to U+DC00 + b
                return ParseError(line_no, f"byte 0x{byte:02x} is not UTF-8 text", path)
    return DataError(f"{path}: not UTF-8 text")


def _rows(lines: Iterable[str], comments: list[str] | None) -> Iterator[tuple[int, str]]:
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            if comments is not None:
                comments.append(line)
        elif line:
            yield line_no, line


@contextmanager
def data_rows(source, comments: list[str] | None = None) -> Iterator[Iterator[tuple[int, str]]]:
    """The (line number, line without its newline) of each row of a path or lines in memory.

    ``#`` lines go to comments when it is given. A ParseError raised inside the
    block names the file. A file is refused before its first row when its last
    byte is not a newline, and at the line of a byte that is not UTF-8; lines in
    memory are not a file, so their last line may lack its newline.
    """
    is_path = isinstance(source, (str, PathLike))
    try:
        last = _cut_short(source) if is_path else 0
        if last:
            raise ParseError(last, "last line has no newline (file cut short?)")
        with open(source, "r", encoding="utf-8") if is_path else nullcontext(source) as lines:
            yield _rows(lines, comments)
    except UnicodeDecodeError:
        if not is_path:
            raise
        raise _undecodable(source) from None
    except ParseError as exc:
        if exc.path is not None or not is_path:
            raise
        raise ParseError(exc.line_number, exc.message, source) from None
