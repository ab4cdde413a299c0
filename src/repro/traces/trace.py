"""Trace (de)serialisation in an ML-DPC-style text format.

Each line of a trace file is::

    instr_id, pc, address

with hexadecimal pc/address.  Blank lines and ``#`` comments are
ignored.  This mirrors the load-trace format consumed by the ChampSim
fork used in the paper (minus fields the reproduction does not need).
Every field is unsigned and must fit in the trace's ``int64`` columns,
so a value outside ``[0, 2**63)`` is a format error.
"""

from __future__ import annotations

import gzip
from array import array
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import TraceFormatError
from ..types import Trace, validate_trace

_FIELDS = ("instr_id", "pc", "address")
#: Exclusive upper bound of a field: the columns are ``int64``.
_FIELD_LIMIT = 1 << 63


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (gzip-compressed if it ends in .gz)."""
    path = Path(path)
    with _open_text(path, "w") as fh:
        fh.write(f"# trace: {trace.name}\n")
        fh.write(f"# total_instructions: {trace.instruction_count}\n")
        fh.writelines(
            f"{instr_id}, {pc:#x}, {address:#x}\n"
            for instr_id, pc, address in zip(trace.instr_ids.tolist(),
                                             trace.pcs.tolist(),
                                             trace.addresses.tolist()))


def load_trace(path: Union[str, Path], name: str = "") -> Trace:
    """Load a trace file written by :func:`save_trace` (or hand-authored).

    Args:
        path: File to read; ``.gz`` files are decompressed transparently.
        name: Optional trace name; defaults to metadata in the file or
            the file stem.

    Raises:
        TraceFormatError: if any line is malformed, a field falls
            outside ``[0, 2**63)``, or the ``total_instructions`` header
            is below the last instruction id + 1 (carries the file and
            line number), or ids are not increasing.
    """
    path = Path(path)
    columns = tuple(array("q") for _ in _FIELDS)
    total_instructions = None
    file_name = None
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("trace:"):
                    file_name = body.split(":", 1)[1].strip()
                elif body.startswith("total_instructions:"):
                    header_lineno = lineno
                    try:
                        total_instructions = int(
                            body.split(":", 1)[1].strip())
                    except ValueError as exc:
                        raise TraceFormatError(
                            f"bad total_instructions header: {exc}",
                            path=str(path), lineno=lineno) from exc
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise TraceFormatError(
                    f"expected 3 fields, got {len(parts)}",
                    path=str(path), lineno=lineno)
            try:
                row = [int(part, 0) for part in parts]
            except ValueError as exc:
                raise TraceFormatError(str(exc), path=str(path),
                                       lineno=lineno) from exc
            for field, text, value in zip(_FIELDS, parts, row):
                if not 0 <= value < _FIELD_LIMIT:
                    raise TraceFormatError(
                        f"{field} {text} outside [0, 2**63)",
                        path=str(path), lineno=lineno)
            for column, value in zip(columns, row):
                column.append(value)
    instr_ids, pcs, addresses = (np.frombuffer(column, dtype=np.int64)
                                 for column in columns)
    trace = Trace(name or file_name or path.stem, instr_ids, pcs,
                  addresses, total_instructions)
    validate_trace(trace)
    # The header may come anywhere, so it is checked against the ids
    # once they are all read.
    if total_instructions is not None and \
            total_instructions <= int(instr_ids[-1]):
        raise TraceFormatError(
            f"total_instructions {total_instructions} is below the last "
            f"instruction id + 1 ({int(instr_ids[-1]) + 1})",
            path=str(path), lineno=header_lineno)
    return trace
