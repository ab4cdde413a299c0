"""Crash-safe file writes: whole-file replaces and durable appends.

Every artifact the pipeline rewrites whole — metrics snapshots, event
streams, experiment JSON, dashboards, ``campaign.json`` — goes through
:func:`atomic_write_text` (temp file in the target directory +
``os.replace``), so a crash (or an injected one) can never leave a
truncated file at the final path: readers either see the complete old
content or the complete new content.  The two append-only JSONL logs —
run ledgers and campaign queues — go through :func:`append_line`
instead: one fsynced write per record, so a crash tears at most the
final line, which their readers drop.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]


def _fsync_dir(directory: PathLike) -> None:
    """Best-effort fsync of a directory entry.

    After ``os.replace`` the *data* is durable but the rename itself
    lives in the directory; syncing the directory makes the new name
    survive a power cut too.  Platforms (or filesystems) that refuse to
    open/fsync directories are tolerated silently — durability degrades
    to crash consistency there, it never breaks the write.
    """
    try:
        dir_fd = os.open(str(directory) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_text(path: PathLike, text: str, fsync: bool = True) -> None:
    """Write ``text`` to ``path`` atomically and durably.

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX).  By
    default the data is fsynced before the rename and the directory is
    (best-effort) fsynced after it, so the write survives a power cut,
    not just a process crash.  Pass ``fsync=False`` for throwaway
    artifacts where crash consistency is enough.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_name, path)
        if fsync:
            _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: PathLike, payload, indent: int = 2,
                      sort_keys: bool = False, default=None,
                      fsync: bool = True) -> None:
    """Serialise ``payload`` and write it atomically as JSON + newline."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys,
                      default=default) + "\n"
    atomic_write_text(path, text, fsync=fsync)


def append_line(path: PathLike, data: bytes, reframe: bool = False) -> None:
    """Append ``data`` (one record, newline included) to ``path`` durably.

    One O(1) write plus an fsync, whatever the file's size.  ``reframe``
    first starts a fresh line: the writer passes it when its previous
    append was torn, so the torn bytes stay a line of their own.
    """
    with open(path, "ab") as fh:
        if reframe:
            fh.write(b"\n")
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def tolerant_read_text(path: PathLike) -> str:
    """Read UTF-8 text, tolerating a torn multibyte sequence at EOF.

    A crash mid-append can truncate the final record *inside* a UTF-8
    multibyte sequence; a strict decode then raises before line-level
    torn-tail handling ever sees the file.  Decoding falls back to
    ``errors="replace"`` so the damage surfaces as U+FFFD characters on
    the affected line — torn *tails* are then dropped by the callers'
    last-line JSON check, while corruption anywhere else still fails
    JSON parsing and is reported as corrupt.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data.decode("utf-8", errors="replace")
