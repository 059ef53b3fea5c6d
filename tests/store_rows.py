"""Row-level access to a result store's SQLite file, for tests that
read or damage one stored document the way bit rot or a hand edit
would. Each call opens its own short-lived connection beside the
store's."""

from __future__ import annotations

import sqlite3
from contextlib import closing
from pathlib import Path
from typing import List

from repro.engine.cache import STORE_FILE


def _connect(root) -> sqlite3.Connection:
    return sqlite3.connect(Path(root) / STORE_FILE, isolation_level=None)


def keys(root, kind: str = "result") -> List[str]:
    """Keys of every ``kind`` row (``"result"`` or ``"profile"``)."""
    with closing(_connect(root)) as db:
        rows = db.execute(
            "SELECT key FROM entries WHERE kind = ? ORDER BY key", (kind,))
        return [key for (key,) in rows]


def read_doc(root, key: str) -> str:
    with closing(_connect(root)) as db:
        (text,) = db.execute(
            "SELECT doc FROM entries WHERE key = ?", (key,)).fetchone()
    return text


def write_doc(root, key: str, text: str) -> None:
    """Overwrite the stored document of an existing row."""
    with closing(_connect(root)) as db:
        updated = db.execute(
            "UPDATE entries SET doc = ? WHERE key = ?", (text, key)).rowcount
    assert updated == 1, f"no row {key!r}"
