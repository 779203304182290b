"""The one way the package opens a text file, on the stdlib alone.

Every reader and writer of the package takes a path (``str`` or
``os.PathLike``) or an open text handle.  A handle is used as is and left
open; a path write goes to a temporary sibling that replaces the path only
once the whole file is written, so a failure leaves the old file or none.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import TextIO


@contextlib.contextmanager
def _text_file(target: TextIO | str | os.PathLike, mode: str):
    """Text handle on target for mode "r" or "w".  An open handle passes
    through and stays open; a path is opened for "r", or for "w" written to
    a new sibling that replaces the path only if the body succeeds."""
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    if mode == "r":
        with open(target, "r", newline="") as handle:
            yield handle
        return
    path = os.fspath(target)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:  # 0o666 less the umask: the mode open(path, "w") gives a new file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # name the target, not its temporary sibling
        raise
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json(doc, out: TextIO | str | os.PathLike) -> None:
    """doc as indented JSON and a final newline."""
    with _text_file(out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
