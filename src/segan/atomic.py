"""Files written whole beside their target and renamed over it.

A reader that has the old file open or mapped keeps its contents, and a
write that fails or is cut off leaves the target as it was.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager
from typing import BinaryIO


@contextmanager
def replacing(path) -> Iterator[BinaryIO]:
    """A new file in `path`'s directory, open for binary writing with the
    mode a plain open of `path` would leave (an existing file's mode, else
    0666 less the umask). A clean exit renames it over `path`; an exception
    removes it."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:      # name the target, not the temporary
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
