"""Every file the package persists is written here, one way.

Durability: nothing is fsynced.  Writes are atomic against a killed
process, not against power loss; everything written is recomputable
from its seeds.  Both writers make the parent directory on first use,
by retrying the open that failed for want of it.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
from pathlib import Path
from typing import Iterable, Optional, Union

#: Numbers that keep the staging files of one process apart.
_SEQUENCE = itertools.count()

_STAGING = re.compile(r"\.\d+-\d+\.tmp\Z")


def is_staging(path: Union[str, Path]) -> bool:
    """Whether ``path`` names a staging file of :func:`write_atomic`,
    ``<target>.<pid>-<n>.tmp``; one a killed writer left is skipped by
    later writes and swept by ``ArtifactStore.clear``."""
    return _STAGING.search(os.fspath(path)) is not None


def _open(path: str, flags: int) -> int:
    """``os.open`` (``0o666`` less the umask), making the parent if missing."""
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, 0o666)


def _write_all(fd: int, data: bytes) -> None:
    """Write ``data``, continuing a short write so its error is raised."""
    done = os.write(fd, data)
    while done < len(data):
        done += os.write(fd, data[done:])


def write_atomic(
    path: Union[str, Path], data: Union[str, bytes], mode: Optional[int] = None
) -> None:
    """Replace ``path`` with ``data`` (text as UTF-8): readers see the old
    file or the new one.

    The data goes in one write to a staging file beside ``path``, which
    :func:`os.replace` renames over it; a failure unlinks the staging
    file, and of two concurrent writers the last rename wins whole.
    ``mode`` sets the permission bits with one ``fchmod``; None gives
    ``0o666`` less the umask, as :meth:`Path.write_text` does.
    """
    path = os.fspath(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    for n in _SEQUENCE:
        tmp = f"{path}.{os.getpid()}-{n}.tmp"
        with contextlib.suppress(FileExistsError):  # left by a killed writer
            fd = _open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            break
    try:
        try:
            if mode is not None:
                os.fchmod(fd, mode)
            _write_all(fd, data)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # swept by a clear
            os.unlink(tmp)
        raise


def append_lines(path: Union[str, Path], lines: Iterable[str]) -> None:
    """Append each of ``lines`` and a newline to ``path`` in one open and
    one write, so a killed process tears at most the last line."""
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    fd = _open(os.fspath(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)
