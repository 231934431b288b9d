"""All-or-nothing writes of a command's output files."""

from __future__ import annotations

import contextlib
import os
from typing import Callable


def write_all(outputs: dict[str, str | Callable[[str], None]]) -> None:
    """Write every output, then move them all into place.

    Each path maps to its text, or to a function that writes the file at the
    path it is given. Every output is first written to ``path + ".tmp"``, and
    no target is replaced until all of them are written. If anything fails,
    the temp files this call made are removed, the targets not yet replaced
    keep their old contents, and the error propagates. A temp path that
    already existed and could not be written (a directory, say) is left alone.
    """
    pending: list[tuple[str, str]] = []  # (temp, target) written by this call
    try:
        for path, output in outputs.items():
            tmp = path + ".tmp"
            existed = os.path.lexists(tmp)
            try:
                if isinstance(output, str):
                    with open(tmp, "w", newline="") as fh:
                        fh.write(output)
                else:
                    output(tmp)
            except BaseException:
                if not existed:
                    pending.append((tmp, path))
                raise
            pending.append((tmp, path))
        for tmp, path in pending:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in pending:  # a replaced one is gone already
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
