"""The opener of every output file (cli row tables and JSON, gridcsv grids)."""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager, suppress


@contextmanager
def output_file(path, mode: str = "w"):
    """open(path, mode) for writing. If the body raises, a regular file it
    opened is removed before the exception propagates, so a failed write
    leaves no truncated file behind."""
    fh = open(path, mode, newline=None if "b" in mode else "\n")
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            yield fh
    except BaseException:
        if regular:
            with suppress(OSError):
                os.unlink(path)
        raise
