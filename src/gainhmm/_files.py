"""Opening output files, and reading input ones."""

from __future__ import annotations

import os
import stat


def create(path, mode="w"):
    """Open `path` for writing as a new file, in text mode or with mode "wb".

    An existing regular file is unlinked first, not truncated. On ext4
    (mounted with the default auto_da_alloc), truncating a file, or
    renaming over it, while its last contents still wait for write-back
    makes the open wait for that write-back: about 40 ms a file on a
    shared disk, so a command that rewrites a dozen outputs ran at the
    disk's pace instead of its own. Unlinking drops the old contents
    without waiting. Symbolic links, other non-regular files and files
    that cannot be unlinked are opened in place, as before.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass  # missing or not removable: open() reports what matters
    return open(path, mode)


def text_lines(fh):
    """The lines of the open text file `fh`; a decode error names the file."""
    try:
        yield from fh
    except UnicodeDecodeError as e:
        raise ValueError(f"{fh.name}: {e}") from None
