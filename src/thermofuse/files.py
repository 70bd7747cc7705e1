"""Output files: every file the package writes goes through `write_file`."""

from __future__ import annotations

import errno
import itertools
import os
import stat

_serial = itertools.count()

# Errors that mean no file can be made beside the target; the file is then
# written in place. Where the directory is missing, the in-place open fails
# in turn and names the target rather than the temporary file.
_NO_FILE_BESIDE = {errno.EACCES, errno.EPERM, errno.EROFS, errno.ENAMETOOLONG,
                   errno.ENOENT, errno.ENOTDIR}


def write_file(path, chunks) -> None:
    """Write the bytes-like `chunks`, in order, to `path` without ever
    truncating an existing regular file that the caller owns.

    The chunks are consumed one at a time and written as they are, without
    copies, to a new file beside the target, `.<name>.<pid>.<n>.tmp`,
    created exclusively with mode 0o666 minus the umask; an existing
    target's permission bits (not setuid, setgid or sticky) are copied to
    it. Then the old file is unlinked and the new one renamed into its
    place. An error up to the unlink removes the temporary file and leaves
    the old one intact; so does a killed process, though it leaves the
    temporary file behind. Between the unlink and the rename the path does
    not exist for a few microseconds; a crash or a failed rename there
    leaves the complete new file under its temporary name.

    Nothing is fsynced, and the rename does not replace the old file: on
    ext4 a rename over a file, like a truncation, forces the new file's
    write-back at once, while a rename onto a free name leaves it to the
    periodic write-back (up to about 30 s). That deferral is where the
    speed of a rewrite comes from. The price is that a power loss inside
    that window may leave the path as an empty file with the old bytes
    gone, where a truncating rewrite risked that only until its close.

    A symlink is resolved first, so the link stays and its target gets
    the bytes. The file is written in place, as `open(path, "wb")` does,
    when the target exists and is not a regular file (a FIFO or a device),
    belongs to another user (so its owner is kept), or has other hard
    links (so they all get the bytes), and when no file can be made beside
    it (an unwritable directory, or a name too long for the suffix). A
    replaced file gets the caller's group. An existing target the caller
    cannot write raises PermissionError, and a directory IsADirectoryError.
    """
    path = os.fspath(path)
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and stat.S_ISLNK(old.st_mode):
        path = os.path.realpath(path)
        try:
            old = os.stat(path)
        except FileNotFoundError:
            old = None
    if old is not None:
        if not stat.S_ISREG(old.st_mode) or old.st_uid != os.geteuid() or old.st_nlink > 1:
            _write_in_place(path, chunks)
            return
        # Opened without truncation, only to have the kernel check the right to write.
        os.close(os.open(path, os.O_WRONLY | os.O_CLOEXEC))
    head, name = os.path.split(path)
    while True:
        temp = os.path.join(head, f".{name}.{os.getpid()}.{next(_serial)}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
            break
        except FileExistsError:  # left behind by a killed process with the same pid
            continue
        except OSError as exc:
            if exc.errno not in _NO_FILE_BESIDE:
                raise
            _write_in_place(path, chunks)
            return
    try:
        with open(fd, "wb") as fh:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode) & 0o777)
            for chunk in chunks:
                fh.write(chunk)
        if old is not None:
            os.unlink(path)
    except BaseException:
        os.unlink(temp)
        raise
    os.rename(temp, path)


def _write_in_place(path, chunks) -> None:
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
