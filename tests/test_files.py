import ast
import builtins
import errno
import itertools
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

import thermofuse
from thermofuse import files, wavelet
from thermofuse.files import write_file
from thermofuse.model import ModelConfig, build_model, save_weights


class _FullDisk:
    """A file opened for writing whose first array write fails as on a full
    disk; the header bytes before it are written."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        if isinstance(data, np.ndarray):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _write_on_full_disk(monkeypatch, write):
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", open_)
        with pytest.raises(OSError) as exc:
            write()
    assert exc.value.errno == errno.ENOSPC


@pytest.mark.parametrize(
    "name,write",
    [
        ("p.coef", lambda path: wavelet.write_coeff_plane(np.arange(12.0).reshape(3, 4), path)),
        ("w.tofw", lambda path: save_weights(build_model(ModelConfig(dwf=1), seed=7), path)),
    ],
)
def test_failed_rewrite_leaves_the_old_file(tmp_path, monkeypatch, name, write):
    path = tmp_path / name
    write(path)
    old = path.read_bytes()
    _write_on_full_disk(monkeypatch, lambda: write(path))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_rewrite_replaces_the_file(tmp_path):
    # A new inode each time: the old file is never truncated and rewritten.
    path = tmp_path / "x.bin"
    write_file(path, [b"old"])
    before = path.stat().st_ino
    write_file(path, [b"new ", memoryview(b"bytes"), np.arange(3, dtype="<u2")])
    assert path.stat().st_ino != before
    assert path.read_bytes() == b"new bytes\0\0\1\0\2\0"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


def test_new_file_gets_the_mode_open_gives(tmp_path):
    with open(tmp_path / "ref", "wb"):
        pass
    write_file(tmp_path / "new", [b"x"])
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "ref").stat().st_mode


def test_rewrite_keeps_the_mode(tmp_path):
    path = tmp_path / "secret"
    path.write_bytes(b"old")
    path.chmod(0o600)
    write_file(path, [b"new"])
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_bytes() == b"new"


def test_rewrite_drops_setuid_setgid_and_sticky(tmp_path):
    path = tmp_path / "prog"
    path.write_bytes(b"old")
    path.chmod(0o7755)
    write_file(path, [b"new"])
    assert stat.S_IMODE(path.stat().st_mode) == 0o755


def test_hard_linked_target_is_written_through(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"old")
    os.link(path, tmp_path / "b.pgm")
    before = path.stat().st_ino
    write_file(path, [b"new"])
    assert path.stat().st_ino == before
    assert (tmp_path / "b.pgm").read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a file to another user")
def test_target_of_another_user_keeps_its_owner(tmp_path):
    path = tmp_path / "shared.coef"
    path.write_bytes(b"old")
    os.chown(path, 4321, 4321)
    before = path.stat().st_ino
    write_file(path, [b"new"])
    assert (path.stat().st_ino, path.stat().st_uid, path.stat().st_gid) == (before, 4321, 4321)
    assert path.read_bytes() == b"new"


def test_stale_temporary_name_is_skipped(tmp_path, monkeypatch):
    # A killed process may leave its temporary file, and its pid may come back.
    monkeypatch.setattr(files, "_serial", itertools.count())
    stale = tmp_path / f".x.bin.{os.getpid()}.0.tmp"
    stale.write_bytes(b"stale")
    path = tmp_path / "x.bin"
    path.write_bytes(b"old")
    before = path.stat().st_ino
    write_file(path, [b"new"])
    assert path.stat().st_ino != before and path.read_bytes() == b"new"
    assert stale.read_bytes() == b"stale"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "x.bin"]


def test_full_disk_at_the_temporary_file_leaves_the_old_file(tmp_path, monkeypatch):
    real_open = os.open

    def open_(file, flags, *args, **kwargs):
        if flags & os.O_EXCL:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), file)
        return real_open(file, flags, *args, **kwargs)

    path = tmp_path / "x.bin"
    path.write_bytes(b"old")
    with monkeypatch.context() as patch:
        patch.setattr(os, "open", open_)
        with pytest.raises(OSError) as exc:
            write_file(path, [b"new"])
    assert exc.value.errno == errno.ENOSPC
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


def test_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "no" / "x.bin"
    with pytest.raises(FileNotFoundError) as exc:
        write_file(path, [b"x"])
    assert exc.value.filename == str(path)


def test_symlink_keeps_its_link(tmp_path):
    real = tmp_path / "real.pgm"
    real.write_bytes(b"old")
    link = tmp_path / "link.pgm"
    link.symlink_to(real)
    write_file(link, [b"new"])
    assert link.is_symlink() and link.resolve() == real
    assert real.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.pgm", "real.pgm"]


def test_dangling_symlink_creates_its_target(tmp_path):
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "target")
    write_file(link, [b"bytes"])
    assert link.is_symlink() and (tmp_path / "target").read_bytes() == b"bytes"


def test_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write_file(fifo, [b"abc", b"def"])
        reader.join(timeout=10)
        assert not reader.is_alive()
    finally:
        if reader.is_alive():  # release a reader still waiting for a writer
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert received == [b"abcdef"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_name_too_long_for_a_temporary_file_is_written_in_place(tmp_path):
    # `.<name>.<pid>.<n>.tmp` is past the 255-byte name limit, so no file
    # can be made beside the target.
    path = tmp_path / ("x" * 250)
    path.write_bytes(b"old bytes")
    before = path.stat().st_ino
    write_file(path, [b"new"])
    assert path.stat().st_ino == before
    assert path.read_bytes() == b"new"


def test_directory_target_is_refused(tmp_path):
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError):
        write_file(tmp_path / "d", [b"x"])
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert not any((tmp_path / "d").iterdir())


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_read_only_target_is_refused(tmp_path):
    path = tmp_path / "ro"
    path.write_bytes(b"old")
    path.chmod(0o444)
    with pytest.raises(PermissionError):
        write_file(path, [b"new"])
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["ro"]


def test_failing_chunk_leaves_the_old_file(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"old")

    def chunks():
        yield b"partial"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_file(path, chunks())
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


# -- one writer --------------------------------------------------------

_WRITE_MODE = set("wxa+")
_WRITE_FLAGS = ("O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND")
_WRITER_CALLS = {"write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed",
                 "savetxt"}


def _is_write_mode(node) -> bool:
    """True for a mode argument that is not a constant read-only mode."""
    if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
        return True
    return bool(_WRITE_MODE & set(node.value))


def _file_writes(tree):
    """Line numbers of calls in `tree` that open a file for writing or write
    one: open/io.open/Path.open with a w, x, a or + mode (or a mode that is
    not a constant), os.open with a write flag, and the writing methods of
    pathlib and numpy."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        method = isinstance(func, ast.Attribute)
        name = func.attr if method else getattr(func, "id", None)
        owner = getattr(func.value, "id", "") if method else ""
        if name in _WRITER_CALLS:
            yield node.lineno
        elif name == "open" and owner == "os":
            if any(flag in ast.unparse(node) for flag in _WRITE_FLAGS):
                yield node.lineno
        elif name in ("open", "fdopen"):
            # open/io.open(file, mode) and os.fdopen(fd, mode), or path.open(mode)
            at = 0 if method and owner not in ("io", "os") else 1
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[at : at + 1]
            if any(_is_write_mode(mode) for mode in modes):
                yield node.lineno


def test_every_output_goes_through_write_file():
    # Any other writer could bring back in-place truncation of old outputs.
    package = Path(thermofuse.__file__).parent
    found = []
    for source in sorted(package.rglob("*.py")):
        if source.name == "files.py" and source.parent == package:
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        found += [f"{source.relative_to(package)}:{line}" for line in _file_writes(tree)]
    assert found == []


def test_file_write_scan_finds_each_kind():
    tree = ast.parse(
        "open(os.fspath(p), 'wb')\n"
        "open(p, mode='x')\n"
        "io.open(p, 'r+b')\n"
        "Path(p).open('a')\n"
        "open(p, m)\n"
        "os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "os.fdopen(fd, 'wb')\n"
        "Path(p).write_text(s)\n"
        "p.write_bytes(b)\n"
        "arr.tofile(p)\n"
        "np.save(p, arr)\n"
        "open(p, 'rb', buffering=0)\n"
        "open(p)\n"
        "Path(p).open()\n"
        "os.open(p, os.O_RDONLY)\n"
        "io.open(p, 'rb')\n"
    )
    assert sorted(_file_writes(tree)) == list(range(1, 12))
