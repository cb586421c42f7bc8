import builtins
import errno
import os
from pathlib import Path

import pytest


class _FullDisk:
    """A file opened for writing whose writes fail with ENOSPC once `room`
    more bytes (or characters, in text mode) would not fit."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def write(self, data):
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.fixture
def faulty_open(monkeypatch):
    """`faulty_open(path, room)`: from then on, a file opened for writing at
    `path` fills up after `room` bytes, as on a full disk; with room=None,
    every open of `path` is refused instead."""
    real_open = builtins.open

    def install(target, room):
        def fake_open(path, mode="r", *args, **kwargs):
            if isinstance(path, (str, os.PathLike)) and Path(path) == Path(target):
                if room is None:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                if "w" in mode:
                    return _FullDisk(real_open(path, mode, *args, **kwargs), room)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", fake_open)

    return install
