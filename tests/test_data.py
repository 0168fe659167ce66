"""Every bundled data file is named by a constant, and every constant names a file.

A file left behind after its loader was deleted, or a constant whose file
was deleted, fails here instead of shipping unnoticed.
"""

from pathlib import Path

import perfquant.data as data


def file_constants():
    return {name: getattr(data, name) for name in dir(data) if name.endswith("_FILE")}


def test_every_bundled_file_is_named_by_a_constant():
    root = Path(data.__file__).parent
    shipped = {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name != "__init__.py" and "__pycache__" not in p.parts
    }
    assert shipped == set(file_constants().values())


def test_every_file_constant_resolves():
    for name, filename in file_constants().items():
        assert data.path(filename).is_file(), name
