"""The package namespace is lazy: `import qhopf` loads no submodule, and each
exported name resolves to its submodule's attribute on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhopf

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("name", qhopf.__all__)
def test_exported_name_is_the_submodule_attribute(name):
    value = getattr(qhopf, name)
    if name in ("dsl", "errors"):
        assert value is sys.modules["qhopf." + name]
    else:
        source = sys.modules[value.__module__]
        assert source.__name__.startswith("qhopf.")
        assert getattr(source, name) is value


def test_star_import_binds_all():
    ns = {}
    exec("from qhopf import *", ns)
    assert set(qhopf.__all__) <= set(ns)
    assert ns["verify"] is qhopf.datum.verify
    assert ns["dsl"] is qhopf.dsl


def test_dir_covers_all():
    assert set(qhopf.__all__) <= set(dir(qhopf))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qhopf.no_such_name


def test_bare_import_loads_no_submodule():
    code = ("import sys, qhopf; "
            "print(sorted(m for m in sys.modules if m.startswith('qhopf')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC)).stdout
    assert out.strip() == "['qhopf']"
