"""The package namespace: every public name resolves lazily to the object
its home submodule defines, and nothing else is importable through it."""

import importlib

import pytest

import torusobs
from test_cli import fresh_python


@pytest.mark.parametrize("name", torusobs.__all__)
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"torusobs.{torusobs._HOME[name]}")
    value = getattr(torusobs, name)
    assert value is getattr(home, name)
    assert value.__module__ == home.__name__


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from torusobs import *", namespace)
    assert {name: namespace[name] for name in torusobs.__all__} == {
        name: getattr(torusobs, name) for name in torusobs.__all__
    }


def test_all_lists_each_public_name_once_and_dir_lists_them():
    assert len(torusobs.__all__) == len(set(torusobs.__all__)) == 47
    listed = dir(torusobs)
    assert "__all__" in listed
    assert set(torusobs.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        torusobs.no_such_name


def test_package_import_and_unknown_names_import_no_submodule():
    # a submodule's name is not a lazy attribute: `from . import design`
    # probes it with hasattr and must then import the submodule itself
    code = (
        "import sys, torusobs\n"
        "assert not hasattr(torusobs, 'no_such_name')\n"
        "assert not hasattr(torusobs, 'design')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'torusobs'))\n"
        "from torusobs import design\n"
        "assert torusobs.design is design\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "['torusobs']"
