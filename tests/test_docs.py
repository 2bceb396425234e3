"""The README and the package's docstrings and comments name package code
that exists."""

import glob
import importlib
import os
import pkgutil
import re

import cml3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module_refs(text):
    """Every backticked dotted name in ``text`` whose first part is cml3 or
    one of its modules, such as `loop._vanishes` or `cml3._kernel`, with
    its parts below the package."""
    modules = {info.name for info in pkgutil.iter_modules(cml3.__path__)}
    refs = []
    for ref in sorted(set(re.findall(r"`(\w+(?:\.\w+)+)`", text))):
        parts = ref.split(".")
        if parts[0] == "cml3":
            parts = parts[1:]
        if parts[0] in modules:
            refs.append((ref, parts))
    return refs


def _assert_resolve(refs):
    for ref, (module, *names) in refs:
        obj = importlib.import_module(f"cml3.{module}")
        for name in names:
            assert hasattr(obj, name), ref
            obj = getattr(obj, name)


def test_readme_module_references_resolve():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        refs = _module_refs(fh.read())
    assert len(refs) >= 12
    _assert_resolve(refs)


def test_source_module_references_resolve():
    # the package's own docstrings and comments, ``double`` backticks too
    text = ""
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cml3", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text += fh.read()
    refs = _module_refs(text)
    assert len(refs) >= 16
    _assert_resolve(refs)
