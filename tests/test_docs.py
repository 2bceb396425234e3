"""The README names package code that exists."""

import importlib
import os
import pkgutil
import re

import cml3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_module_references_resolve():
    # every backticked dotted name whose first part is cml3 or one of its
    # modules, such as `loop._vanishes` or `cml3._kernel`, imports
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    modules = {info.name for info in pkgutil.iter_modules(cml3.__path__)}
    refs = []
    for ref in sorted(set(re.findall(r"`(\w+(?:\.\w+)+)`", text))):
        parts = ref.split(".")
        if parts[0] == "cml3":
            parts = parts[1:]
        if parts[0] in modules:
            refs.append((ref, parts))
    assert len(refs) >= 12
    for ref, (module, *names) in refs:
        obj = importlib.import_module(f"cml3.{module}")
        for name in names:
            assert hasattr(obj, name), ref
            obj = getattr(obj, name)
