"""Public names exist, and error messages name only what exists."""

import ast
import importlib
import inspect
import pkgutil
import re

import pytest

import indiffmarket
from indiffmarket import engine

MODULES = [importlib.import_module(f"indiffmarket.{m.name}")
           for m in pkgutil.iter_modules(indiffmarket.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def _stale_names(source: str, module) -> list:
    """Code names in the messages that ``source`` raises (words with an
    underscore or a dot, such as ``simulate_sde_paths`` or
    ``SimpleStrategy.held``) that do not resolve in ``module``."""
    stale = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        for part in ast.walk(node.exc):
            if not (isinstance(part, ast.Constant)
                    and isinstance(part.value, str)):
                continue
            for word in re.findall(r"\b[A-Za-z_]\w*(?:\.\w+)*", part.value):
                if "_" not in word and "." not in word:
                    continue
                obj = module
                for attr in word.split("."):
                    obj = getattr(obj, attr, None)
                if obj is None:
                    stale.append(word)
    return stale


def test_engine_messages_name_no_removed_function():
    assert _stale_names(inspect.getsource(engine), engine) == []
    # the check sees a message that points to a function the module
    # lacks, and passes the names it has
    stale = ('raise ValueError("execute_simple needs an implicit tree; "\n'
             '                 "use execute_lattice_paths on lattices")\n')
    assert _stale_names(stale, engine) == ["execute_lattice_paths"]
