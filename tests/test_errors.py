"""The exception hierarchy of ``imw.errors``."""

import ast
from pathlib import Path

import imw.errors


def _raised_names():
    """The name of each class that a ``raise`` under the package raises."""
    names = set()
    for path in Path(imw.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    # A class exists only where it is used, so one left without its raises fails.
    classes = {name for name, obj in vars(imw.errors).items()
               if isinstance(obj, type) and issubclass(obj, imw.errors.ImwError)
               and obj is not imw.errors.ImwError}
    assert classes - _raised_names() == set()
    assert len(classes) == 18
