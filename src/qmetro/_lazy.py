"""Modules bound at import time but loaded on first use.

numpy and scipy take most of a second to import, and the Gaussian commands
never need them.  A module that uses them binds a :class:`LazyModule` in
their place, e.g. ``np = LazyModule("numpy")``, so importing any part of
qmetro stays standard-library only; the real module is imported the first
time one of its attributes is read.
"""

import importlib
import types


class LazyModule(types.ModuleType):
    """Stand-in for the module ``name``, imported on first attribute access.

    After the import the real module's namespace is copied into this one, so
    later attribute reads are ordinary lookups that cost nothing extra.
    """

    def __getattr__(self, attr: str):
        module = importlib.import_module(self.__name__)
        self.__dict__.update(module.__dict__)
        return getattr(module, attr)
