"""Modules bound at import time but loaded on first use.

numpy takes a tenth of a second to import, and the Gaussian commands never
need it.  A module that uses it binds a :class:`LazyModule` in its place,
``np = LazyModule("numpy")``, so importing any part of qmetro stays
standard-library only; the real module is imported the first time one of
its attributes is read.  numpy is the package's only dependency.
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
