"""Import the program under test from the checkout's own src/ directory."""

from __future__ import annotations

import importlib
import os
import sys

# The layers, in the order the per-layer report lists them.
LAYERS = ("formula", "saturation", "windows", "kdeab", "kde", "oracle", "translate", "cli")


class Program:
    """The densemodal modules, freshly imported from `<root>/src`.

    `load()` drops every densemodal module from `sys.modules` first, so each
    load starts with empty module-level caches, exactly as a new CLI process
    does.  Nothing is imported from anywhere but the checkout.
    """

    def __init__(self, root: str) -> None:
        self.src = os.path.join(os.path.abspath(root), "src")

    def load(self) -> None:
        for name in [n for n in sys.modules if n == "densemodal" or n.startswith("densemodal.")]:
            del sys.modules[name]
        if not os.path.isdir(os.path.join(self.src, "densemodal")):
            raise ImportError(f"no densemodal package under {self.src}")
        if sys.path[0] != self.src:
            sys.path.insert(0, self.src)
        importlib.invalidate_caches()
        package = importlib.import_module("densemodal")
        if not os.path.abspath(package.__file__).startswith(self.src + os.sep):
            raise ImportError(f"densemodal was imported from {package.__file__}, not {self.src}")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module("densemodal." + layer))
