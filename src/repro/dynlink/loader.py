"""The dynamic linker for display modules.

"Every time OdeView needs to display an object, it dynamically loads the
object file containing the appropriate display function (if it is not
already loaded)" (paper §4.5).  Here the "object files" are Python modules
named ``<class>.py`` in a database's ``display/`` directory, loaded through
:mod:`importlib` at run time.

The loader caches loaded modules keyed by (path, mtime, size) so editing a
display module on disk — the analogue of recompiling a class's display
function — is picked up on the next display call without restarting
OdeView.  Adding a brand-new class therefore requires zero changes to
OdeView itself, the property §4.5 is about (ABL-DYN demonstrates it).
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import DynlinkError
from repro.obs import get_registry


@dataclass
class LoaderStats:
    loads: int = 0          # actual module executions (cold loads)
    cache_hits: int = 0
    invalidations: int = 0  # reloads because the file changed


class DisplayModuleLoader:
    """Loads and caches per-class display modules from one directory."""

    _instance_counter = itertools.count(1)

    def __init__(self, display_dir: Union[str, Path]):
        self.display_dir = Path(display_dir)
        self._cache: Dict[str, Tuple[Tuple[float, int], object]] = {}
        self._uid = next(DisplayModuleLoader._instance_counter)
        self.stats = LoaderStats()
        registry = get_registry()
        self._m_loads = registry.counter("dynlink.loads")
        self._m_cache_hits = registry.counter("dynlink.cache_hits")
        self._m_invalidations = registry.counter("dynlink.invalidations")
        self._m_load_time = registry.histogram("dynlink.load_seconds")

    # -- paper-named entry points (§4.2 code fragment) -------------------------

    def get_dispfn(self, class_name: str) -> Optional[Path]:
        """Locate the display module for a class; None when not provided."""
        path = self._module_path(class_name)
        return path if path.exists() else None

    def ld_dispfn(self, class_name: str):
        """Load (or re-use) the display module for a class.

        Returns the module object, or ``None`` when the class designer
        provided no display module (the caller then synthesizes one).
        One ``stat`` per call both finds the file and fingerprints it.
        """
        path = self._module_path(class_name)
        try:
            stat = path.stat()
        except FileNotFoundError:
            return None
        fingerprint = (stat.st_mtime, stat.st_size)
        cached = self._cache.get(class_name)
        if cached is not None:
            cached_fingerprint, module = cached
            if cached_fingerprint == fingerprint:
                self.stats.cache_hits += 1
                self._m_cache_hits.inc()
                return module
            self.stats.invalidations += 1
            self._m_invalidations.inc()
        with self._m_load_time.time():
            module = self._execute(class_name, path)
        self._cache[class_name] = (fingerprint, module)
        self.stats.loads += 1
        self._m_loads.inc()
        return module

    # -- internals -----------------------------------------------------------------

    def _module_path(self, class_name: str) -> Path:
        if not class_name.isidentifier():
            raise DynlinkError(f"bad class name {class_name!r}")
        return self.display_dir / f"{class_name}.py"

    def _execute(self, class_name: str, path: Path):
        # Unique module name per loader instance so two open databases with
        # same-named classes never collide in sys.modules.
        module_name = f"_odeview_display_{self._uid}_{class_name}"
        try:
            spec = importlib.util.spec_from_file_location(module_name, path)
            if spec is None or spec.loader is None:
                raise DynlinkError(f"cannot create import spec for {path}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[module_name] = module
            try:
                spec.loader.exec_module(module)
            except Exception:
                sys.modules.pop(module_name, None)
                raise
            return module
        except DynlinkError:
            raise
        except Exception as exc:
            raise DynlinkError(
                f"display module for class {class_name!r} failed to load: {exc}"
            ) from exc

    def invalidate(self, class_name: Optional[str] = None) -> None:
        """Drop cached modules (all, or one class)."""
        if class_name is None:
            self._cache.clear()
        else:
            self._cache.pop(class_name, None)

    def loaded_classes(self):
        return sorted(self._cache)
