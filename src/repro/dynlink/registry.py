"""The per-database display-function registry.

Ties the dynamic linker to one database: given a class name it answers the
four protocol questions — which display formats exist, what does a format's
display look like for a buffer, what is the displaylist, what is the
selectlist — consulting the class's display module when one exists and
synthesizing the paper's "rudimentary" fallbacks otherwise.

Every call into class-designer code is guarded: a crash inside a display
module surfaces as :class:`DynlinkError`, which the object-interactor
process turns into an isolated failure (paper §4.6).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import DynlinkError
from repro.dynlink.loader import DisplayModuleLoader
from repro.dynlink.protocol import (
    DisplayRequest,
    DisplayResources,
    ensure_display_resources,
)
from repro.dynlink.synthesize import synthesize_display
from repro.ode.database import Database
from repro.ode.types import (
    BoolType,
    DateType,
    FloatType,
    IntType,
    StringType,
)

_SCALAR_TYPES = (IntType, FloatType, BoolType, StringType, DateType)
DEFAULT_FORMATS: Tuple[str, ...] = ("text",)


class DisplayRegistry:
    """Display protocol dispatch for one open database."""

    def __init__(self, database: Database):
        self.database = database
        self.loader = DisplayModuleLoader(database.display_dir)

    # -- module access -----------------------------------------------------------

    def module_for(self, class_name: str):
        """The class's display module, or None if the designer provided none."""
        self.database.schema.get_class(class_name)  # unknown class -> SchemaError
        return self.loader.ld_dispfn(class_name)

    def has_display_module(self, class_name: str) -> bool:
        return self.loader.get_dispfn(class_name) is not None

    # -- protocol: formats ----------------------------------------------------------

    def formats(self, class_name: str) -> Tuple[str, ...]:
        """Display format names — one object-panel button each (paper §3.2)."""
        module = self.module_for(class_name)
        if module is not None and hasattr(module, "FORMATS"):
            formats = tuple(module.FORMATS)
            if not formats:
                raise DynlinkError(
                    f"display module of {class_name!r} declares empty FORMATS"
                )
            return formats
        return DEFAULT_FORMATS

    # -- protocol: display ------------------------------------------------------------

    def display(self, buffer, request: DisplayRequest) -> DisplayResources:
        """Invoke the display function for one buffer and format."""
        class_name = buffer.class_name
        module = self.module_for(class_name)
        if module is not None and hasattr(module, "display"):
            try:
                result = module.display(buffer, request)
            except DynlinkError:
                raise
            except Exception as exc:
                raise DynlinkError(
                    f"display function of class {class_name!r} crashed: {exc}"
                ) from exc
            return ensure_display_resources(result, class_name)
        return synthesize_display(
            buffer, request, self._displaylist(class_name, module))

    # -- protocol: displaylist / selectlist ----------------------------------------------

    def displaylist(self, class_name: str) -> List[str]:
        """Attributes projection can select (paper §5.1)."""
        return self._displaylist(class_name, self.module_for(class_name))

    def _displaylist(self, class_name: str, module) -> List[str]:
        if module is not None and hasattr(module, "displaylist"):
            try:
                names = list(module.displaylist())
            except Exception as exc:
                raise DynlinkError(
                    f"displaylist of class {class_name!r} crashed: {exc}"
                ) from exc
            return names
        return self._synthesized_displaylist(class_name)

    def selectlist(self, class_name: str) -> List[str]:
        """Attributes usable in selection predicates (paper §5.2)."""
        module = self.module_for(class_name)
        if module is not None and hasattr(module, "selectlist"):
            try:
                names = list(module.selectlist())
            except Exception as exc:
                raise DynlinkError(
                    f"selectlist of class {class_name!r} crashed: {exc}"
                ) from exc
            return names
        return self._synthesized_selectlist(class_name)

    def _synthesized_displaylist(self, class_name: str) -> List[str]:
        """Rudimentary fallback: public attributes plus computed attributes."""
        schema = self.database.schema
        names = [
            attr.name for attr in schema.all_attributes(class_name) if attr.is_public
        ]
        names += [
            method.name
            for method in schema.all_methods(class_name)
            if method.is_public and not method.side_effects
        ]
        return names

    def _synthesized_selectlist(self, class_name: str) -> List[str]:
        """Rudimentary fallback: public *scalar* attributes (predicable)."""
        schema = self.database.schema
        return [
            attr.name
            for attr in schema.all_attributes(class_name)
            if attr.is_public and isinstance(attr.type_spec, _SCALAR_TYPES)
        ]
