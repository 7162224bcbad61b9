"""String-keyed plugin registries.

A :class:`Registry` is an ordered mapping from short string keys to factory
objects (classes, functions, extractors).  The package keeps one registry per
extension point -- :data:`repro.ml.MODELS` for the Table I model zoo,
:data:`repro.error.ERROR_METRICS` for error-metric extractors,
:data:`repro.api.SYNTHESIZERS` for cost-model substrates and
:data:`repro.autoax.SEARCH_STRATEGIES` for configuration-space searches --
so new scenarios plug in by registering a key instead of editing flow
internals.

Look-ups of unknown keys raise :class:`RegistryError` listing every
available key.  A registry iterates, sizes and tests membership over its
keys.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class RegistryError(KeyError):
    """Raised for unknown or duplicate registry keys."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class Registry:
    """An ordered ``key -> factory`` mapping with decorator registration.

    Parameters
    ----------
    kind:
        Human-readable name of what is registered (``"model"``,
        ``"error metric"``, ...); used in error messages.
    entries:
        Optional initial ``{key: value}`` entries, kept in insertion order.
    """

    def __init__(self, kind: str, entries: Optional[Dict[str, object]] = None):
        self.kind = kind
        self._entries: "OrderedDict[str, object]" = OrderedDict(entries or {})

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self, key: str, value: Optional[object] = None, *, overwrite: bool = False
    ) -> object:
        """Register ``value`` under ``key``; usable directly or as a decorator.

        ``registry.register("name", obj)`` registers immediately;
        ``@registry.register("name")`` registers the decorated object.
        Re-registering an existing key raises unless ``overwrite=True``.
        """
        if value is None:

            def decorator(obj: Callable) -> Callable:
                self.register(key, obj, overwrite=overwrite)
                return obj

            return decorator
        if key in self._entries and not overwrite:
            raise RegistryError(
                f"{self.kind} {key!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._entries[key] = value
        return value

    def unregister(self, key: str) -> None:
        """Remove ``key``; unknown keys raise :class:`RegistryError`."""
        if key not in self._entries:
            raise self._unknown(key)
        del self._entries[key]

    # ------------------------------------------------------------------ #
    # Look-up
    # ------------------------------------------------------------------ #
    def _unknown(self, key: object) -> RegistryError:
        return RegistryError(
            f"unknown {self.kind} {key!r}; available: {list(self._entries)}"
        )

    def get(self, key: str) -> object:
        """The value registered under ``key``.

        Raises
        ------
        RegistryError
            When ``key`` is unknown; the message lists the available keys.
        """
        try:
            return self._entries[key]
        except KeyError:
            raise self._unknown(key) from None

    def __getitem__(self, key: str) -> object:
        return self.get(key)

    def keys(self) -> List[str]:
        return list(self._entries)

    def values(self) -> List[object]:
        return list(self._entries.values())

    def items(self) -> List[Tuple[str, object]]:
        return list(self._entries.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, keys={list(self._entries)})"
