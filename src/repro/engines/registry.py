"""The engine registry: name -> execution backend.

The built-in engines are registered by name and module path and are
instantiated on their first :func:`get_engine` call, so listing the
registered names imports no engine module and a sweep loads only the
engines it names.  Engines are looked up by name everywhere an execution
semantics is chosen -- the campaign executor, the experiments and the CLI all
dispatch through :func:`get_engine`, so an unknown engine name fails early
with a message listing the registered ones instead of deep inside a run body.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple, Union

from repro.engines.base import Engine

__all__ = [
    "BUILTIN_ENGINES",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
]

#: The built-in engines: name -> ``(module, attribute)``, where the attribute
#: is the backend class or a function that builds the backend.
BUILTIN_ENGINES: Dict[str, Tuple[str, str]] = {
    "array": ("repro.engines.array", "ArrayEngine"),
    "clocktree": ("repro.engines.clocktree", "ClockTreeEngine"),
    "des": ("repro.engines.des", "registered_engine"),
    "solver": ("repro.engines.solver", "SolverEngine"),
}

#: Registered engines; a built-in stays a ``(module, attribute)`` pair until
#: its first lookup.
_REGISTRY: Dict[str, Union[Engine, Tuple[str, str]]] = dict(BUILTIN_ENGINES)


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Register an execution backend under its ``name``.

    Parameters
    ----------
    engine:
        The backend; must provide ``name``, ``capabilities`` and ``run``.
    replace:
        Allow overwriting an existing registration (tests and experimental
        backends); by default a duplicate name is an error.

    Returns
    -------
    Engine
        The registered engine (so the call can be used as a decorator-ish
        one-liner on an instance).
    """
    for attribute in ("name", "capabilities", "run"):
        if not hasattr(engine, attribute):
            raise TypeError(
                f"engine {engine!r} does not implement the Engine protocol "
                f"(missing {attribute!r})"
            )
    name = engine.name
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine registration (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> Engine:
    """Look up an execution backend by name, importing a built-in on first use.

    Raises
    ------
    ValueError
        With the list of registered engines when ``name`` is unknown -- the
        single early validation point for every ``engine=`` / ``--engine``
        value in the code base.
    """
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available engines: "
            f"{', '.join(available_engines()) or '(none registered)'}"
        ) from None
    if isinstance(entry, tuple):
        module, attribute = entry
        entry = _REGISTRY[name] = getattr(importlib.import_module(module), attribute)()
    return entry


def available_engines() -> Tuple[str, ...]:
    """The registered engine names, sorted (imports no engine module)."""
    return tuple(sorted(_REGISTRY))
