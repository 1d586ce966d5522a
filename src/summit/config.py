"""Backend settings resolved from an ordered list of sources.

``summarize``: flags > environment > config file > default. ``run-exp`` and
``replay``: flags > manifest > environment > default, since a manifest pins
a reproducible run. Defaults are the ``BackendSettings`` field defaults. The
config file is YAML with nested sections (backend, knowledge).
"""

from __future__ import annotations

import os
import types
import typing
from pathlib import Path
from typing import Mapping

from .backend import BackendSettings
from .errors import ConfigError

#: The environment variable that gives each backend setting.
ENV_VARS = {"api_key": "SUMMIT_API_KEY", "base_url": "SUMMIT_BASE_URL", "model": "SUMMIT_MODEL"}

#: The backend keys a config file may set.
FILE_KEYS = ("base_url", "model", "rpm", "timeout", "max_attempts", "cache")

#: Every key a config file may hold, as ``key_paths`` names them.
_FILE_CONFIG_KEYS = {"backend", "knowledge", "knowledge.endpoint"} | {f"backend.{key}" for key in FILE_KEYS}


def key_paths(data: dict) -> set[str]:
    """The keys of a mapping, as "section.key" inside sections."""
    sections = {f"{s}.{key}" for s, value in data.items() if isinstance(value, dict) for key in value}
    return {str(key) for key in data} | sections


def load_config_file(path: str | Path | None) -> dict:
    if path is None:
        return {}
    import yaml  # here, so that run-exp does not pay for importing it

    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.MarkedYAMLError as exc:  # one line, where PyYAML's message quotes the text around each mark
        mark = exc.problem_mark
        where = f"line {mark.line + 1} column {mark.column + 1}"
        raise ConfigError(f"config file {path} is not valid YAML: {exc.problem}: {where}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {str(exc).splitlines()[0]}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must be a mapping at the top level")
    unknown = sorted(key_paths(data) - _FILE_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} in {path}")
    endpoint = mapping(data.get("knowledge"), "knowledge").get("endpoint")
    if is_set(endpoint):
        coerce(str, endpoint, key="endpoint")
    return data


def is_set(value) -> bool:
    """Whether a source sets a value: None and the empty string set nothing."""
    return value is not None and value != ""


def mapping(value, key: str) -> dict:
    """``value``, set at ``key``, as a mapping: empty when unset, else a
    ConfigError naming ``key`` unless it is one."""
    if not is_set(value):
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, not {type(value).__name__} {value!r}")
    return value


#: The exact value types a str, bool, int or float field accepts: a bool
#: is no number here, though Python makes bool a subclass of int.
_ACCEPTED = {str: (str,), bool: (bool,), int: (int,), float: (int, float)}


def coerce(hint, value, base: Path | None = None, key: str = "value"):
    """``value``, set at ``key``, converted to the annotated type ``hint``.

    ``X | None`` converts to ``X``; a path is given as a string (or a
    Path), and a relative one resolves against ``base`` when one is given;
    a nested record (a NamedTuple) is built from a mapping.
    A str, bool, int or float field takes only the types ``_ACCEPTED`` names,
    so 5 is no str, ``"false"`` no bool and 2.7 no int (ConfigError naming ``key``).
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if hint is Path:
        if not isinstance(value, (str, Path)):
            raise ConfigError(f"{key} must be a path string, not {type(value).__name__} {value!r}")
        return (base / value).resolve() if base is not None else Path(value)
    if hasattr(hint, "_fields"):
        return hint(**params_of(hint, mapping(value, key), base))
    if hint in _ACCEPTED and type(value) not in _ACCEPTED[hint]:
        raise ConfigError(f"{key} must be of type {hint.__name__}, not {type(value).__name__} {value!r}")
    return hint(value)


def params_of(cls, data: dict, base: Path | None = None) -> dict:
    """Keyword arguments for record ``cls`` from the keys of ``data`` it has fields for."""
    hints = typing.get_type_hints(cls)
    return {k: coerce(hints[k], v, base, k) for k, v in data.items() if k in hints and is_set(v)}


def environment() -> dict:
    """The backend settings the SUMMIT_* environment variables give."""
    return {name: os.environ.get(var) for name, var in ENV_VARS.items()}


def resolve_settings(*sources: Mapping) -> BackendSettings:
    """Each field from the first source that sets it, else its default."""
    values = {}
    for source in reversed(sources):
        values.update(params_of(BackendSettings, source))
    return BackendSettings(**values).check()


def resolve_backend_settings(file_config: dict, **flags) -> BackendSettings:
    """The summarize order: flags > environment > config file > default."""
    section = mapping(file_config.get("backend"), "backend")
    return resolve_settings(flags, environment(), {key: section.get(key) for key in FILE_KEYS})
