"""The JSON form of every result, and the one writer of every output file."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, SpecentError


def plain(value):
    """``value`` in JSON types: a numpy array or scalar by ``tolist``/``item``
    (a complex array as ``[re, im]`` pairs), containers item by item."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack([value.real, value.imag], axis=-1)
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def as_json(result, rename: dict | None = None, omit: tuple = (), **extra) -> dict:
    """The fields of dataclass ``result`` but ``omit`` in JSON types, keyed by
    their ``rename`` entry or name, plus the ``extra`` keys."""
    keys = rename or {}
    return {**{keys.get(f.name, f.name): plain(getattr(result, f.name))
               for f in fields(result) if f.name not in omit}, **plain(extra)}


@contextmanager
def open_output(path, newline: str | None = None):
    """``path`` opened for writing UTF-8 text, its missing parent directories
    made; an ``OSError`` on the way becomes ``InvalidArgumentError``."""
    parent = Path(path).parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
    except FileExistsError:  # mkdir found a file where the parent should be
        raise InvalidArgumentError(f"cannot write {path}: {parent} is not a directory") from None
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from None


def write_json(path, payload: dict) -> None:
    """``payload`` to ``path`` as JSON, sorted and indented by 2, plus a newline;
    a non-finite number, which JSON cannot hold, raises ``SpecentError`` first."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SpecentError(f"cannot write {path}: {exc}") from None
    with open_output(path) as handle:
        handle.write(text)
