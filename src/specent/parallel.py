"""Order-preserving map used by the radius and ensemble sample loops.

An ensemble sample carries its own RNG sub-stream, so results depend only on
the item index.  Items run serially in the caller's thread: every item is
a few small numpy calls, which threads did not speed up.  ``workers`` is
accepted and ignored, because the benchmark's layer tracer
(``perfbench/tracing.py``) wraps this function and passes it a third
positional argument.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int | None = None) -> list[R]:
    return [fn(item) for item in items]
