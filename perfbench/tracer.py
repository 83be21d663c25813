"""Outside-in span tracer: wraps a program's callables from outside it.

A ``Tracer`` replaces a callable at every name the program looks it up
under (every module of the package that holds the same object, or the
attribute of a class) with a wrapper that records one span per call:
name, start, end, the index of the span that was open when it began, and
one number the caller chooses to measure from the call (array size,
rejected halvings, bytes written).  Spans are kept in flat in-memory
arrays while the program runs and written out once with ``dump``;
``load`` and ``self_times`` turn the file back into per-span self times.

``uninstall`` puts every original object back where it was found.

numpy is imported only inside the functions that need it: a benchmark
child process imports this module before it starts its set-up clock.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.value = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, original, name: str, measure=None):
        """A wrapper around ``original`` that records a span named ``name``.

        ``measure(args, kwargs, result)`` returns the number stored with the
        span; it runs after the span has closed, so it is not timed.
        """
        name_id = self._name_id(name)
        open_, close, value = self._open, self._close, self.value

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if measure is not None:
                value[idx] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def install(self, owner, attr: str, name: str, measure=None, package: str | None = None) -> None:
        """Wrap ``owner.attr``.

        For a class, the class attribute is replaced.  For a module, the
        same object is also replaced in every loaded module of ``package``
        that imported it by name, since that is where the program looks it
        up.
        """
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, measure)
        holders = [owner]
        if package is not None and not isinstance(owner, type):
            for mod_name, module in list(sys.modules.items()):
                if module is owner or module is None:
                    continue
                if mod_name == package or mod_name.startswith(package + "."):
                    if vars(module).get(attr) is original:
                        holders.append(module)
        for holder in holders:
            setattr(holder, attr, wrapper)
            self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped name to its original object."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def dump(self, path) -> None:
        """Write every span recorded so far to ``path`` (numpy .npz)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            value=np.frombuffer(self.value, dtype=float),
        )


def load(path) -> dict:
    """Read a span file written by ``Tracer.dump``."""
    import numpy as np

    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(spans: dict):
    """Each span's duration minus the durations of its direct children."""
    import numpy as np

    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_total = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child_total


def under(spans: dict, names) -> "np.ndarray":
    """Mask of spans that are, or descend from, a span with one of ``names``."""
    import numpy as np

    wanted = set(names)
    ids = [i for i, n in enumerate(spans["names"]) if n in wanted]
    mask = np.isin(spans["name"], ids)
    anc = spans["parent"].astype(np.int64)
    # pointer doubling: after k rounds every span has looked 2^k levels up
    while np.any(anc >= 0):
        up = anc >= 0
        mask[up] |= mask[anc[up]]
        nxt = np.full_like(anc, -1)
        nxt[up] = anc[anc[up]]
        anc = nxt
    return mask
