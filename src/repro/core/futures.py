"""Futures for non-blocking invocation (paper §3.3).

"An invocation through the non-blocking stub returns immediately after
the request has been sent with futures of its 'out' arguments and return
value. ... Trying to read a future before the result it represents is
returned ... will cause the program to block until the result is
delivered.  Alternatively, the programmer may poll on a future to check if
it has been resolved."

The C++ mapping models futures on ABC++'s; this Python mapping keeps the
same operations (blocking read, ``resolved()`` polling) plus an explicit
``value()`` accessor.  Futures bound to the same invocation all resolve
together when the reply completes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .errors import FutureError

_UNSET = object()


class Future:
    """A placeholder for a result that may not yet be available.

    A fresh ``Future()`` may be passed to a ``*_nb`` stub as an out-param
    placeholder; the stub binds it to the pending request.  ``distribution``
    optionally carries the client's requested layout for a distributed out
    argument ("the client can set the distribution of the expected 'out'
    arguments before making an invocation", §3.2).
    """

    __slots__ = ("_value", "_exc", "_progress", "distribution", "label")

    def __init__(self, distribution=None, label: str = "") -> None:
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._progress: Optional[Callable[[bool], None]] = None
        self.distribution = distribution
        self.label = label

    # -- binding (internal, used by stubs) ------------------------------------

    def _bind(self, progress: Callable[[bool], None]) -> None:
        if self._progress is not None or self._value is not _UNSET:
            raise FutureError("future is already bound to an invocation")
        self._progress = progress

    def _unbind(self) -> None:
        """Undo :meth:`_bind` for an invocation that was never issued."""
        self._progress = None

    def _settled(self) -> bool:
        return self._value is not _UNSET or self._exc is not None

    def _resolve(self, value: Any) -> None:
        if self._settled():
            raise FutureError(
                f"future {self.label or '<anonymous>'} is already settled; "
                "cannot resolve it twice"
            )
        self._value = value
        self._progress = None

    def _fail(self, exc: BaseException) -> None:
        if self._settled():
            raise FutureError(
                f"future {self.label or '<anonymous>'} is already settled; "
                "cannot fail it twice"
            )
        self._exc = exc
        self._value = None
        self._progress = None

    # -- user API -----------------------------------------------------------------

    def resolved(self) -> bool:
        """Poll: has the result been delivered?  Never blocks (but drives
        the ORB's progress engine so replies are noticed)."""
        if self._value is _UNSET and self._progress is not None:
            self._progress(False)
        return self._value is not _UNSET or self._exc is not None

    def value(self) -> Any:
        """Blocking read: waits until the result is delivered, then
        returns it (or raises the invocation's exception)."""
        if self._value is _UNSET and self._exc is None:
            if self._progress is None:
                raise FutureError("reading an unbound future would block forever")
            self._progress(True)
        if self._exc is not None:
            raise self._exc
        return self._value

    def wait(self) -> "Future":
        """Block until resolved; returns self (for chaining)."""
        if not self.resolved():
            self.value()
        return self

    def __repr__(self) -> str:
        state = ("failed" if self._exc is not None
                 else "resolved" if self._value is not _UNSET
                 else "pending")
        lbl = f" {self.label}" if self.label else ""
        return f"<Future{lbl} {state}>"
