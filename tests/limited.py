"""Run a callable in a child process under an address-space limit and a
timeout.

``run_limited(func, *args)`` starts a fresh interpreter (the ``spawn``
start method), sets ``resource.RLIMIT_AS`` there, calls ``func(*args)``
and reports how the call ended.  The limit and the timeout act on the
child only, so a test can hand an entry point an input whose memory
need is extreme: an allocation past the limit fails in the child as a
``MemoryError`` instead of taking memory from the machine.  ``func``
and ``args`` are pickled, so ``func`` must be a module-level function.
"""

from __future__ import annotations

import multiprocessing
import resource
import traceback
from dataclasses import dataclass
from typing import Optional

ADDRESS_SPACE = 1 << 30  # 1 GB


@dataclass
class Outcome:
    """How a limited call ended: its value's repr, or the exception it
    raised (its class, the names of its bases, its message and
    traceback)."""
    value: Optional[str] = None
    raised: Optional[str] = None
    bases: tuple = ()
    message: str = ""
    traceback: str = ""


def _child(conn, limit, func, args):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        outcome = Outcome(value=repr(func(*args))[:2000])
    except BaseException as exc:  # reported to the parent, not handled
        outcome = Outcome(raised=type(exc).__name__,
                          bases=tuple(c.__name__ for c in type(exc).__mro__),
                          message=str(exc)[:2000],
                          traceback=traceback.format_exc()[-4000:])
    conn.send(outcome)
    conn.close()


def run_limited(func, *args, limit: int = ADDRESS_SPACE,
                timeout: float = 120.0) -> Outcome:
    """``func(*args)`` in a child process limited to ``limit`` bytes of
    address space; a TimeoutError if it does not end within ``timeout``
    seconds (the child is then killed)."""
    context = multiprocessing.get_context("spawn")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child, args=(send, limit, func, args))
    child.start()
    send.close()
    try:
        if not receive.poll(timeout):
            raise TimeoutError(f"{func.__name__} ran past {timeout} s")
        return receive.recv()
    except EOFError:
        raise RuntimeError(f"{func.__name__}'s process ended with code "
                           f"{child.join(timeout) or child.exitcode} "
                           "and no outcome") from None
    finally:
        receive.close()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)
