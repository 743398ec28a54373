"""Helpers for the tests that call the package from other threads.

``bounded`` runs calls on daemon threads under one deadline, so that a
deadlock fails a test instead of hanging the suite; ``raise_on_call``
wraps a function so that one chosen call raises ``Injected``.
"""

import threading
import time


def bounded(*fns, timeout=60.0):
    """Each ``fn()`` on its own daemon thread, all joined by one deadline,
    so that a deadlock fails the test instead of hanging the suite."""
    results = [{} for _ in fns]

    def target(fn, result):
        try:
            result["value"] = fn()
        except BaseException as exc:
            result["error"] = exc

    threads = [threading.Thread(target=target, args=pair, daemon=True)
               for pair in zip(fns, results)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive(), "the call did not return"
    return results


class Injected(Exception):
    pass


def raise_on_call(fn, call):
    """``fn`` whose ``call``-th call (counted from 1) raises ``Injected``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise Injected(f"call {call}")
        return fn(*args, **kwargs)
    return wrapped
