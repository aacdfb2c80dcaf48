"""A live in-process service fixture for the HTTP and event-stream tests.

The server's event loop runs in a daemon thread; the test body stays
synchronous and talks to it through the blocking
:class:`~repro.service.client.ServiceClient`, exactly the way the CI
smoke job and real clients do.  ``LiveService.call`` marshals direct
state inspection onto the loop thread, respecting the service's
"all state lives on the loop thread" invariant.
"""

import asyncio
import concurrent.futures
import threading

import pytest

from repro.service.app import ReproService
from repro.service.client import ServiceClient


class LiveService:
    """One running service plus its event-loop thread."""

    def __init__(self, service: ReproService) -> None:
        self.service = service
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._started.set()
        self.loop.run_forever()

    def start(self) -> "LiveService":
        self._thread.start()
        assert self._started.wait(15), "service failed to start"
        return self

    def stop(self) -> None:
        if self.loop.is_closed():  # stopped already
            return
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop)
        future.result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()

    def call(self, fn, *args):
        """Run ``fn(*args)`` on the event-loop thread and return its result."""
        result: "concurrent.futures.Future" = concurrent.futures.Future()

        def runner() -> None:
            try:
                result.set_result(fn(*args))
            except BaseException as exc:  # pragma: no cover - test plumbing
                result.set_exception(exc)

        self.loop.call_soon_threadsafe(runner)
        return result.result(10)

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(self.service.host, self.service.port, **kwargs)


@pytest.fixture
def live_service(tmp_path):
    """A factory for live services; everything started is stopped on exit."""
    started = []

    def make(subdir: str = "svc", **kwargs) -> LiveService:
        service = ReproService(tmp_path / subdir, port=0, **kwargs)
        live = LiveService(service).start()
        started.append(live)
        return live

    yield make
    for live in started:
        try:
            live.stop()
        except Exception:
            pass
