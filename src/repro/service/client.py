"""A blocking standard-library client for the assessment service.

Used by the test suite and the CI smoke job (and handy from a REPL).
Every call, the newline-delimited JSON event stream included, is one
:mod:`http.client` request on its own connection.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple


class ServiceError(RuntimeError):
    """A non-2xx API response."""

    def __init__(self, status: int, payload: Any) -> None:
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload}")


class ServiceClient:
    """Talk to one running :class:`~repro.service.app.ReproService`."""

    def __init__(
        self, host: str, port: int, api_key: Optional[str] = None, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.api_key = api_key
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _open(
        self, method: str, path: str, payload: Optional[Dict[str, Any]], timeout: float
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; return the connection and its unread response.

        Raises :class:`ServiceError` (and closes the connection) on a
        status >= 400.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"}
            if self.api_key:
                headers["X-API-Key"] = self.api_key
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                raise ServiceError(
                    response.status, json.loads(raw.decode("utf-8")) if raw else None
                )
        except BaseException:
            conn.close()
            raise
        return conn, response

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        """One JSON request/response; :class:`ServiceError` on non-2xx."""
        conn, response = self._open(method, path, payload, self.timeout)
        try:
            raw = response.read()
            return json.loads(raw.decode("utf-8")) if raw else None
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/healthz")

    def quota(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/quota")

    def submit(self, **job_fields: Any) -> Dict[str, Any]:
        """``POST /v1/jobs`` — e.g. ``submit(workload="fleet", trials=4)``."""
        return self.request("POST", "/v1/jobs", job_fields)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/v1/jobs" + (f"?state={state}" if state else "")
        return self.request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("POST", f"/v1/jobs/{job_id}/cancel")

    def wait(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.1
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; return its record."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)

    # ------------------------------------------------------------------
    def stream_events(
        self, job_id: str, timeout: float = 120.0
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's events, one per NDJSON line, until the server closes.

        ``timeout`` bounds each wait for the next line; an unknown job
        raises :class:`ServiceError` with status 404.
        """
        conn, response = self._open("GET", f"/v1/jobs/{job_id}/events", None, timeout)
        try:
            for line in response:
                if line.strip():
                    yield json.loads(line)
        finally:
            conn.close()


def read_service_info(data_dir) -> Dict[str, Any]:
    """Parse ``<data_dir>/service.json`` (host/port/pid of a live server)."""
    from pathlib import Path

    return json.loads((Path(data_dir) / "service.json").read_text())


def client_from_data_dir(data_dir, **kwargs: Any) -> ServiceClient:
    """A client bound to the server that wrote ``<data_dir>/service.json``."""
    info = read_service_info(data_dir)
    return ServiceClient(info["host"], info["port"], **kwargs)
