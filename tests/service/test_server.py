"""The JSON-lines TCP front end: framing limits and malformed requests."""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.service import ServiceConfig, SimulationService, request, serve


def _replies(run_async, *messages) -> list:
    """What a live front end answers to each of *messages*."""

    async def body():
        service = SimulationService(ServiceConfig(max_workers=1))
        await service.start()
        server = await serve(service)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        try:
            return [
                await loop.run_in_executor(
                    None, request, "127.0.0.1", port, message
                )
                for message in messages
            ]
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    return run_async(body())


class TestFraming:
    def test_oversized_frame_gets_an_error_reply(self, run_async):
        big = {"op": "stats", "pad": "x" * 70_000}
        oversized, after = _replies(run_async, big, {"op": "stats"})
        assert oversized == {"ok": False, "error": "frame exceeds 65536 bytes"}
        assert after["ok"] is True  # the server keeps serving

    def test_non_object_request_gets_an_error_reply(self, run_async):
        (reply,) = _replies(run_async, [1, 2])
        assert reply == {"ok": False, "error": "request must be a JSON object"}

    def test_empty_reply_raises_connection_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]

            def hang_up():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(1024)

            peer = threading.Thread(target=hang_up)
            peer.start()
            with pytest.raises(ConnectionError, match=f"127.0.0.1:{port}"):
                request("127.0.0.1", port, {"op": "stats"}, timeout=10.0)
            peer.join(timeout=10.0)
            assert not peer.is_alive()
