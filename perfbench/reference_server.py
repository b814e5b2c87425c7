"""A standard-library HTTP server with one fixed response.

Usage: ``python3 perfbench/reference_server.py``.  It prints its port
on the first line, then serves ``GET /`` until terminated.  It runs no
``repro`` code: timing requests to it tells how fast the host handles
loopback connections and server threads right now, which is most of
what an artifact hit of ``repro serve`` costs (see ``serve.py``).
"""

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BODY = b"{}" * 1024


class Handler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
