"""OpenAI-compatible chat-completions server answering from a reply table.

    python3 perfbench/replyserver.py TABLE.json DELAY_MS

Binds 127.0.0.1 on a free port and prints the port on its first stdout
line. Each POST waits DELAY_MS, then answers with the table entry keyed by
the sha256 of the final message's content, so the server does no maze
work. Unknown keys get HTTP 404. Stdlib only; runs until terminated.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def make_handler(table: dict, delay_s: float):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            messages = body["messages"]
            key = hashlib.sha256(messages[-1]["content"].encode("utf-8")).hexdigest()
            time.sleep(delay_s)
            text = table.get(key)
            if text is None:
                self._send(404, {"error": {"message": "no reply for this maze"}})
                return
            prompt_words = sum(len(m["content"].split()) for m in messages)
            self._send(200, {
                "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": prompt_words, "completion_tokens": len(text.split())},
            })

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args) -> None:
            pass

    return Handler


def main(argv) -> None:
    with open(argv[1], encoding="utf-8") as fh:
        table = json.load(fh)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(table, float(argv[2]) / 1000.0))
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv)
