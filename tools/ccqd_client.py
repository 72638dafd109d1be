#!/usr/bin/env python3
"""Command-line client for ccqd, the clique measurement daemon.

Speaks the length-prefixed strict-JSON protocol of src/service/protocol.hpp
(DESIGN.md section 15): every frame is a 4-byte big-endian payload length
followed by that many bytes of JSON. One request, one response.

Usage:
  ccqd_client.py --socket /tmp/ccqd.sock ping
  ccqd_client.py --socket /tmp/ccqd.sock stats
  ccqd_client.py --tcp 9178 submit job.json
  ccqd_client.py --socket /tmp/ccqd.sock submit - <<'EOF'
  {"algorithm": "routing_balanced", "family": "gnp", "p": 0.25,
   "n": 64, "backend": "pooled", "chaos": false}
  EOF
  ccqd_client.py --socket /tmp/ccqd.sock shutdown

The submit argument is a path to a JSON file holding exactly one
scenario-matrix cell (the manifest cell schema of DESIGN.md section 14 with
no axis arrays), or '-' for stdin. Exit status: 0 on a non-error response,
1 on an error response (the error is printed), 2 on usage errors.
"""

import argparse
import json
import socket
import struct
import sys

MAX_FRAME_BYTES = 1 << 20


def read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError(
                "connection closed mid-frame (%d of %d bytes)" % (len(buf), n)
            )
        buf += chunk
    return buf


def request(sock, body):
    payload = json.dumps(body).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError("request exceeds %d bytes" % MAX_FRAME_BYTES)
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    (length,) = struct.unpack(">I", read_exact(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError("response frame oversized (%d bytes)" % length)
    return json.loads(read_exact(sock, length).decode("utf-8"))


def connect(args):
    if args.tcp is not None:
        sock = socket.create_connection(("127.0.0.1", args.tcp))
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(args.socket)
    return sock


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = parser.add_mutually_exclusive_group()
    where.add_argument(
        "--socket", default="/tmp/ccqd.sock", help="Unix socket path"
    )
    where.add_argument("--tcp", type=int, help="connect to 127.0.0.1:PORT")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ping", help="liveness check")
    sub.add_parser("stats", help="daemon counters")
    sub.add_parser("shutdown", help="graceful drain")
    submit = sub.add_parser("submit", help="run one job")
    submit.add_argument("job", help="path to a one-cell job JSON, or '-'")
    args = parser.parse_args()

    if args.command == "submit":
        text = (
            sys.stdin.read()
            if args.job == "-"
            else open(args.job, encoding="utf-8").read()
        )
        try:
            job = json.loads(text)
        except json.JSONDecodeError as e:
            parser.error("job is not valid JSON: %s" % e)
        body = {"type": "submit", "job": job}
    else:
        body = {"type": args.command}

    try:
        with connect(args) as sock:
            response = request(sock, body)
    except (OSError, ConnectionError) as e:
        print("ccqd_client: %s" % e, file=sys.stderr)
        return 1

    print(json.dumps(response, indent=2))
    return 1 if response.get("type") == "error" else 0


if __name__ == "__main__":
    sys.exit(main())
