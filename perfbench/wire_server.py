"""A live-mode ``NetServer`` in its own process, for the ``wire-live`` workload.

Started by :mod:`perfbench.wire_live` as ``python3 perfbench/wire_server.py``.
It prints ``READY <port>`` once listening, serves until its standard input
closes, then prints one JSON line with the number of requests the live
server completed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.net.server import NetServer  # noqa: E402  (path set above)
from repro.serve import Server  # noqa: E402


async def serve(params: str) -> dict:
    net = NetServer(server=Server(devices=4, params=params), mode="live")
    _, port = await net.start()
    print(f"READY {port}", flush=True)
    # Serve until the parent closes our stdin.
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
    await net.aclose()
    return {"requests": net.last_report.metrics.requests}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--params", default="I")
    args = parser.parse_args()
    print(json.dumps(asyncio.run(serve(args.params))), flush=True)


if __name__ == "__main__":
    main()
