"""Start one causal-kv node exactly as `causal-kv serve` does, by calling
`causal_kv.cli.main` with the same arguments.

    python3 perfbench/launcher.py --stats OUT.json [--trace] -- serve --node-id 1 ...

With --trace, the public entry points are wrapped at class level before the
node is built. When the node exits (SIGINT, as Ctrl-C would stop `serve`) the
launcher writes the collected spans and counters to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from causal_kv import cli
    from tracer import Tracer, install, revs_per_key

    # A shell starts background jobs with SIGINT ignored, and the child would
    # inherit that; stopping a node relies on SIGINT raising KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = Tracer()
    if args.trace:
        install(tracer)
    code = 1
    try:
        code = cli.main(serve_args)
    except KeyboardInterrupt:
        code = 0
    finally:
        stats = tracer.dump() if args.trace else {}
        if tracer.nodes:
            stats["revs_per_key"] = revs_per_key(tracer.nodes[0])
        tmp = Path(args.stats + ".tmp")
        tmp.write_text(json.dumps(stats))
        tmp.replace(args.stats)
    return code


if __name__ == "__main__":
    sys.exit(main())
