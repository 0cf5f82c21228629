"""``python -m repro`` with the benchmark's fleet probes installed.

Usage: ``traced_serve.py PROBE_JSON fleet serve --port 0``.  Used by
traced ``fleet_wire`` runs: the probes wrap the coordinator and worker
handles of the served fleet, and their timestamps are written to
``PROBE_JSON`` when the CLI returns (on SIGINT).
"""

import sys

from tracing import FleetProbe


def main() -> int:
    probe = FleetProbe()
    probe.install()
    from repro.__main__ import main as cli

    try:
        return cli(sys.argv[2:])
    finally:
        probe.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
