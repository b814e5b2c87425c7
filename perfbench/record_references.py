"""Record the reference outputs the benchmark checks against.

Usage: ``python3 perfbench/record_references.py`` from the root of a
checkout.  Rewrites ``perfbench/references.json`` with every design
point of the ``explore-mjpeg`` sweep (exact guarantee, slices, BRAMs,
constraint verdict, or the typed infeasibility reason) and the
guaranteed and measured throughput of every ``fig6-flow`` flow.  Run
it only when a change is meant to alter those results.
"""

import json
import sys

from common import REFERENCES, SRC

sys.path.insert(0, str(SRC))

import explore  # noqa: E402
import fig6  # noqa: E402


def main() -> None:
    references = {
        module.NAME: module.record(module.setup(None, 0))
        for module in (explore, fig6)
    }
    REFERENCES.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
