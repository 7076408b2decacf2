"""Start-up probe run by run.py in a fresh interpreter (never imported by it).

    python3 child.py probe
        Time `import sirlink` and the first 128-node Gauss-Laguerre rule build;
        print both in ms as JSON.

run.py puts src/ on PYTHONPATH.
"""

import json
import sys
import time


def probe() -> int:
    start = time.perf_counter()
    import sirlink
    imported = time.perf_counter()
    sirlink.gauss_laguerre_half(128)
    built = time.perf_counter()
    print(json.dumps({"import_ms": (imported - start) * 1e3,
                      "gl_rule_build_ms": (built - imported) * 1e3}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["probe"]:
        sys.exit(probe())
    sys.exit(f"usage: {sys.argv[0]} probe")
