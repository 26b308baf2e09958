"""Put the benchmark's modules and the program's sources on the path."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
SRC = BENCH_DIR.parents[1] / "src"
for path in (BENCH_DIR, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
