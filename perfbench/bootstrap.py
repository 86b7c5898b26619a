"""Process set-up shared by the benchmark's entry points; import it before numpy.

It pins the numeric thread pools to one thread, because the benchmark
measures one caller on one core, and it puts this checkout's src/ first on
sys.path, so the package under test is the one beside the benchmark and
never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = "1"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
