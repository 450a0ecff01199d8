"""Set-up probe: import r2xsim (and with it numpy), load and validate the
scenario files given as arguments, then print the monotonic clock.

``run.py`` starts this in a fresh interpreter and takes its CPU time as one
``setup_s`` sample, and the printed time minus its own clock at launch as
the matching wall time.
"""

import sys
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from r2xsim.scenarios import load_scenario  # noqa: E402

for arg in sys.argv[1:]:
    load_scenario(arg)
print(repr(monotonic()))
