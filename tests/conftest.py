"""Settings for the whole test run.

No bytecode is written, by this process or by the processes the tests
start, so a run leaves no ``__pycache__`` under ``src/`` for a later
benchmark run in the same checkout to load in place of the source.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
