import os
import sys
from pathlib import Path

# make synth.py importable regardless of how pytest was invoked
sys.path.insert(0, str(Path(__file__).parent))

# subprocesses started with another cwd (criterion 8 runs the CLI in a temp
# dir) must still resolve a relative PYTHONPATH such as PYTHONPATH=src
if os.environ.get("PYTHONPATH"):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(entry) for entry in os.environ["PYTHONPATH"].split(os.pathsep))
