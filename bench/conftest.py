import sys
from pathlib import Path

# the benchmark's tests import the package from the checkout's sources
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
