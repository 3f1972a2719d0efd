import pathlib
import sys

# allow running the suite from a fresh checkout without installing
_src = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

# property tests draw the same examples on every run
try:
    from hypothesis import settings
except ImportError:   # only the property tests need it
    pass
else:
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")
