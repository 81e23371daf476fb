"""Suite-wide setup: ``tests/`` itself is importable.

Test modules in any subdirectory can then ``import per_kernel``, the
per-subdomain oracle the fleet kernel is checked against.
"""

import os
import sys

_TESTS = os.path.dirname(os.path.abspath(__file__))
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)
