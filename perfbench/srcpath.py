"""Locate the diskbern sources of the checkout this benchmark sits in.

The benchmark always measures the code next to it, never an installed copy:
`use_checkout_source` puts `<root>/src` first on `sys.path` and stops with
exit code 3 when the checkout holds no diskbern sources.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> Path:
    if not (SRC / "diskbern" / "__init__.py").is_file():
        print(f"perfbench: no diskbern sources under {SRC}", file=sys.stderr)
        raise SystemExit(3)
    sys.path.insert(0, str(SRC))
    import diskbern

    if SRC not in Path(diskbern.__file__).resolve().parents:
        print(f"perfbench: diskbern imported from {diskbern.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(3)
    return SRC
