"""Regenerate ``perfbench/redleaf_reference.codes``, levels 5 and 6 of the
catalog of smallest redleaf-universal shapes.

Run from the root of the repository:

    python3 perfbench/make_redleaf_reference.py

It runs ``find_min_universal_chain(6, redleaf=True)`` (about 8 s), checks
every entry of levels 5 and 6 with the benchmark's oracle, and writes one
``<level> <code>`` line per entry.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from utk.search import find_min_universal_chain  # noqa: E402

lines = ["# Levels 5 and 6 of the smallest redleaf-universal catalogs.",
         "# Regenerate with: python3 perfbench/make_redleaf_reference.py"]
for report in find_min_universal_chain(6, redleaf=True)[4:]:
    for code in report.minimal_shapes:
        if not oracle.is_universal(code, report.n, 2, True):
            raise SystemExit(f"level {report.n}: {code} is not universal by the oracle")
        lines.append(f"{report.n} {code}")
(HERE / "redleaf_reference.codes").write_text("\n".join(lines) + "\n")
print(f"wrote {len(lines) - 2} entries")
