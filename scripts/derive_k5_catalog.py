#!/usr/bin/env python3
"""Regenerate src/convexham/_k5_catalog.py from scratch.

The three geometrically realisable 5-vertex crossing patterns are harvested
from every 5-subset of a fixed random point set (they are exactly the
patterns with 1, 3, and 5 crossings); the twisted pattern comes from
twisted(5).  Writing the canonical forms into a generated module keeps the
classifier import-time cheap, and the test suite re-derives the catalog to
guard against drift.  Before writing, the script checks that the code
lookup table built from the derived forms classifies every 5-subset of the
pool and twisted(5) as the forms do.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from convexham.convexity import (  # noqa: E402
    _CLASSES,
    K5Class,
    _k5_codes,
    _lookup_table,
    canonical_k5_form,
)
from convexham.drawing import induced_subdrawing  # noqa: E402
from convexham.generators import random_geometric, twisted  # noqa: E402

POOL_N = 12
POOL_SEED = 94


def pool_forms(pool):
    """Canonical form of every 5-subset of the pool, in lex order."""
    return [
        canonical_k5_form(induced_subdrawing(pool, sub).drawing.crossing_set())
        for sub in combinations(range(1, POOL_N + 1), 5)
    ]


def derive_forms(subset_forms):
    by_count = {}
    for form in subset_forms:
        by_count.setdefault(len(form), set()).add(form)
    assert sorted(by_count) == [1, 3, 5], sorted(by_count)
    for count, forms in by_count.items():
        assert len(forms) == 1, (count, forms)
    tw = canonical_k5_form(twisted(5).crossing_set())
    assert len(tw) == 5 and tw != next(iter(by_count[5]))
    return {
        "I": next(iter(by_count[5])),
        "II": next(iter(by_count[3])),
        "III": next(iter(by_count[1])),
        "V": tw,
    }


def check_table(forms, pool, subset_forms):
    """The lookup table of `forms` gives every pool 5-subset and twisted(5) its form's class."""
    table = _lookup_table(forms)
    tag_of = {form: tag for tag, form in forms.items()}
    codes = [code for _, _, block in _k5_codes(pool) for code in block.tolist()]
    assert len(codes) == len(subset_forms)
    for code, form in zip(codes, subset_forms):
        assert _CLASSES[table[code]] is K5Class[tag_of[form]], (code, form)
    ((_, _, tw),) = _k5_codes(twisted(5))
    assert _CLASSES[table[tw[0]]] is K5Class.V


def main():
    pool = random_geometric(POOL_N, POOL_SEED)
    subset_forms = pool_forms(pool)
    forms = derive_forms(subset_forms)
    check_table(forms, pool, subset_forms)
    out = Path(__file__).resolve().parent.parent / "src" / "convexham" / "_k5_catalog.py"
    lines = [
        '"""Canonical K5 crossing forms. Generated by scripts/derive_k5_catalog.py."""',
        "",
        "FORMS = {",
    ]
    for tag in ("I", "II", "III", "V"):
        lines.append(f"    {tag!r}: {forms[tag]!r},")
    lines.append("}")
    lines.append("")
    out.write_text("\n".join(lines))
    print(f"wrote {out}")
    for tag in ("I", "II", "III", "V"):
        print(f"  {tag}: {forms[tag]}")


if __name__ == "__main__":
    main()
