"""Record golden.json, the reference outputs the correctness gate compares
against. Run it only at a commit whose outputs are the reference (it was
run at the commit that added this benchmark); a later run overwrites the
reference with whatever the code computes then.

    python3 perfbench/record_golden.py

Every value is computed with threads=1. JSON floats round-trip exactly, so
the large_n cells can be compared bit for bit.
"""

import json

import srcpath

srcpath.use_checkout_source()

from diskbern import experiments as ex  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    golden = {
        "tables": {}, "large_n": {},
        "cli_section": [list(row) for row in ex.cross_section(
            "Cbar", ex.builtin(4), wl.CLI_SECTION_N, samples=wl.SECTION_SAMPLES, threads=1)],
    }
    for e in (1, 2, 3, 4):
        for n in ex.DEFAULT_N_LIST:
            for kind in ("Cbar", "Bstancu"):
                op = wl.rmse_cell(e, kind, n, 1)
                golden["tables"][op.key] = op.call(lambda f: f)
    for e in (1, 3):
        for kind, n in wl.LARGE_N:
            op = wl.rmse_cell(e, kind, n, 1)
            golden["large_n"][op.key] = op.call(lambda f: f)
    checks.GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    main()
