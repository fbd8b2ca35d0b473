"""Record the reference digests the benchmark checks its arrays against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: for every construct array, sweep array and
pairwise product, the SHA-256 of format_pda(canonical_relabel(array)).  The
committed file was recorded before any optimisation of the library; rerun
this only when a change is meant to alter the arrays themselves.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdakit import construct_pda, direct_product, parse_pda  # noqa: E402

from oracle import REFERENCE_PATH, digest, spec_key  # noqa: E402
from workloads import (CONSTRUCT_SPECS, PRODUCT_PAIRS, TINY_KEY, TINY_TEXT,  # noqa: E402
                       admissible_specs, product_key)


def main() -> int:
    construct = {spec_key(s): digest(construct_pda(s)) for s in CONSTRUCT_SPECS}
    built = {TINY_KEY: parse_pda(TINY_TEXT)}
    sweep = {}
    for spec in admissible_specs():
        key = spec_key(spec)
        built[key] = construct_pda(spec)
        sweep[key] = digest(built[key])
    products = {product_key(a, b): digest(direct_product(built[a], built[b]))
                for a, b in PRODUCT_PAIRS}
    ref = {"construct": construct, "sweep": sweep, "products": products}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"{len(construct)} construct, {len(sweep)} sweep, {len(products)} product digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
