"""Correctness checks on every output the benchmark produces.

Each check counts as one attempt; a check that does not hold counts as one
failure.  error_rate is failures over attempts.  The reference digests in
reference.json were recorded from the library before any optimisation, so an
array that changes shape (up to symbol relabelling) fails its digest check.
"""

import hashlib
import json
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from pdakit import (canonical_relabel, format_pda, parse_pda, pda_from_json,
                    pda_to_json, validate_pda)

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REPORT_LIMIT = 20  # failures printed per run; all of them are counted


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def spec_key(spec) -> str:
    return f"{spec.family}:{spec.label()}:set{spec.orientation}"


def _sha(canon) -> str:
    return hashlib.sha256(format_pda(canon).encode()).hexdigest()


def digest(p) -> str:
    """Digest of the array up to symbol relabelling."""
    return _sha(canonical_relabel(p))


class Checker:
    """Counts checks attempted and failed; reports the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < REPORT_LIMIT:
                self.failures.append(what)
                print(f"check failed: {what}", file=sys.stderr)
        return ok

    @contextmanager
    def guard(self, what: str):
        """Count an exception escaping one operation as a failed check."""
        try:
            yield
        except Exception as exc:
            traceback.print_exc()
            self.check(False, f"{what}: raised {exc!r}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_array(chk: Checker, tr, key: str, p, expect: tuple, ref_digest: str | None):
    """Parameters against the closed form, C1-C3, digest, text and JSON round trips.

    expect is (K, F, Q, S) from closed_form_row, or from the product law.
    """
    chk.check((p.k, p.f, p.q, p.s) == expect,
              f"{key}: (K,F,Q,S)={(p.k, p.f, p.q, p.s)}, closed form {expect}")
    rep = tr.call("pda.validate_pda", validate_pda, p)
    chk.check(rep.ok, f"{key}: invalid ({rep.condition}: {rep.detail})")
    canon = tr.call("pda.canonical_relabel", canonical_relabel, p)
    got = _sha(canon)
    chk.check(got == ref_digest, f"{key}: digest {got[:12]} != reference "
                                 f"{(ref_digest or 'missing')[:12]}")
    back = tr.call("pda.text_io", lambda: parse_pda(format_pda(p)))
    chk.check(back == p, f"{key}: text round trip changed the array")
    back = tr.call("pda.json_io", lambda: pda_from_json(json.loads(json.dumps(pda_to_json(p)))))
    chk.check(back == p, f"{key}: JSON round trip changed the array")


def product_law(a, b) -> tuple[int, int, int]:
    """(K, F, Q) of the direct product of a and b."""
    return a.k * b.k, a.f * b.f, a.f * b.q + b.f * a.q - a.q * b.q


def check_report(chk: Checker, key: str, p, rep, demands: int | None):
    """A SimReport: no failures, rate S/F, and the expected number of demands."""
    chk.check(rep.ok, f"{key}: {len(rep.failures)} decode failures")
    chk.check(rep.rate == Fraction(p.s, p.f), f"{key}: rate {rep.rate} != S/F")
    if demands is not None:
        chk.check(rep.demands_tested == demands,
                  f"{key}: {rep.demands_tested} demands tested, expected {demands}")


def check_decoded(chk: Checker, key: str, out: bytes, lib, want: int):
    chk.check(out == lib.file(want), f"{key}: decoded bytes differ from file {want}")


def check_exit(chk: Checker, key: str, code: int, expected: int = 0):
    chk.check(code == expected, f"{key}: exit code {code}, expected {expected}")
