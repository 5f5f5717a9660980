"""Frozen digest of the benign record streams.

Every benign trace is a pure function of (profile, spec, mapping, seed,
row offset), so any change to the generator, the address mapping, the
trace record or the RNG draws that alters a stream shows up as a
changed digest.  The grid covers both generator branches (random and
streaming rows), spread and channel-pinned profiles, both mapping
schemes and one and two channels:

* profiles ``429.mcf``, ``movnti.colmaj`` (streaming) and ``403.gcc``,
  each spread and ``pinned_to(1)``;
* ``MappingScheme.MOP`` and ``MappingScheme.ROW_BANK_COL``;
* ``DDR4_2400.with_channels(1 or 2).scaled(128.0)``;
* seed 7, row offset 1024, the first 1,500 records of each stream.

Each case hashes ``(gap, address, is_write)`` of its records with
SHA-256.  ``FROZEN`` holds the digests of the generator as first
recorded; a pure speed-up must reproduce them exactly.

Stdlib only, so it also runs without pytest on any interpreter::

    PYTHONPATH=src python tests/trace_digest.py

prints one line per case and exits 1 if any digest differs from
``FROZEN``.
"""

from __future__ import annotations

import hashlib
import sys

from repro.dram.address import AddressMapping, MappingScheme
from repro.dram.spec import DDR4_2400
from repro.workloads.generator import build_benign_trace
from repro.workloads.profiles import profile_by_name

PROFILES = ("429.mcf", "movnti.colmaj", "403.gcc")
SCHEMES = (MappingScheme.MOP, MappingScheme.ROW_BANK_COL)
CHANNELS = (1, 2)
SEED = 7
ROW_OFFSET = 1024
RECORDS = 1500

#: Case label -> first 16 hex digits of the SHA-256 of its records.
FROZEN = {
    "429.mcf/spread/mop/ch1": "7fd6a7813e684b2a",
    "429.mcf/spread/mop/ch2": "bb75694bba099a35",
    "429.mcf/spread/row_bank_col/ch1": "10d67a74cdfda823",
    "429.mcf/spread/row_bank_col/ch2": "e92311db614e933b",
    "429.mcf/pinned1/mop/ch1": "7fd6a7813e684b2a",
    "429.mcf/pinned1/mop/ch2": "1b3b1b937f4d7ee3",
    "429.mcf/pinned1/row_bank_col/ch1": "10d67a74cdfda823",
    "429.mcf/pinned1/row_bank_col/ch2": "76e37abef49cd3d4",
    "movnti.colmaj/spread/mop/ch1": "ca6008c35e0011cf",
    "movnti.colmaj/spread/mop/ch2": "4e2861050dcadce5",
    "movnti.colmaj/spread/row_bank_col/ch1": "408c6bec3fb11fb3",
    "movnti.colmaj/spread/row_bank_col/ch2": "299d9ff83a98032e",
    "movnti.colmaj/pinned1/mop/ch1": "ca6008c35e0011cf",
    "movnti.colmaj/pinned1/mop/ch2": "56d698b9c6980829",
    "movnti.colmaj/pinned1/row_bank_col/ch1": "408c6bec3fb11fb3",
    "movnti.colmaj/pinned1/row_bank_col/ch2": "1f62522b9dceb036",
    "403.gcc/spread/mop/ch1": "b8ac00b21dfad52f",
    "403.gcc/spread/mop/ch2": "d8ca61bd0b41ce83",
    "403.gcc/spread/row_bank_col/ch1": "7be96dc63f159a4b",
    "403.gcc/spread/row_bank_col/ch2": "9814b229323fe8b4",
    "403.gcc/pinned1/mop/ch1": "b8ac00b21dfad52f",
    "403.gcc/pinned1/mop/ch2": "110776796e075997",
    "403.gcc/pinned1/row_bank_col/ch1": "7be96dc63f159a4b",
    "403.gcc/pinned1/row_bank_col/ch2": "f955e8fe2e9b4744",
}


def cases():
    """Yield ``(label, trace)`` for every case of the grid, in order."""
    for name in PROFILES:
        for pinned in (False, True):
            profile = profile_by_name(name)
            if pinned:
                profile = profile.pinned_to(1)
            for scheme in SCHEMES:
                for channels in CHANNELS:
                    spec = DDR4_2400.with_channels(channels).scaled(128.0)
                    mapping = AddressMapping(spec, scheme)
                    trace = build_benign_trace(
                        profile, spec, mapping, seed=SEED, row_offset=ROW_OFFSET
                    )
                    layout = "pinned1" if pinned else "spread"
                    yield f"{name}/{layout}/{scheme.value}/ch{channels}", trace


def stream_digest(trace, records: int = RECORDS) -> str:
    """SHA-256 (first 16 hex digits) of ``records`` records' fields."""
    digest = hashlib.sha256()
    for _ in range(records):
        record = trace.next_record()
        digest.update(f"{record.gap},{record.address},{int(record.is_write)};".encode())
    return digest.hexdigest()[:16]


def digests() -> dict[str, str]:
    """Case label -> digest, over the whole grid."""
    return {label: stream_digest(trace) for label, trace in cases()}


def main() -> int:
    measured = digests()
    mismatched = 0
    for label, value in measured.items():
        frozen = FROZEN.get(label)
        ok = value == frozen
        mismatched += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {label:40s} {value} (frozen {frozen})")
    print(f"{len(measured) - mismatched}/{len(measured)} record streams match")
    return 1 if mismatched or len(measured) != len(FROZEN) else 0


if __name__ == "__main__":
    sys.exit(main())
