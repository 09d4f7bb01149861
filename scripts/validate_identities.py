#!/usr/bin/env python3
"""Print the free-envelope validation report for the identity catalogs
(the pair identities and the two of Definition 2, then those of the
superalgebra, of its representations and of the triple system, then the
derivation identities of ad and of the hull's g0 acting on a pair):
every adopted form checked over all parity assignments, with the diff
against the printed form wherever a correction was adopted.  Exits 1 if
any adopted form is invalid.
"""

import sys

from isopairs import supercore as sc


def main():
    ok = True
    for name, ident in {**sc.CATALOG, **sc.TKK_CATALOG, **sc.EQUIVARIANCE}.items():
        rep = ident.validate()
        ok = ok and rep.equal
        line = f"{name:24s} adopted: {'valid' if rep.equal else 'INVALID'} over {len(rep.verdicts)} assignments"
        if ident.adopted_differs:
            printed = ident.validate_printed()
            bad = sum(1 for v in printed.verdicts if not v.equal)
            line += (
                f"\n{'':24s} printed form fails {bad}/{len(printed.verdicts)}; "
                f"correction: {ident.correction}"
            )
            first = next(v for v in printed.verdicts if not v.equal)
            line += (
                f"\n{'':24s} first diff at parities {first.parities}: "
                f"word {''.join(first.diff_word)} has {first.lhs_coeff} vs {first.rhs_coeff}"
            )
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
