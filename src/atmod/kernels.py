"""Clause kernels: DPLL search, model enumeration, resolution saturation.

Clauses are (pos, neg) pairs of bitmasks over an atom universe of size n.
A valuation is a bitmask of the atoms that are true.  Masks are Python
integers, so the universe has no fixed width; engine.max_atoms is the
only bound.
"""

from collections import deque

# Written to "oracle.backend" by report.render_json; the atmod/1 JSON is
# frozen byte-for-byte, and the benchmark reads this name too.
BACKEND = "pykernels"


def find_model(clauses, n):
    """DPLL search; returns a satisfying valuation mask, or -1."""
    full = (1 << n) - 1
    if any(pos == 0 and neg == 0 for pos, neg in clauses):
        return -1

    def solve(assigned, values):
        changed = True
        while changed:
            changed = False
            for pos, neg in clauses:
                if (pos & values) or (neg & assigned & ~values):
                    continue
                free_pos = pos & ~assigned
                free_neg = neg & ~assigned
                nfree = free_pos.bit_count() + free_neg.bit_count()
                if nfree == 0:
                    return -1
                if nfree == 1:
                    if free_pos:
                        assigned |= free_pos
                        values |= free_pos
                    else:
                        assigned |= free_neg
                    changed = True
        if assigned == full:
            return values
        rest = ~assigned & full
        bit = rest & -rest
        for trial in (values | bit, values):
            result = solve(assigned | bit, trial)
            if result >= 0:
                return result
        return -1

    return solve(0, 0)


def enum_models(clauses, n):
    """All satisfying valuation masks, in increasing order."""
    out = []
    for v in range(1 << n):
        for pos, neg in clauses:
            if not (pos & v) and not (neg & ~v & ((1 << n) - 1)):
                break
        else:
            out.append(v)
    return out


def _subsumes(a, b):
    return (a[0] & ~b[0]) == 0 and (a[1] & ~b[1]) == 0


def saturate(clauses):
    """Resolution closure with subsumption; returns the prime implicates.

    Input and output clauses are (pos, neg) mask pairs; tautologies are
    discarded.  The result is sorted and mutually non-subsuming.
    """
    queue = deque(sorted({(p, n) for p, n in clauses if not (p & n)},
                         key=lambda c: (c[0] | c[1]).bit_count()))
    kept = []
    while queue:
        c = queue.popleft()
        if any(_subsumes(k, c) for k in kept):
            continue
        kept = [k for k in kept if not _subsumes(c, k)]
        cp, cn = c
        for kp, kn in kept:
            overlap = (cp & kn) | (cn & kp)
            while overlap:
                bit = overlap & -overlap
                overlap &= overlap - 1
                rp = (cp | kp) & ~bit
                rn = (cn | kn) & ~bit
                if not (rp & rn):
                    queue.append((rp, rn))
        kept.append(c)
    return sorted(kept)
