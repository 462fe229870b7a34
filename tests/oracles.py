"""Independent oracles the tests compare padlab's fast paths against."""

from padlab.padic_core import element_order
from padlab.spectrum import ResidueMultiset, SubgroupDescriptor, _stabilizes


def stabilizer_brute_force(s: ResidueMultiset) -> SubgroupDescriptor:
    """Stabilizer by scanning every unit; the oracle for small moduli."""
    if not s.counts:
        raise ValueError("stabilizer of an empty multiset is undefined")
    members = [u for u in range(1, s.p**s.M) if u % s.p != 0 and _stabilizes(u, s)]
    order = len(members)
    for u in members:
        if element_order(u, s.p, s.M) == order:
            return SubgroupDescriptor(order, u, s.p, s.M)
    raise AssertionError("stabilizer scan found no generator")  # not cyclic: impossible
