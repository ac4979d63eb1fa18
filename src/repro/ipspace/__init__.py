"""IPv4 address-space substrate.

This package provides the low-level machinery every other part of the
library builds on: vectorised address parsing/formatting, CIDR prefix
arithmetic, sets of addresses (:class:`~repro.ipspace.ipset.IPSet`),
sets of address ranges (:class:`~repro.ipspace.intervals.IntervalSet`),
a longest-prefix-match trie, the IANA special-use registry, and the
vacant-block accounting used by the paper's Section 7 model.

All bulk operations are numpy-vectorised over ``uint32`` address arrays
so that simulated populations of millions of addresses remain cheap.
"""

from repro.ipspace.aggregation import (
    CompressionReport,
    compress_prefixes,
    compression_potential,
)
from repro.ipspace.addresses import (
    format_addr,
    format_addrs,
    last_octet,
    parse_addr,
    parse_addrs,
    subnet24_of,
    unique_addresses,
)
from repro.ipspace.blocks import (
    allocation_matrix,
    count_occupied_blocks,
    occupied_block_histogram,
    vacant_block_histogram,
)
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet
from repro.ipspace.prefixes import Prefix
from repro.ipspace.special import (
    SPECIAL_USE_PREFIXES,
    public_space,
    special_use_intervals,
)
from repro.ipspace.trie import PrefixTrie

__all__ = [
    "CompressionReport",
    "IPSet",
    "IntervalSet",
    "compress_prefixes",
    "compression_potential",
    "Prefix",
    "PrefixTrie",
    "SPECIAL_USE_PREFIXES",
    "allocation_matrix",
    "count_occupied_blocks",
    "format_addr",
    "format_addrs",
    "last_octet",
    "occupied_block_histogram",
    "parse_addr",
    "parse_addrs",
    "public_space",
    "special_use_intervals",
    "subnet24_of",
    "unique_addresses",
    "vacant_block_histogram",
]
