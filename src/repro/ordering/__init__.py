"""Fill-reducing orderings: MMD (the paper's choice), MD, RCM, ND."""

from .amd import approximate_minimum_degree
from .mmd import minimum_degree, multiple_minimum_degree
from .nested_dissection import nested_dissection
from .perm import (
    identity_permutation,
    invert_permutation,
    is_permutation,
    random_permutation,
)
from .rcm import bandwidth, pseudo_peripheral_node, reverse_cuthill_mckee

__all__ = [
    "approximate_minimum_degree",
    "minimum_degree",
    "multiple_minimum_degree",
    "nested_dissection",
    "identity_permutation",
    "invert_permutation",
    "is_permutation",
    "random_permutation",
    "bandwidth",
    "pseudo_peripheral_node",
    "reverse_cuthill_mckee",
]

ORDERINGS = {
    "natural": lambda g: identity_permutation(g.n),
    "mmd": multiple_minimum_degree,
    "md": minimum_degree,
    "amd": approximate_minimum_degree,
    "rcm": reverse_cuthill_mckee,
    "nd": nested_dissection,
}
"""Name -> callable registry used by the pipeline and the CLI."""

ORDERING_IMPL_VERSION = {
    "natural": 1,
    # 2: bitset/arena quotient-graph rewrite of the set-based MMD.  The
    # whole-pass arena returns the identical permutation, so it stays 2.
    "mmd": 2,
    "md": 1,
    "amd": 1,
    "rcm": 1,
    "nd": 1,
}
"""Per-ordering implementation version, part of the ``prepare()`` disk
cache key: bump an entry whenever that ordering's implementation can
return a different permutation, so warm caches written by the old code
are invalidated instead of silently reused."""


def order(graph, method: str = "mmd"):
    """Order ``graph`` with the named method from :data:`ORDERINGS`."""
    try:
        fn = ORDERINGS[method]
    except KeyError:
        raise KeyError(
            f"unknown ordering {method!r}; available: {', '.join(ORDERINGS)}"
        ) from None
    return fn(graph)
