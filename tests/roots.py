"""The positive roots of a type, decoded from its walk's integer keys: the
oracle for the tests that need the roots themselves, which the library does
not hand out.

The keys are captured where `rootsys._positive_roots` returns them and are
decoded here, digit by digit, not by the walk's own decoder. Sorting the keys
orders the roots by height, then coordinates (see `rootsys._positive_roots`).
`test_rootsys.test_positive_roots_match_orbit_closure` holds these roots to
the Weyl orbit of the simple roots, an independent construction. The same
patch point guards the paths that must walk nothing (`forbid_walks`).
"""

import pytest

from lievol import rootsys


def build_with_keys(lie_type):
    """build_root_system(lie_type), the raw keys its walk found, in bucket
    order, and W, the width of their weighted-height field."""
    walk = rootsys._positive_roots
    seen = {}

    def capture(lie_type, rows, steps, width, limit):
        buckets, sums = walk(lie_type, rows, steps, width, limit)
        seen.update(keys=[key for bucket in buckets for key in bucket], width=width)
        return buckets, sums

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rootsys, "_positive_roots", capture)
        heights = rootsys.build_root_system(lie_type)
    return heights, seen["keys"], seen["width"]


def forbid_walks(patch):
    """Make any walk of positive roots fail the test from here on: patch
    `rootsys._positive_roots`, which `build_root_system`, `walk_groups` and
    every other walk run through."""

    def no_walk(lie_type, *args):
        raise AssertionError(f"positive roots of {lie_type} walked")

    patch.setattr(rootsys, "_positive_roots", no_walk)


def key_digits(key, width, rank):
    """The coordinates of a raw key: its rank base-8 digits above the low W
    bits, mu_0 the most significant."""
    return tuple(key >> width + 3 * (rank - 1 - i) & 7 for i in range(rank))


def positive_roots(lie_type):
    """The coordinate vectors of the positive roots, by height, then
    coordinates: the walk's sorted keys, decoded."""
    _, keys, width = build_with_keys(lie_type)
    return tuple(key_digits(key, width, lie_type.rank) for key in sorted(keys))
