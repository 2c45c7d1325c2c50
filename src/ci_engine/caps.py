"""Enumeration cap shared by hom-set indexing, carriers, and vertex counts.

The cap is CI_ENGINE_CAP clamped to [10^3, 10^7].  A size at or below
the floor can never exceed it, so ``over_cap`` answers those without
reading the environment; a larger size reads it at each check, so a
changed CI_ENGINE_CAP takes effect at once.
"""

import os

DEFAULT_CAP = 10**6
_CAP_FLOOR = 10**3
_CAP_CEILING = 10**7


def enumeration_cap():
    """Active cap on enumerated set sizes.

    Reads CI_ENGINE_CAP from the environment, clamped to
    [10^3, 10^7]; unset or unparsable values fall back to 10^6.
    """
    raw = os.environ.get("CI_ENGINE_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_CAP
    return min(max(value, _CAP_FLOOR), _CAP_CEILING)


def over_cap(n):
    """``n > enumeration_cap()``, without the environment read when ``n`` is at most the floor."""
    return n > _CAP_FLOOR and n > enumeration_cap()
