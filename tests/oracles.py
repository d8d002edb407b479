"""Reference computations the tests compare the package against."""

from rootmatch.errors import DimensionMismatchError


def evaluate_root(root, v):
    """Exact value of the root functional on a vector of the flat: the
    oracle that ``RootSystem.row_masks`` is checked against."""
    if len(v) != len(root.coords):
        raise DimensionMismatchError(
            f"vector has length {len(v)}, root expects {len(root.coords)}"
        )
    return sum(c * x for c, x in zip(root.coords, v) if c)
