"""The one exception of a failed invariant.

InvariantError marks conditions that are impossible for valid catalog
input; hitting one means an upstream computation or a stored entry is
corrupt, and the CLI maps it to exit code 1 (as opposed to usage
errors, exit code 2).
"""


class InvariantError(RuntimeError):
    """A verified invariant does not hold; upstream data is corrupt."""
