"""Error taxonomy shared across the package.

InputError maps to CLI exit code 2 (malformed or out-of-contract inputs),
VerificationError and its subclasses map to exit code 1 (a computed object
failed its own exact verification, or an engine guarantee did not hold).
Any other exception is a bug: the CLI reports it as an "internal" error with
exit code 3.
"""


class InputError(ValueError):
    """Bad input: malformed JSON, out-of-range vertex, violated precondition."""


class VerificationError(RuntimeError):
    """An exact internal verification failed."""


class ZeroMeasureBox(InputError):
    """Density requested on a box of measure zero."""


class DepthCapExceeded(VerificationError):
    """Goodness descent explored the full tree to the depth cap without
    finding a good node. Carries the induced witness tree as evidence."""

    def __init__(self, message, tree=None):
        super().__init__(message)
        self.tree = tree


class RefinementFailed(VerificationError):
    """A box of the stable descents' pieces is not homogeneous at eps, so
    the stable partition cannot be returned. Carries the first such box."""

    def __init__(self, message, box=None):
        super().__init__(message)
        self.box = box
