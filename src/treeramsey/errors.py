"""Exception types shared across the package."""


class TreeRamseyError(Exception):
    """Base class for all library errors."""


class NotATree(TreeRamseyError):
    """Input parent array does not encode a tree (zero/many roots, cycle, bad ref)."""


class NotCanonical(TreeRamseyError):
    """Parent array encodes a tree but not in canonical (preorder) form."""


class VertexOutOfRange(TreeRamseyError, IndexError):
    pass


class DuplicateAttachPoint(TreeRamseyError):
    pass


class EmptyLinearOrder(TreeRamseyError):
    pass


class EmptyAlphabet(TreeRamseyError):
    pass


class NotRigid(TreeRamseyError):
    """Map is not a rigid surjection (no embedding witnesses the Galois identities)."""


class NotEmbedding(TreeRamseyError):
    pass


class NotLeaf(TreeRamseyError):
    pass


class NotSealed(TreeRamseyError):
    pass


class DomainMismatch(TreeRamseyError):
    pass


class NotComposable(TreeRamseyError):
    """Product of two composition-space elements is undefined (ambient mismatch)."""


class BlockConditionViolated(TreeRamseyError):
    """Word map does not satisfy the block condition p[{x} x I] ni x, subset A u {x}."""


class NotFoundWithinBound(TreeRamseyError):
    pass


class ResourceCapExceeded(TreeRamseyError):
    """A search stopped at a cap; stats, when given, say how far it got."""

    def __init__(self, message: str = "", stats=None):
        super().__init__(message)
        self.stats = stats


class PrerequisiteFailed(TreeRamseyError):
    pass


class SchemaError(TreeRamseyError):
    """JSON artifact fails schema or version validation."""


class VerificationFailed(TreeRamseyError):
    """A computed result failed the check that certifies it."""
