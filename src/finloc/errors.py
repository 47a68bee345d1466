"""Exception types shared across the kernel.

Validators raise these with a `witness` attribute wherever a finite
counterexample exists.  A scanning validator names its first failure in the
carrier's canonical element order; the adjunction tests of join
preservation name a genuine failing pair, not necessarily the first.
"""


class KernelError(Exception):
    """Base class for all finloc errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ValidationError(KernelError):
    """A declared structure fails its validator."""


class NotAPartialOrder(ValidationError):
    pass


class MissingJoin(ValidationError):
    """Some subset has no least upper bound; witness is the subset."""


class NotAFrame(ValidationError):
    """Meet fails to distribute over join; witness is a triple (a, y, z)."""


class DomainMismatch(KernelError):
    pass


class NotALocale(KernelError):
    pass


class NotAModule(ValidationError):
    pass


class RelationViolated(KernelError):
    """An assignment breaks a presentation relation; witness is the relation."""


class ConditionIFails(KernelError):
    """Generator join does not reach the top of the target locale."""


class ConditionIIFails(KernelError):
    """Two generators meet above their equality bracket."""


class NotEverywhereDefined(KernelError):
    pass


class NotUnivalued(KernelError):
    pass


class ShapeMismatch(KernelError):
    pass


class TriangularFails(KernelError):
    def __init__(self, side, witness=None):
        super().__init__(f"triangular equation fails on the {side} side", witness)
        self.side = side


class NotDualizable(KernelError):
    pass


class GluingFails(ValidationError):
    """Sheaf gluing fails; witness is (p, cover)."""


class Mismatch(KernelError):
    pass


class NotDense(KernelError):
    """An object has no covering arrow from the declared subcategory."""


class InconsistentExtension(KernelError):
    """Cone extension disagrees across admissible presentations of an element."""


class NoDuals(KernelError):
    pass


class NotAGroupoid(ValidationError):
    pass


class NotAnAction(ValidationError):
    pass


class AnchorMismatch(KernelError):
    pass


class NotBijection(KernelError):
    pass


class NotACone(KernelError):
    pass


class NoIsomorphismFound(KernelError):
    pass


class SizeBound(KernelError):
    """A carrier exceeded the carrier bound, or an enumeration its cap."""


class ParseError(KernelError):
    pass


class UnresolvedReference(ParseError):
    pass
