"""Exception types shared across the library.

Every error of the library is a MonosdeError.  The CLI exits 2 for one that
is also a RuntimeError (a numerical failure at run time: DivergenceError,
NewtonFailureError, SingularDiffusionError, DegenerateWronskianError) and 1
for any other (a parameter or domain error).
"""


class MonosdeError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(MonosdeError, ValueError):
    """A precondition on a user-supplied parameter is violated."""


class DimensionMismatchError(MonosdeError, ValueError):
    """Grids or dimensions of two objects do not agree."""


class UnknownModelError(MonosdeError, KeyError):
    """Requested model name is not in the zoo."""


class OutOfDomainError(MonosdeError, ValueError):
    """A model parameter or initial condition is outside the documented domain."""


class NoClosedFormError(MonosdeError):
    """The model does not ship a closed-form oracle of the requested kind."""


class MissingGradientsError(MonosdeError):
    """Coefficient gradients are required but not supplied."""


class DivergenceError(MonosdeError, RuntimeError):
    """A simulated path left the finite range.

    Attributes
    ----------
    step : index of the first bad node.
    path_index : global path index, when known.
    what : the quantity that left the finite range ("state", the default, is
        the solution X; a derivative process names itself).
    """

    def __init__(self, step, path_index=None, what="state"):
        self.step = int(step)
        self.path_index = path_index
        self.what = what
        where = f" (path {path_index})" if path_index is not None else ""
        super().__init__(f"{what} diverged at step {self.step}{where}")

    def __reduce__(self):
        return type(self), (self.step, self.path_index, self.what)


class NewtonFailureError(MonosdeError, RuntimeError):
    """The implicit-step Newton iteration did not reach the tolerance."""

    def __init__(self, step, residual, tol):
        self.step = int(step)
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"Newton residual {residual:.3e} > tol {tol:.3e} at step {step}"
        )

    def __reduce__(self):
        return type(self), (self.step, self.residual, self.tol)


class SingularDiffusionError(MonosdeError, RuntimeError):
    """The diffusion matrix is (numerically) singular where an inverse is needed."""


class NonAdaptedIntegrandError(MonosdeError, ValueError):
    """An integrand declared non-adapted was passed to the adapted Skorokhod integral."""


class DegenerateWronskianError(MonosdeError, RuntimeError):
    """The stochastic Wronskian collapsed to zero or a non-finite value."""
