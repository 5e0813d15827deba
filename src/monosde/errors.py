"""Exception types shared across the library.

Every error of the library is a MonosdeError.  The CLI exits 2 for one that
is also a RuntimeError (a failure at run time: the numerical DivergenceError,
NewtonFailureError, SingularDiffusionError and DegenerateWronskianError, and
the worker errors WorkerLostError and WorkerStartError) and 1 for any other
(a parameter or domain error).

The errors a single path can raise (DivergenceError, NewtonFailureError,
SingularDiffusionError) carry the index of that path when it is known, end
their message with "(path k)", and return a copy naming another path from
at_path.
"""


class MonosdeError(Exception):
    """Base class for all library errors."""


def _on_path(path_index):
    return f" (path {path_index})" if path_index is not None else ""


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
        super().__init__(f"{what} diverged at step {self.step}{_on_path(path_index)}")

    def __reduce__(self):
        return type(self), (self.step, self.path_index, self.what)

    def at_path(self, path_index):
        return type(self)(self.step, path_index, self.what)


class NewtonFailureError(MonosdeError, RuntimeError):
    """The implicit-step Newton iteration did not reach the tolerance.

    Attributes: step, the largest residual left and the tolerance, and the
    global path index when known.
    """

    def __init__(self, step, residual, tol, path_index=None):
        self.step = int(step)
        self.residual = float(residual)
        self.tol = float(tol)
        self.path_index = path_index
        super().__init__(
            f"Newton residual {residual:.3e} > tol {tol:.3e} at step {step}"
            f"{_on_path(path_index)}"
        )

    def __reduce__(self):
        return type(self), (self.step, self.residual, self.tol, self.path_index)

    def at_path(self, path_index):
        return type(self)(self.step, self.residual, self.tol, path_index)


class SingularDiffusionError(MonosdeError, RuntimeError):
    """The diffusion matrix is (numerically) singular where an inverse is needed:
    in BEL, |sigma^{-1}| > 1e12, an exactly singular sigma included, on a path
    live at the horizon (a path that diverged is masked out instead).

    Attributes: reason (the message without the path) and the global path
    index when known.
    """

    def __init__(self, reason, path_index=None):
        self.reason = reason
        self.path_index = path_index
        super().__init__(f"{reason}{_on_path(path_index)}")

    def __reduce__(self):
        return type(self), (self.reason, self.path_index)

    def at_path(self, path_index):
        return type(self)(self.reason, path_index)


class DegenerateWronskianError(MonosdeError, RuntimeError):
    """The stochastic Wronskian collapsed to zero or a non-finite value."""


class WorkerLostError(MonosdeError, RuntimeError):
    """A worker process forked by solver.run_paths ended without reporting
    one of its chunks, say killed by a signal (the OOM killer, kill -9).  A
    worker reports each chunk as it ends, so the message names the first
    path of the chunk it lost.  Fewer workers need less memory.

    Attributes: first_path, the first path of the first chunk, in chunk
    order, that no worker reported, and exitcode, that worker's exit status,
    -k for signal k.
    """

    def __init__(self, first_path, exitcode):
        self.first_path = int(first_path)
        self.exitcode = int(exitcode)
        if exitcode < 0:
            import signal  # here: importing errors should not pay for it

            try:
                how = f"was killed by signal {signal.Signals(-exitcode).name}"
            except ValueError:
                how = f"was killed by signal {-exitcode}"
        else:
            how = f"exited with status {exitcode}"
        super().__init__(
            f"a worker process {how} before it reported the chunk from path {first_path}"
        )

    def __reduce__(self):
        return type(self), (self.first_path, self.exitcode)


class WorkerStartError(MonosdeError, RuntimeError):
    """solver.run_paths could not start a worker process: os.fork() or
    os.pipe() failed, say at a limit on processes (EAGAIN) or open files
    (EMFILE).  The workers already started are killed first.  Fewer workers
    need fewer of both."""
