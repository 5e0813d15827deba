import inspect
import pickle

import pytest

from monosde import errors

#: Constructor arguments of the error classes that take more than a message;
#: the errors of a path also without their optional path index, and
#: DivergenceError with a label.
_ARGS = {
    errors.DivergenceError: [(3, 5), (4,), (2, None, "first variation (J, K)")],
    errors.NewtonFailureError: [(7, 71.35, 1e-10, 12), (7, 71.35, 1e-10)],
    errors.SingularDiffusionError: [("singular diffusion at step 3", 4), ("a message",)],
}

_CASES = [
    (cls, args)
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.MonosdeError)
    for args in _ARGS.get(cls, [("a message",)])
]


@pytest.mark.parametrize(
    "cls, args", _CASES, ids=[f"{cls.__name__}{args}" for cls, args in _CASES]
)
def test_errors_survive_pickling(cls, args):
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


@pytest.mark.parametrize(
    "exc, message",
    [
        (errors.DivergenceError(3, None, "first variation (J, K)"),
         "first variation (J, K) diverged at step 3 (path 9)"),
        (errors.NewtonFailureError(7, 71.35, 1e-10),
         "Newton residual 7.135e+01 > tol 1.000e-10 at step 7 (path 9)"),
        (errors.SingularDiffusionError("singular diffusion at step 3"),
         "singular diffusion at step 3 (path 9)"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else "",
)
def test_path_errors_name_the_path_they_are_moved_to(exc, message):
    moved = exc.at_path(9)
    assert type(moved) is type(exc)
    assert str(moved) == message
    assert moved.path_index == 9
    assert vars(moved) == {**vars(exc), "path_index": 9}
