import inspect
import pickle

import pytest

from monosde import errors

#: Constructor arguments of the error classes that take more than a message;
#: DivergenceError also without its optional path index, and with a label.
_ARGS = {
    errors.DivergenceError: [(3, 5), (4,), (2, None, "first variation (J, K)")],
    errors.NewtonFailureError: [(7, 71.35, 1e-10)],
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
