import numpy as np
import pytest

from monosde.smallmat import contract, norm

SHAPES = [(1, 1), (2, 2), (2, 3), (3, 3)]


def _batch_last(a):
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _close(got, want, scale):
    """got against want within 4 ulp of scale, the sum of the terms' sizes:
    two orders of one sum differ by at most a few roundings of it."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))


# each case: the einsum spec on batch-first operands, the contract spec on
# batch-last ones, and the operand shapes (batch first) for d and m
CASES = {
    "matmul": ("bij,bjk->bik", "ij...,jk...->ik...", lambda d, m: [(d, d), (d, d)]),
    "smat": ("bimj,bm->bij", "imj...,m...->ij...", lambda d, m: [(d, m, d), (m,)]),
    "sigma_dw": ("bdm,bm->bd", "dm...,m...->d...", lambda d, m: [(d, m), (m,)]),
    "transposed": ("bjk,bj->bk", "jk...,j...->k...", lambda d, m: [(d, d), (d,)]),
    "trace": ("bii->b", "ii...->...", lambda d, m: [(d, d)]),
    "trace_dw": ("biji,bj->b", "iji...,j...->...", lambda d, m: [(d, m, d), (m,)]),
    "qv_matrix": ("bijl,blki->bjk", "ijl...,lki...->jk...", lambda d, m: [(d, m, d), (d, m, d)]),
    "qv": ("bjk,bj,bk->b", "jk...,j...,k...->...", lambda d, m: [(m, m), (m,), (m,)]),
    "field": ("bij,bsjm->bsim", "ij...,sjm...->sim...", lambda d, m: [(d, d), (4, d, m)]),
    "noise_field": ("bsijk,bj->bsik", "sijk...,j...->sik...", lambda d, m: [(4, d, m, m), (m,)]),
}


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("d, m", SHAPES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_contract_matches_einsum(case, d, m, B):
    spec, batch_last, shapes = CASES[case]
    rng = np.random.default_rng(d * 100 + m * 10 + B)
    ops = [rng.standard_normal((B,) + s) for s in shapes(d, m)]
    want = np.einsum(spec, *ops)
    got = np.moveaxis(contract(batch_last, *[_batch_last(a) for a in ops]), -1, 0)
    if d == m == 1:
        assert got.tobytes() == want.tobytes()
    else:
        _close(got, want, np.einsum(spec, *[np.abs(a) for a in ops]))
    # with the batch axes leading, the same sum
    lead = "->".join(
        ",".join("..." + t[:-3] for t in side.split(",")) for side in batch_last.split("->")
    )
    assert contract(lead, *ops).tobytes() == np.ascontiguousarray(got).tobytes()


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("d, m", SHAPES)
def test_contract_matches_matmul(d, m, B):
    rng = np.random.default_rng(d * 10 + B)
    a, b = rng.standard_normal((B, d, d)), rng.standard_normal((B, d, m))
    want = a @ b
    got = np.moveaxis(contract("ij...,jk...->ik...", _batch_last(a), _batch_last(b)), -1, 0)
    if d == m == 1:
        assert got.tobytes() == want.tobytes()
    else:
        _close(got, want, np.abs(a) @ np.abs(b))


def test_contract_sums_the_terms_in_order():
    # 1 + 1e-16 + ... : left to right each tiny term is lost, so the order shows
    a = np.array([[1.0], [1e-16], [1e-16], [1e-16]])
    one = np.ones((4, 1))
    assert contract("j...,j...->...", a, one)[0] == 1.0
    assert contract("j...,j...->...", a[::-1], one)[0] == 1.0 + 3e-16


def test_contract_takes_the_maximum_with_add():
    x = np.array([[0.5, -3.0, 2.0], [np.nan, 1.0, 0.0]])
    top = contract("...i->...", np.abs(x), add=np.maximum)
    assert top[0] == 3.0 and np.isnan(top[1])
    assert np.array_equal(top <= 2.5, [False, False])


@pytest.mark.parametrize(
    "spec", ["ij,jk->ik", "ij...,jk->ik...", "ij...->ji...", "ij...,kl...->il..."]
)
def test_contract_rejects_a_spec_it_cannot_evaluate(spec):
    with pytest.raises(ValueError):
        contract(spec, np.ones((2, 2, 3)), np.ones((2, 2, 3)))


@pytest.mark.parametrize("d", [1, 2])
def test_norm_is_linalg_norm_bit_for_bit(d):
    rng = np.random.default_rng(d)
    b = rng.standard_normal((64, 5, d)) * np.exp(rng.uniform(-700, 700, (64, 5, d)))
    b[0, 0, 0] = 1e200  # its square overflows to inf, as the tamed step needs
    b[0, 1] = -0.0
    b[0, 2, 0] = np.nan
    with np.errstate(over="ignore", under="ignore"):
        want = np.linalg.norm(b, axis=-1)
        got = norm(b)
    assert np.isinf(want[0, 0])
    assert got.tobytes() == want.tobytes()
