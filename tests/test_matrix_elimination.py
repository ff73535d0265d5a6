"""The fraction-free determinant and inverse of PolyMat against the
Laplace expansion of tests/test_matrix.py, on drawn square matrices over
F_p[x], p in {2, 3, 5} and n <= 5."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_matrix import _laplace_det, _laplace_inverse  # noqa: E402

from selfsim.matrix import PolyMat  # noqa: E402
from selfsim.ring import DensePoly, NotInvertible  # noqa: E402


@st.composite
def square_matrices(draw):
    """Square matrices over F_p[x], p in {2, 3, 5} and n <= 5, of four
    shapes: any entries (small, often zero); a zero (0, 0) entry, which
    forces a row swap; a row that is a multiple of another (singular);
    and a unimodular matrix, the identity under random row operations
    (adding a multiple of a row, swapping two, scaling by a unit)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    poly = st.lists(st.integers(0, p - 1), max_size=4).map(lambda c: DensePoly(p, c))
    shape = draw(st.sampled_from(["any", "zero corner", "singular", "unimodular"]))
    if shape == "unimodular":
        rows = [list(row) for row in PolyMat.identity(p, n).rows]
        for _ in range(draw(st.integers(0, 3 * n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            op = draw(st.sampled_from(["add", "swap", "scale"]))
            if op == "add" and i != j:
                f = draw(poly)
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            elif op == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            else:
                c = draw(st.integers(1, p - 1))
                rows[i] = [a.mul_scalar(c) for a in rows[i]]
        return PolyMat(p, rows)
    rows = [[draw(poly) for _ in range(n)] for _ in range(n)]
    if shape == "zero corner":
        rows[0][0] = DensePoly.zero(p)
    elif shape == "singular":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        f = draw(poly)
        rows[i] = [f * b for b in rows[j]] if i != j else [DensePoly.zero(p)] * n
    return PolyMat(p, rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(square_matrices())
def test_det_and_inverse_match_the_laplace_oracle(m):
    p, n = m.p, m.size
    d = _laplace_det(p, m.rows, tuple(range(n)))
    assert m.det() == d
    if d.degree == 0:
        inv = m.inverse_gl()
        assert inv == _laplace_inverse(m)
        assert m * inv == PolyMat.identity(p, n) == inv * m
    else:
        with pytest.raises(NotInvertible, match="determinant is not a nonzero constant"):
            m.inverse_gl()
