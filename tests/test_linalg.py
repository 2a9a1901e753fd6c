import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat import (
    GF,
    RATIONALS,
    Matrix,
    Subspace,
    ValidationError,
    image,
    inverse,
    kernel,
    map_image,
    map_preimage,
    projection_onto,
    rref,
    solve_particular,
    sub_intersect,
    sub_sum,
)
from invcat.linalg import complement_within

from conftest import random_invertible, random_matrix, random_subspace

FIELDS = [RATIONALS, GF(2), GF(3), GF(5), GF(10007)]


def field_strategy():
    return st.sampled_from(FIELDS)


def scalars(field, bound=5):
    """Field scalars; over Q they carry denominators, so the common-denominator
    paths of the kernel are exercised."""
    if field.is_rational:
        return st.fractions(-bound, bound, max_denominator=6)
    return st.integers(0, field.p - 1)


def matrix_of(draw, field, rows, cols):
    data = draw(
        st.lists(
            st.lists(scalars(field), min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )
    return Matrix.build(field, rows, cols, data)


@st.composite
def matrices(draw, max_dim=4):
    field = draw(field_strategy())
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return matrix_of(draw, field, rows, cols)


@st.composite
def subspace_pairs(draw, max_dim=4, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    ambient = draw(st.integers(0, max_dim))
    vec = st.lists(scalars(field, 4), min_size=ambient, max_size=ambient)
    a = Subspace.span(field, ambient, draw(st.lists(vec, max_size=4)))
    b = Subspace.span(field, ambient, draw(st.lists(vec, max_size=4)))
    return a, b


# --- rref --------------------------------------------------------------------


def test_rref_scales_rows():
    m = Matrix.build(RATIONALS, 2, 2, [[2, 0], [0, 0]])
    r, rk = rref(m)
    assert r.to_json() == [[1, 0], [0, 0]]
    assert rk == 1


def test_rref_identity_fixed():
    m = Matrix.identity(RATIONALS, 3)
    r, rk = rref(m)
    assert r == m
    assert rk == 3


def test_rref_dependent_rows():
    # hand Gaussian elimination: subtract twice row one, rank 1
    m = Matrix.build(RATIONALS, 2, 2, [[1, 2], [2, 4]])
    r, rk = rref(m)
    assert r.to_json() == [[1, 2], [0, 0]]
    assert rk == 1


@given(matrices())
@settings(max_examples=150)
def test_rref_idempotent(m):
    r, rk = rref(m)
    r2, rk2 = rref(r)
    assert r == r2 and rk == rk2


@given(matrices())
@settings(max_examples=150)
def test_rank_nullity(m):
    assert kernel(m).dim + image(m).dim == m.cols


# --- kernel / image ------------------------------------------------------------


def test_kernel_image_of_nilpotent_loop():
    m = Matrix.build(RATIONALS, 2, 2, [[0, 1], [0, 0]])
    assert kernel(m) == Subspace.span(RATIONALS, 2, [[1, 0]])
    assert image(m) == Subspace.span(RATIONALS, 2, [[1, 0]])


def test_kernel_image_extremes():
    z = Matrix.zeros(RATIONALS, 3, 2)
    assert kernel(z).is_full and image(z).is_zero
    i = Matrix.identity(RATIONALS, 3)
    assert kernel(i).is_zero and image(i).is_full


# --- subspace algebra -----------------------------------------------------------


@pytest.mark.parametrize("field", [RATIONALS, GF(2), GF(10007)])
def test_full_space_is_the_span_of_the_identity(field):
    """``Subspace.full`` skips the elimination, and is the value, the integer
    form and the hash of the identity's span, with the same scalar types."""
    for n in range(6):
        full = Subspace.full(field, n)
        ref = Subspace.span(field, n, [[int(i == j) for j in range(n)] for i in range(n)])
        assert full == ref and full.is_full and hash(full) == hash(ref)
        assert full._ints() == ref._ints()
        assert [list(map(type, r)) for r in full.basis] == [list(map(type, r)) for r in ref.basis]


def test_lines_intersect_trivially():
    a = Subspace.span(RATIONALS, 2, [[1, 0]])
    b = Subspace.span(RATIONALS, 2, [[0, 1]])
    assert sub_intersect(a, b).is_zero


def test_plane_intersection_in_q3():
    a = Subspace.span(RATIONALS, 3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(RATIONALS, 3, [[0, 1, 0], [0, 0, 1]])
    # direct solve oracle: intersection must be the e2 axis
    assert sub_intersect(a, b) == Subspace.span(RATIONALS, 3, [[0, 1, 0]])


def test_contained_sum_and_meet():
    a = Subspace.span(RATIONALS, 3, [[1, 0, 0]])
    b = Subspace.span(RATIONALS, 3, [[1, 0, 0], [0, 1, 0]])
    assert sub_sum(a, b) == b
    assert sub_intersect(a, b) == a


@given(subspace_pairs())
@settings(max_examples=200)
def test_dimension_formula(pair):
    a, b = pair
    total = sub_sum(a, b)
    meet = sub_intersect(a, b)
    assert a.dim + b.dim == total.dim + meet.dim
    for v in meet.basis:
        assert a.contains_vector(v) and b.contains_vector(v)
    for v in a.basis:
        assert total.contains_vector(v)


def _first_fit_complement(big, small):
    """Reference: big's canonical rows, first fit, each tested against a
    fresh span of small's basis and the rows kept so far."""
    chosen = [list(r) for r in small.basis]
    kept = []
    for row in big.basis:
        if not Subspace.span(big.field, big.ambient_dim, chosen).contains_vector(row):
            chosen.append(list(row))
            kept.append(list(row))
    return Subspace.span(big.field, big.ambient_dim, kept)


def test_complement_within_matches_first_fit_reference(rng):
    for _ in range(80):
        field = rng.choice(FIELDS)
        n = rng.randint(0, 5)
        big = random_subspace(rng, field, n)
        coeffs = random_matrix(rng, field, rng.randint(0, big.dim), big.dim)
        inside = Subspace.span(field, n, (coeffs @ big.basis_matrix()).entries)
        outside = random_subspace(rng, field, n)
        zero, full = Subspace.zero(field, n), Subspace.full(field, n)
        cases = [(big, inside), (big, zero), (big, big), (full, inside), (zero, zero),
                 (full, zero), (full, full), (big, outside), (zero, outside)]
        for b, s in cases:
            got = complement_within(b, s)
            assert got == _first_fit_complement(b, s)
            assert sub_intersect(got, s).is_zero
            assert sub_sum(got, s) == sub_sum(b, s)
    assert complement_within(Subspace.full(RATIONALS, 3), Subspace.zero(RATIONALS, 3)).is_full
    assert complement_within(Subspace.full(GF(2), 2), Subspace.full(GF(2), 2)).is_zero
    with pytest.raises(ValidationError):
        complement_within(Subspace.zero(RATIONALS, 2), Subspace.zero(RATIONALS, 3))


@given(subspace_pairs())
@settings(max_examples=200)
def test_containment_duality(pair):
    a, b = pair
    contains = a.contains(b)
    assert contains == (sub_intersect(a, b) == b)
    assert contains == (sub_sum(a, b) == a)


def test_canonical_equality_under_respanning(rng):
    for _ in range(60):
        field = rng.choice(FIELDS)
        ambient = rng.randint(1, 4)
        s = random_subspace(rng, field, ambient)
        # re-span by random row operations on a redundant spanning set
        vecs = [list(v) for v in s.basis] + [list(v) for v in s.basis]
        rng.shuffle(vecs)
        if len(vecs) >= 2:
            lam = field.coerce(rng.choice([1, 2, -1]))
            vecs[0] = [field.add(x, field.mul(lam, y)) for x, y in zip(vecs[0], vecs[1])]
        assert Subspace.span(field, ambient, vecs) == s


def test_ambient_mismatch_raises():
    a = Subspace.span(RATIONALS, 2, [[1, 0]])
    b = Subspace.span(RATIONALS, 3, [[1, 0, 0]])
    with pytest.raises(ValidationError):
        sub_sum(a, b)


@pytest.mark.parametrize("field", [RATIONALS, GF(7)])
def test_to_json_returns_fresh_lists(field):
    s = Subspace.span(field, 3, [[2, 1, 0], [0, 3, 1]])
    first = s.to_json()
    second = s.to_json()
    assert first == second
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))
    first[0][0] = "mutated"
    first.append([9, 9, 9])
    assert s.to_json() == second
    assert s.to_json() == [[field.entry_to_json(x) for x in r] for r in s.basis]


# --- map image / preimage -------------------------------------------------------


def test_bisection_loop_image_of_full():
    m = Matrix.build(RATIONALS, 2, 2, [[0, 1], [0, 0]])
    assert map_image(m, Subspace.full(RATIONALS, 2)) == Subspace.span(RATIONALS, 2, [[1, 0]])


def test_preimage_extremes():
    m = Matrix.build(RATIONALS, 2, 3, [[1, 0, 2], [0, 1, 1]])
    assert map_preimage(m, Subspace.zero(RATIONALS, 2)) == kernel(m)
    assert map_preimage(m, Subspace.full(RATIONALS, 2)).is_full


@given(matrices())
@settings(max_examples=120)
def test_preimage_image_adjunction(m):
    rng = random.Random(7)
    b = random_subspace(rng, m.field, m.rows)
    pre = map_preimage(m, b)
    assert pre.contains(kernel(m))
    assert map_image(m, pre) == sub_intersect(b, image(m))


def annihilator_preimage(m, b):
    """The preimage by its old construction: the kernel of K m, where the
    rows of K are a basis of the annihilator of ``b``."""
    k = kernel(b.basis_matrix())
    return kernel(Matrix(b.field, k.dim, b.ambient_dim, k.basis) @ m)


def _maps_of_every_kind(rng, field):
    """(name, matrix): zero, injective, surjective and neither, plus maps
    from and to the zero space."""
    def product(rows, inner, cols):
        return random_matrix(rng, field, rows, inner) @ random_matrix(rng, field, inner, cols)

    def injective(rows, cols):
        grid = [[int(i == j) for j in range(cols)] for i in range(rows)]
        embed = Matrix.build(field, rows, cols, grid)
        return random_invertible(rng, field, rows) @ embed @ random_invertible(rng, field, cols)

    return [
        ("zero", Matrix.zeros(field, 3, 4)),
        ("injective", injective(4, 2)),
        ("injective square", injective(3, 3)),
        ("surjective", injective(4, 2).transpose()),
        ("neither", product(4, 2, 3)),
        ("rank one", product(3, 1, 3)),
        ("from zero space", Matrix.zeros(field, 3, 0)),
        ("to zero space", Matrix.zeros(field, 0, 3)),
    ]


@pytest.mark.parametrize("field", [RATIONALS, GF(2), GF(3), GF(10007)], ids=str)
def test_factored_preimage_matches_annihilator_reference(field):
    """``map_preimage`` (ker m + a lift of b & im m, memoized per matrix)
    equals the kernel-of-annihilator construction on every kind of map, for
    b = 0, b = full, b inside im m and random b, and a repeated call is
    answered from the matrix's memo."""
    rng = random.Random(field.p or 0)
    for name, m in _maps_of_every_kind(rng, field):
        im = image(m)
        targets = [Subspace.zero(field, m.rows), Subspace.full(field, m.rows), im]
        targets += [map_image(m, random_subspace(rng, field, m.cols)) for _ in range(3)]
        targets += [random_subspace(rng, field, m.rows) for _ in range(12)]
        for b in targets:
            expected = annihilator_preimage(m, b)
            got = map_preimage(m, b)
            assert got == expected, (name, b)
            assert map_preimage(m, b) is got, name  # memo hit
            assert map_image(m, got) == sub_intersect(b, im), name
        assert map_preimage(m, Subspace.zero(field, m.rows)) == kernel(m)
        assert map_preimage(m, Subspace.full(field, m.rows)).is_full
        # subspaces that meet im m alike share one memo entry
        above = sub_sum(im, random_subspace(rng, field, m.rows))
        assert map_preimage(m, above) is map_preimage(m, im)


# --- solving --------------------------------------------------------------------


def test_solve_identity():
    m = Matrix.identity(RATIONALS, 3)
    assert solve_particular(m, (1, 2, 3)) == (1, 2, 3)


def test_solve_inconsistent():
    m = Matrix.zeros(RATIONALS, 2, 2)
    assert solve_particular(m, (1, 0)) is None


def test_solve_free_variables_zero():
    # back-substitution by hand: x1 + 2 x2 = 1 with x2 free -> (1, 0)
    m = Matrix.build(RATIONALS, 2, 2, [[1, 2], [2, 4]])
    assert solve_particular(m, (1, 2)) == (1, 0)


@given(matrices())
@settings(max_examples=120)
def test_solve_solutions_check_out(m):
    rng = random.Random(13)
    x = [m.field.coerce(rng.randint(-3, 3)) for _ in range(m.cols)]
    v = m.apply(x)
    got = solve_particular(m, v)
    assert got is not None
    assert m.apply(got) == v


def test_inverse_roundtrip(rng):
    for _ in range(40):
        field = rng.choice(FIELDS)
        n = rng.randint(0, 4)
        m = random_invertible(rng, field, n)
        mi = inverse(m)
        assert mi is not None
        assert m @ mi == Matrix.identity(field, n)


@st.composite
def products_through(draw, max_dim=4):
    """A product a @ b of random shapes, and a subset of its inner indices."""
    field = draw(field_strategy())
    rows, inner, cols = (draw(st.integers(0, max_dim)) for _ in range(3))
    a, b = matrix_of(draw, field, rows, inner), matrix_of(draw, field, inner, cols)
    keep = sorted(draw(st.sets(st.integers(0, inner - 1))) if inner else ())
    return a, b, keep


@given(products_through())
@settings(max_examples=200, deadline=None)
def test_product_through_matches_the_sliced_product(case):
    a, b, keep = case
    left = Matrix(a.field, a.rows, len(keep), tuple(tuple(r[k] for k in keep) for r in a.entries))
    right = Matrix(b.field, len(keep), b.cols, tuple(b.entries[k] for k in keep))
    assert a.through(b, keep) == left @ right
    assert a.through(b, range(a.cols)) == a @ b


def test_projection_onto():
    img = Subspace.span(RATIONALS, 2, [[1, 0]])
    ker = Subspace.span(RATIONALS, 2, [[1, 1]])
    pi = projection_onto(img, ker)
    assert pi @ pi == pi
    assert image(pi) == img
    assert kernel(pi) == ker


# --- the integer kernel against a per-entry reference --------------------------------
#
# The reference is the plain algorithm over Field.add / Field.mul: schoolbook
# products and Gauss-Jordan elimination with the pivot scaled to 1.


def ref_matmul(a, b):
    f = a.field
    out = []
    for r in a.entries:
        row = []
        for j in range(b.cols):
            acc = f.zero
            for k in range(a.cols):
                acc = f.add(acc, f.mul(r[k], b.entries[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def ref_apply(m, v):
    f = m.field
    out = []
    for r in m.entries:
        acc = f.zero
        for a, b in zip(r, v):
            acc = f.add(acc, f.mul(a, b))
        out.append(acc)
    return tuple(out)


def ref_rref_rows(field, rows, ncols):
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_rref(m):
    rows, pivots = ref_rref_rows(m.field, [list(r) for r in m.entries], m.cols)
    return tuple(tuple(r) for r in rows), len(pivots)


def ref_inverse(m):
    f, n = m.field, m.rows
    aug = [
        list(r) + [f.one if i == j else f.zero for j in range(n)] for i, r in enumerate(m.entries)
    ]
    aug, pivots = ref_rref_rows(f, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in aug)


def ref_solve(m, v):
    f = m.field
    if m.rows == 0:
        return tuple(f.zero for _ in range(m.cols))
    aug, pivots = ref_rref_rows(f, [list(r) + [x] for r, x in zip(m.entries, v)], m.cols + 1)
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][m.cols]
    return tuple(x)


def canonical(field, scalars_):
    kind = Fraction if field.is_rational else int
    return all(type(x) is kind for x in scalars_)


def check_against_reference(a, b, v, rhs):
    """a: r x k, b: k x c, v: length k, rhs: length r."""
    f = a.field
    prod = a @ b
    assert prod.entries == ref_matmul(a, b)
    assert canonical(f, (x for r in prod.entries for x in r))
    got = a.apply(v)
    assert got == ref_apply(a, v) and canonical(f, got)
    r, rk = rref(a)
    assert (r.entries, rk) == ref_rref(a)
    assert canonical(f, (x for row in r.entries for x in row))
    for target in (rhs, a.apply(v)):
        x = solve_particular(a, target)
        assert x == ref_solve(a, target)
        assert x is None or canonical(f, x)
    if a.rows == a.cols:
        inv = inverse(a)
        ref = ref_inverse(a)
        assert (inv is None and ref is None) or inv.entries == ref


@st.composite
def kernel_cases(draw, max_dim=4):
    field = draw(field_strategy())
    r, k, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    if r == k and draw(st.booleans()):
        # an invertible a, so that inverse() has a value to compare
        diag = [draw(scalars(field).filter(bool)) for _ in range(k)]
        d = Matrix.build(
            field, k, k, [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
        )
        a = random_invertible(random.Random(draw(st.integers(0, 99))), field, k) @ d
    else:
        a = matrix_of(draw, field, r, k)
    b = matrix_of(draw, field, k, c)
    v = draw(st.lists(scalars(field), min_size=k, max_size=k))
    rhs = draw(st.lists(scalars(field), min_size=r, max_size=r))
    return a, b, v, rhs


@given(kernel_cases())
@settings(max_examples=300)
def test_kernel_matches_per_entry_reference(case):
    check_against_reference(*case)


def test_kernel_matches_reference_on_empty_shapes(rng):
    for field in FIELDS:
        for r, k, c in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (0, 0, 3), (3, 0, 0)):
            a = random_matrix(rng, field, r, k)
            b = random_matrix(rng, field, k, c)
            v = random_matrix(rng, field, 1, k).entries[0] if k else ()
            rhs = random_matrix(rng, field, 1, r).entries[0] if r else ()
            check_against_reference(a, b, v, rhs)


@given(matrices(), subspace_pairs())
@settings(max_examples=150)
def test_warm_caches_compare_and_hash_equal(m, pair):
    # fill every cache through the public operations
    warm = m @ Matrix.identity(m.field, m.cols)
    image(warm), kernel(warm), hash(warm)
    fresh = Matrix(m.field, m.rows, m.cols, m.entries)
    assert warm == fresh and fresh == warm
    assert hash(warm) == hash(fresh) == hash((m.field, m.rows, m.cols, m.entries))
    assert repr(warm) == repr(fresh)
    a, b = pair
    meet = sub_intersect(a, b)
    meet.contains(b), hash(meet)
    cold = Subspace(meet.field, meet.ambient_dim, meet.basis)
    assert meet == cold and cold == meet
    assert hash(meet) == hash(cold) == hash((meet.field, meet.ambient_dim, meet._ints()[0]))
    assert repr(meet) == repr(cold)
    assert cold.contains(a) == meet.contains(a)


@given(subspace_pairs(fields=[RATIONALS, GF(2), GF(10007)]))
@settings(max_examples=200)
def test_equal_subspaces_hash_equal(pair):
    """Equal subspaces hash equal whichever way they are built: by ``span``
    of any spanning rows, from their canonical basis directly (with no
    integer form cached), as ``zero`` or ``full``, and by ``sub_intersect``,
    ``sub_sum`` and ``complement_within``."""
    a, b = pair
    f, n = a.field, a.ambient_dim
    meet, total = sub_intersect(a, b), sub_sum(a, b)
    comp = complement_within(total, a)
    full = Subspace.full(f, n)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    groups = [
        [Subspace.zero(f, n), Subspace.span(f, n, []), Subspace.span(f, n, [[0] * n]),
         Subspace(f, n, ()), sub_intersect(meet, comp)],
        [full, Subspace.span(f, n, identity[::-1]), Subspace(f, n, full.basis),
         sub_sum(a, complement_within(full, a))],
        [meet, sub_intersect(b, a), Subspace(f, n, meet.basis)],
        [total, sub_sum(b, a), sub_sum(a, comp), Subspace(f, n, total.basis)],
    ]
    for x in (a, b, meet, total, comp):
        rows = [list(r) for r in x.basis]
        rescaled = [[f.mul(3, v) for v in r] for r in rows[::-1]]
        summed = [[f.add(u, v) for u, v in zip(*rows[:2])]] if len(rows) >= 2 else []
        groups.append(
            [x, Subspace(f, n, x.basis), Subspace.span(f, n, rescaled + summed)]
        )
    for group in groups:
        assert all(y == group[0] for y in group)
        assert len({hash(y) for y in group}) == 1


def ref_intersect(a, b):
    """Zassenhaus over Field arithmetic: reduce [A | A; B | 0]; the rows whose
    pivot lies in the right half span the intersection there."""
    f, n = a.field, a.ambient_dim
    rows = [list(r) + list(r) for r in a.basis] + [list(r) + [f.zero] * n for r in b.basis]
    rows, pivots = ref_rref_rows(f, rows, 2 * n)
    return Subspace.span(f, n, [row[n:] for row, c in zip(rows, pivots) if c >= n])


@given(subspace_pairs())
@settings(max_examples=200)
def test_intersect_matches_zassenhaus_reference(pair):
    a, b = pair
    f, n = a.field, a.ambient_dim
    zero, full, total = Subspace.zero(f, n), Subspace.full(f, n), sub_sum(a, b)
    lines = [Subspace.span(f, n, [r]) for r in a.basis[:1] + b.basis[-1:]]
    spaces = [a, b, zero, full, total] + lines
    # every ordered pair: zero, equal, nested, 1-dim and general position
    for x in spaces:
        for y in spaces:
            assert sub_intersect(x, y) == ref_intersect(x, y)


# --- containment in a hyperplane against a per-entry reference ----------------


def ref_contains(big, small):
    """``small`` lies in ``big`` when stacking their bases adds no rank."""
    rows = [list(r) for r in big.basis + small.basis]
    _, pivots = ref_rref_rows(big.field, rows, big.ambient_dim)
    return len(pivots) == big.dim


@st.composite
def hyperplane_cases(draw):
    """A hyperplane, the kernel of a nonzero functional (over Q with
    fractions, so that its integer rows have non-unit pivots), and subspaces
    to test against it: zero, lines in it and at random, subspaces of it,
    itself and the full space."""
    field = draw(st.sampled_from([RATIONALS, GF(2), GF(10007)]))
    n = draw(st.integers(1, 4))
    functional = draw(
        st.lists(scalars(field), min_size=n, max_size=n).filter(lambda w: any(w))
    )
    h = kernel(Matrix.build(field, 1, n, [functional]))
    vec = st.lists(scalars(field), min_size=n, max_size=n)
    combos = st.lists(scalars(field), min_size=h.dim, max_size=h.dim)

    def inside(coeffs):
        return (Matrix.build(field, 1, h.dim, [coeffs]) @ h.basis_matrix()).entries[0]

    others = [Subspace.zero(field, n), h, Subspace.full(field, n)]
    others.append(Subspace.span(field, n, [draw(vec)]))
    others.append(Subspace.span(field, n, [inside(draw(combos))]))
    others.append(Subspace.span(field, n, [inside(draw(combos)) for _ in range(2)]))
    others.append(Subspace.span(field, n, draw(st.lists(vec, max_size=3))))
    return h, others


@given(hyperplane_cases())
@settings(max_examples=200)
def test_hyperplane_contains_matches_reference(case):
    h, others = case
    assert h.dim == h.ambient_dim - 1
    for other in others:
        expected = ref_contains(h, other)
        # cold: no cached integer form or normal row on either side
        cold = Subspace(h.field, h.ambient_dim, h.basis)
        assert cold.contains(Subspace(other.field, other.ambient_dim, other.basis)) == expected
        # warm: the normal row cached by the call before
        assert h.contains(other) == expected
        assert h.contains(other) == expected
    assert h.contains(Subspace.zero(h.field, h.ambient_dim))
    assert not h.contains(Subspace.full(h.field, h.ambient_dim))
