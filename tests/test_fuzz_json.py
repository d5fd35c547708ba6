"""Fuzz the JSON loaders: on any JSON document they either load or raise one
of the exception types that `ffkakeya.cli.main` turns into exit 2."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffkakeya.brkset import BrkInstance, PointSet
from ffkakeya.errors import FFKakeyaError
from ffkakeya.ffield import field_from_json
from ffkakeya.mpoly import poly_from_json

USAGE_ERRORS = (FFKakeyaError, KeyError, ValueError)

# the keys the loaders read, so documents often get past the first lookup
KEYS = ["field", "p", "m", "modulus", "n", "points", "arity", "terms", "exp",
        "coeff", "ell", "g", "per_rho", "rho", "a", "lower"]

INTS = st.integers(-3, 9) | st.integers(-(2**64), 2**64)
SCALARS = st.none() | st.booleans() | INTS | st.text(max_size=3)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=20,
)
FIELDS = (
    st.sampled_from([{"p": 2}, {"p": 3, "m": 1}, {"p": 2, "m": 2}, {"p": 3, "m": 2}])
    | st.fixed_dictionaries(
        {"p": st.sampled_from([2, 3, 4]) | INTS, "m": st.integers(-1, 3) | INTS},
        optional={"modulus": st.lists(INTS, max_size=4)},
    )
    | JSON
)
ELEMENTS = INTS | st.lists(INTS, max_size=3) | JSON
POLYS = JSON | st.fixed_dictionaries({
    "field": FIELDS,
    "arity": INTS,
    "terms": st.lists(
        st.fixed_dictionaries({"exp": st.lists(INTS, max_size=3), "coeff": ELEMENTS}) | JSON,
        max_size=3,
    ),
})
POINT_SETS = JSON | st.fixed_dictionaries({
    "field": FIELDS,
    "n": INTS,
    "points": st.lists(st.lists(ELEMENTS, max_size=3) | JSON, max_size=4),
})
INSTANCES = JSON | st.fixed_dictionaries({
    "field": FIELDS,
    "n": INTS,
    "ell": INTS,
    "g": POLYS,
    "per_rho": st.lists(
        st.fixed_dictionaries({"rho": ELEMENTS, "a": st.lists(ELEMENTS, max_size=3),
                               "lower": POLYS}) | JSON,
        max_size=4,
    ),
})

# derandomized, so every run of the suite tries the same documents; the
# explicit examples name a prime field too large to build, which must be
# rejected before the primality test (trial division to 2^30.5 takes minutes)
FUZZ = settings(max_examples=100, deadline=2000, derandomize=True)
BIG_FIELD = {"p": 2**61 - 1, "m": 1}


def _load_or_usage_error(load, doc):
    try:
        load(doc)
    except USAGE_ERRORS:
        pass


@FUZZ
@given(FIELDS)
@example(BIG_FIELD)
def test_field_from_json(doc):
    _load_or_usage_error(field_from_json, doc)


@FUZZ
@given(POLYS)
@example({"field": BIG_FIELD, "arity": 1, "terms": []})
def test_poly_from_json(doc):
    _load_or_usage_error(poly_from_json, doc)


@FUZZ
@given(POINT_SETS)
@example({"field": BIG_FIELD, "n": 2, "points": []})
def test_point_set_from_json(doc):
    _load_or_usage_error(PointSet.from_json, doc)


@FUZZ
@given(INSTANCES)
@example({"field": BIG_FIELD, "n": 2, "ell": 2, "g": {}, "per_rho": []})
def test_brk_instance_from_json(doc):
    _load_or_usage_error(BrkInstance.from_json, doc)
