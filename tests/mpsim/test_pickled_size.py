"""The byte count of a sent message is its exact pickled size.

``Endpoint.send`` counts ``len(pickle.dumps(payload, HIGHEST_PROTOCOL))``
but pickles only the first payload of each shape (field types, int size,
and each array's dtype, shape, layout and shared dtype objects); the rest
are looked up in a memo shared by the ranks of one run.  Every case runs
cold, then memoised on payloads of the same shape and other values, and
must equal the real pickle each time.  Payloads with no shape (dicts, an
array twice, ints beyond int32) are pickled every time and never enter
the memo.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpsim.engine import pickled_size


def exact(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def read_only(x):
    x.flags.writeable = False
    return x


#: name -> payload of "value" v = 0, 1, 2: the same shape, other values.
MEMOISED = {
    "int 255": lambda v: (255 - v,),
    "int 256": lambda v: (256 + v,),
    "int 65535": lambda v: (65535 - v,),
    "int 65536": lambda v: (65536 + v,),
    "int 2**31 - 1": lambda v: (2**31 - 1 - v,),
    "int -1": lambda v: (-1 - v,),
    "int -2**31": lambda v: (-(2**31) + v,),
    "bool, float, None": lambda v: (bool(v % 2), v / 3, None),
    "float64 column": lambda v: (7, np.arange(5.0) + v),
    "int64 and float64": lambda v: (7, np.arange(3) + v, np.arange(3.0) - v),
    "int32 rows": lambda v: (9, np.arange(4, dtype=np.int32) + v, np.ones(4) * v),
    "empty": lambda v: (v, np.zeros(0), np.zeros(0, dtype=np.int64)),
    "sliced": lambda v: (300, (np.arange(10.0) + v)[2:7]),
    "non-contiguous": lambda v: (300, (np.arange(10.0) + v)[::2]),
    "fortran": lambda v: (1, np.asfortranarray(np.arange(6.0).reshape(2, 3) + v)),
    "read-only": lambda v: (1, read_only(np.arange(4.0) + v)),
    # dtype('l') and dtype('q') are equal but distinct objects: pickle
    # references a repeated dtype object, so sharing one changes the size.
    "one dtype object twice": lambda v: (1, np.arange(3) + v, np.arange(3) - v),
    "two equal dtype objects": lambda v: (
        1, (np.arange(3) + v).astype(np.dtype("l")), (np.arange(3) - v).astype(np.dtype("q"))
    ),
    "solve scalar": lambda v: (True, 40 + v, 0.5 * v),
}

_ARRAY = np.arange(4.0)

#: name -> payload of value v, pickled every time.
UNSHAPED = {
    "int 2**31": lambda v: (2**31 + v,),
    "int -2**31 - 1": lambda v: (-(2**31) - 1 - v,),
    "one array twice": lambda v: (1, _ARRAY, _ARRAY),
    "dict": lambda v: {3: np.arange(3.0) + v, 5: np.arange(2.0)},
    "column gather": lambda v: {j: float(j + v) for j in range(3)},
    "not a tuple": lambda v: [1, 2.0 + v],
    "numpy scalar": lambda v: (np.int64(3 + v),),
    "object array": lambda v: (np.array([None, v], dtype=object),),
}


@pytest.mark.parametrize("name", sorted(MEMOISED))
def test_memoised_size_is_the_pickled_size(name):
    make, sizes = MEMOISED[name], {}
    for v in range(3):  # cold, then memoised
        assert pickled_size(make(v), sizes) == exact(make(v)), (name, v)
    assert len(sizes) == 1


@pytest.mark.parametrize("name", sorted(UNSHAPED))
def test_payload_without_a_shape_is_pickled(name):
    make, sizes = UNSHAPED[name], {}
    for v in range(3):
        assert pickled_size(make(v), sizes) == exact(make(v)), (name, v)
    assert sizes == {}


#: Payloads one key part apart, pickled in turn into one memo: each must
#: get its own size, not its neighbour's.
NEIGHBOURS = [
    (255,), (256,), (65535,), (65536,), (-1,), (2**31 - 1,),
    (1, np.arange(5.0)), (1, read_only(np.arange(5.0))), (1, np.arange(10.0)[::2]),
    (1, np.arange(6.0).reshape(2, 3)), (1, np.asfortranarray(np.arange(6.0).reshape(2, 3))),
    (1, np.arange(6.0).reshape(3, 2)), (1, np.arange(5)), (1, np.arange(5, dtype=np.int32)),
    (1, np.arange(3), np.arange(3)),
    (1, np.arange(3).astype(np.dtype("l")), np.arange(3).astype(np.dtype("q"))),
    (1, np.arange(3).astype(np.dtype("q")), np.arange(3).astype(np.dtype("l"))),
    (True, 1, 0.5), (False, 1, None), (None, 1, 0.5),
    (1, np.arange(4.0), np.arange(4.0)), (1, _ARRAY, _ARRAY),
]


def test_neighbouring_shapes_get_their_own_size():
    sizes = {}
    for payload in NEIGHBOURS + NEIGHBOURS:
        assert pickled_size(payload, sizes) == exact(payload), payload


def _arrays():
    dtypes = st.sampled_from([np.float64, np.int64, np.int32, np.dtype("l"), np.dtype("q")])
    layouts = st.sampled_from(["plain", "strided", "fortran", "read-only"])

    @st.composite
    def array(draw):
        x = np.arange(draw(st.integers(0, 12)), dtype=draw(dtypes))
        layout = draw(layouts)
        if layout == "strided":
            return x[::2]
        if layout == "fortran" and len(x) % 2 == 0:
            return np.asfortranarray(x.reshape(2, -1))
        return read_only(x) if layout == "read-only" else x

    return array()


FIELDS = st.one_of(
    st.integers(-(2**40), 2**40), st.integers(-3, 70000), st.booleans(), st.none(),
    st.floats(allow_nan=False), _arrays(),
)


@given(st.lists(st.lists(FIELDS, max_size=4).map(tuple), min_size=1, max_size=6))
@settings(deadline=None)
def test_any_sequence_of_payloads_counts_exactly(payloads):
    sizes = {}
    for payload in payloads + payloads:
        assert pickled_size(payload, sizes) == exact(payload)
