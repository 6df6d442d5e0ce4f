"""Value semantics of the specifications and labels that are compared or
used as dict keys: equal fields give equal objects that hash alike, one
changed field makes them unequal, and positional arguments keep the order
of the fields."""
import pickle

import pytest

from koszul.adams import ExampleConfig
from koszul.complexes import BasisLabel, TensorLabel
from koszul.cotor import HopfSpec
from koszul.linalg import Coefficients
from koszul.rings import DegreeWindow, IdealSpec, RingSpec
from koszul.specfile import ExampleSection

F2, F3 = Coefficients.prime_field(2), Coefficients.prime_field(3)
W, W2 = DegreeWindow(0, 12, 4, 3), DegreeWindow(0, 14, 4, 3)
R = RingSpec(F2, (("x1", 2), ("x2", 4)), W)

# class, field names in order, the fields of one value, and per field another
# value that is valid on its own
CASES = {
    "DegreeWindow": (DegreeWindow, ("t_min", "t_max", "s_max", "stage_max"),
                     (0, 12, 4, 3), (-2, 10, 5, 2)),
    "RingSpec": (RingSpec, ("coefficients", "generators", "window", "inverted"),
                 (F2, (("x1", 2), ("x2", 4)), W, None), (F3, (("x1", 2),), W2, "x2")),
    "IdealSpec": (IdealSpec, ("sequence",),
                  ((R.generator("x1"),),), ((R.generator("x2"),),)),
    "HopfSpec": (HopfSpec, ("base", "primitives"),
                 (R, (("t1", 1),)), (RingSpec(F3, (), W), (("t1", 3),))),
    "BasisLabel": (BasisLabel, ("e_part", "u_part", "word"),
                   ((1, 2), (1, 1), ((1,),)), ((1, 3), (1, 2), ((2,),))),
    "TensorLabel": (TensorLabel, ("left", "right"),
                    (BasisLabel((1,)), BasisLabel((2,))), (BasisLabel((3,)), BasisLabel((4,)))),
    "ExampleConfig": (ExampleConfig, ("which", "p", "j_max", "window", "n"),
                      ("B", 3, 4, W, 1), ("C", 5, 5, W2, 2)),
    "ExampleSection": (ExampleSection, ("which", "p", "j_max", "n"),
                       ("B", 3, 4, 1), ("C", 5, 5, 2)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_equal_values(name):
    cls, fields, base, other = CASES[name]
    a, b = cls(*base), cls(**dict(zip(fields, base)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert [getattr(a, f) for f in fields] == list(base)  # the positional order
    for i, f in enumerate(fields):
        changed = cls(*base[:i], other[i], *base[i + 1:])
        assert getattr(changed, f) == other[i]
        assert changed != a and a != changed
    assert a != base  # nothing but an instance of the class equals one


def test_coefficients_are_values_that_survive_pickling():
    kinds = [F2, F3, Coefficients.rationals(), Coefficients.integers()]
    for i, c in enumerate(kinds):
        again = pickle.loads(pickle.dumps(c))
        assert again == c and hash(again) == hash(c) and str(again) == str(c)
        assert again.normalize(again.one + again.one) == c.normalize(c.one + c.one)
        assert [c == d for d in kinds] == [j == i for j in range(len(kinds))]
    assert Coefficients("prime_field", 3) == F3 and hash(Coefficients("prime_field", 3)) == hash(F3)
    assert (F3.kind, F3.p) == ("prime_field", 3)
    assert Coefficients.rationals().p is None and Coefficients("integers").kind == "integers"
