import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qhopf import (FiniteAbelianGroup, cocycle_for, cocycle_zn, dpr_double,
                   function_algebra, group_algebra, sweedler)
from qhopf.scalars import PrimeField, RationalField

from basis import rebased

F5 = PrimeField(5)
F7 = PrimeField(7)
Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))


@pytest.fixture(scope="session")
def f5():
    return F5


@pytest.fixture(scope="session")
def f7():
    return F7


@pytest.fixture(scope="session")
def q():
    return RationalField()


@pytest.fixture(scope="session")
def z2():
    return Z2


@pytest.fixture(scope="session")
def z3():
    return Z3


@pytest.fixture(scope="session")
def kz2():
    """Group algebra of Z2 over F7, with trivial R and unit ribbon."""
    return group_algebra(Z2, F7)


@pytest.fixture(scope="session")
def fz2w():
    """Function algebra on Z2 with the nontrivial cocycle, over F7."""
    return function_algebra(Z2, cocycle_zn(2, 1, F7))


@pytest.fixture(scope="session")
def fz3w():
    return function_algebra(Z3, cocycle_zn(3, 1, F7))


@pytest.fixture(scope="session")
def sw():
    return sweedler()


@pytest.fixture(scope="session")
def dz2_f5():
    """Untwisted double of Z2 over F5 (the exhaustive-search test bed)."""
    return dpr_double(Z2, cocycle_for(Z2, 0, F5))


@pytest.fixture(scope="session")
def dz2():
    return dpr_double(Z2, cocycle_for(Z2, 0, F7))


@pytest.fixture(scope="session")
def dz2w():
    return dpr_double(Z2, cocycle_for(Z2, 1, F7))


@pytest.fixture(scope="session")
def dz3():
    return dpr_double(Z3, cocycle_for(Z3, 0, F7))


@pytest.fixture(scope="session")
def dz3w():
    return dpr_double(Z3, cocycle_for(Z3, 1, F7))


@pytest.fixture(scope="session")
def sw_rebased():
    """H4 in a basis whose products have several terms (tests/basis.py)."""
    return rebased("h4_q")


@pytest.fixture(scope="session")
def dz2_f5_rebased():
    return rebased("dw_z2_f5")
