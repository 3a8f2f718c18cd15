from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hirotaverify.gaussian import GaussianRational
from hirotaverify.laurent import LaurentPoly, Monomial
from hirotaverify.wronskian import TauFamily

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def fam5() -> TauFamily:
    """Shared tau family up to site 5; building it dominates suite startup."""
    return TauFamily.build(5)


@pytest.fixture(scope="session")
def fam4(fam5: TauFamily) -> TauFamily:
    return TauFamily(n_max=4, tau=fam5.tau[:5], f=fam5.f[:5])


# -- hypothesis strategies ----------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero)

monomials = st.builds(
    Monomial,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
laurent_monomials = st.builds(
    Monomial,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2, max_value=4),
    st.integers(min_value=-2, max_value=4),
)

polys = st.dictionaries(monomials, gaussians, max_size=5).map(LaurentPoly)
laurent_polys = st.dictionaries(laurent_monomials, gaussians, max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)

xy_monomials = st.builds(
    Monomial,
    st.just(0),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
xy_polys = st.dictionaries(xy_monomials, gaussians, max_size=5).map(LaurentPoly)

x_monomials = st.builds(
    Monomial, st.just(0), st.integers(min_value=0, max_value=6), st.just(0)
)
x_polys = st.dictionaries(
    x_monomials, st.builds(GaussianRational, rationals), max_size=5
).map(LaurentPoly)
