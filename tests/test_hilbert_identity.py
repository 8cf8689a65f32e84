"""The Hilbert-series identity as an independent net under non-monomial
resolutions: the alternating sum of the free modules' graded dimensions
must equal the submodule's, both counted by dims alone."""

import pytest

from helpers import (augmentation_module, nilpotent_enveloping,
                     nonmonomial_modules)
from ncres.checks import check_hilbert_identity
from ncres.resolver import ResolutionRequest, resolve


@pytest.fixture(scope="module")
def flagship():
    # degree bound 6 reaches level 4 (degree 6) and keeps dims cheap
    mod = augmentation_module(nilpotent_enveloping())
    return mod, resolve(ResolutionRequest(mod, degree_bound=6,
                                          length_bound=7))


@pytest.mark.parametrize("tshift", [True, False])
def test_identity_holds_on_the_flagship(flagship, tshift):
    mod, res = flagship
    if not tshift:
        res = resolve(ResolutionRequest(mod, degree_bound=6, length_bound=7,
                                        tshift=False))
    assert max(res.level_shifts) == 4
    assert check_hilbert_identity(mod, res) == []


@pytest.mark.parametrize("tshift", [True, False])
def test_identity_holds_on_random_nonmonomial_presentations(tshift):
    failures = []
    for k, mod in enumerate(nonmonomial_modules(20261018, 40)):
        res = resolve(ResolutionRequest(mod, degree_bound=5, length_bound=4,
                                        tshift=tshift))
        failures += [f"module {k}: {f}"
                     for f in check_hilbert_identity(mod, res)]
    assert failures == []


def test_dropping_one_generator_is_caught(flagship):
    mod, res = flagship
    dropped = 0
    for i, shifts in res.level_shifts.items():
        if i < 2:
            continue
        for s in sorted(set(shifts)):
            rest = list(shifts)
            rest.remove(s)
            levels = dict(res.level_shifts)
            levels[i] = rest
            broken = res._replace(level_shifts=levels)
            assert check_hilbert_identity(mod, broken), (i, s)
            dropped += 1
    assert dropped == 4  # levels 2 and 4 once each, level 3 at 4 and 5
