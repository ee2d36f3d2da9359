"""The package's public names."""

import dataclasses

import robinsym
from robinsym import radial, rearrange, verify


def test_every_public_name_resolves():
    assert len(set(robinsym.__all__)) == len(robinsym.__all__)
    for name in robinsym.__all__:
        assert getattr(robinsym, name) is not None, name


def test_sampled_radial_source_api_is_gone():
    # the radial twin takes the decreasing rearrangement of the source
    for name in ("RadialSource", "constant_source", "source_from_profile"):
        assert name not in robinsym.__all__
        assert not hasattr(robinsym, name)
        assert not hasattr(radial, name)
    assert not hasattr(radial, "ConvergenceError")


def test_radial_distribution_route_is_gone():
    # the twin's side of a comparison is read on its own grid, and
    # DistributionData serves the mesh side alone
    for name in ("radial_distribution", "from_monotone_pairs",
                 "log_derivative_profile", "flat_torsion_profile"):
        assert name not in robinsym.__all__
        assert not hasattr(robinsym, name)
        assert not hasattr(radial, name)
        assert not hasattr(rearrange, name)
        assert not hasattr(rearrange.DistributionData, name)
    for name in ("MonotonicityError", "PositivityError"):
        assert not hasattr(radial, name)
    assert not hasattr(radial.RadialProfile, "to_csv")
    assert not hasattr(rearrange.DistributionData, "to_csv")
    assert not hasattr(rearrange.DistributionData, "measures")
    assert "rad" not in {f.name for f in dataclasses.fields(verify.SolveRecord)}
