"""The package's public names."""

import robinsym
from robinsym import radial


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
