"""The package's public surface."""

import otplab


def test_all_names_resolve_and_appear_once():
    names = otplab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(otplab, name) is not None, name
