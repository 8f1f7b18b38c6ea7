"""The suite writes nothing into the checkout it tests."""

from pathlib import Path

from hypothesis.configuration import storage_directory


def test_hypothesis_storage_lies_outside_the_checkout():
    # tests/conftest.py moves it before any test module is imported
    root = Path(__file__).resolve().parents[1]
    assert not storage_directory("constants").path.resolve().is_relative_to(root)
