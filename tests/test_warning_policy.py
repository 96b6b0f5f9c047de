"""pyproject.toml's filterwarnings turn these warnings into errors under a plain ``pytest``,
so tier-1 is as strict as CI without any ``-W`` flag."""

import warnings

import pytest


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning, ResourceWarning])
def test_pyproject_turns_the_warning_into_an_error(category):
    with pytest.raises(category):
        warnings.warn("raised under tier-1's warning policy", category)
