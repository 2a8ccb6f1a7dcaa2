"""The pure summary of tools/bench_pairs.py: wins, ties, medians, spreads."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import library_versions, summarize  # noqa: E402


def test_lower_is_better_counts_wins_and_ties():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 4.0]
    out = summarize(parent, change, "lower", 0.25)
    assert out["change_wins"] == 3
    assert out["ties"] == 1
    assert out["parent"]["runs_by_pair"] == parent
    assert out["change"]["runs_by_pair"] == change
    assert (out["parent"]["q1"], out["parent"]["median"], out["parent"]["q3"]) == (2.0, 3.0, 4.0)
    assert out["parent_iqr"] == 2.0
    assert out["change"]["median"] == 2.5
    assert out["relative_change"] == pytest.approx(-1 / 6, abs=1e-4)
    assert out["within_bound"]


def test_higher_is_better_counts_wins():
    out = summarize([10.0, 10.0, 10.0], [11.0, 9.0, 12.0], "higher", 0.25)
    assert out["change_wins"] == 2
    assert out["ties"] == 0
    assert out["relative_change"] == pytest.approx(0.1)
    assert out["within_bound"]


@pytest.mark.parametrize(
    "better, change, within",
    [
        ("lower", [1.2, 1.2], True),
        ("lower", [1.3, 1.3], False),
        ("higher", [0.8, 0.8], True),
        ("higher", [0.7, 0.7], False),
    ],
)
def test_bound_is_on_the_worse_side_only(better, change, within):
    out = summarize([1.0, 1.0], change, better, 0.25)
    assert out["within_bound"] is within
    assert out["change_wins"] == (2 if (better == "lower") == (change[0] < 1) else 0)


def test_rejects_unpaired_or_unknown_direction():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0, 2.0], "faster", 0.25)


def test_library_versions_name_numpy_scipy_and_blas():
    import numpy as np
    import scipy

    out = library_versions()
    assert set(out) == {"numpy", "scipy", "blas"}
    assert out["numpy"] == np.__version__ and out["scipy"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert out["blas"] == f"{blas['name']} {blas['version']}"
