from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_reports_its_example(pytester):
    # Under the project's warning filters a failing hypothesis test must
    # end in its falsifying example, not in an INTERNALERROR from a warning
    # raised while the plugin builds the report.
    options = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    filters = options["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters)
    )
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(value):
            assert value < 10
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
