import contextlib
import io
import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_blocks(title: str) -> list[str]:
    """The indented code blocks of the README section ``title``, dedented."""
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return [textwrap.dedent(block).strip("\n")
            for block in re.findall(r"(?:\n    .*)(?:\n(?:    .*)?)*", section)]


def test_library_use_prints_what_the_readme_shows():
    # the source and max|u0| columns are exact; the residual is rounding noise
    code, printed = _section_blocks("Library use")[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    got, want = out.getvalue().splitlines(), printed.splitlines()
    assert len(got) == len(want) == 2
    for line, shown in zip(got, want):
        source, residual, peak = line.rsplit(" ", 2)
        shown_source, _, shown_peak = shown.rsplit(" ", 2)
        assert (source, peak) == (shown_source, shown_peak)
        assert float(residual) <= 1e-10
