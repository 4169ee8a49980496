import contextlib
import io
import re
import shlex
import textwrap
from pathlib import Path

from wg4.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_blocks(title: str) -> list[str]:
    """The indented code blocks of the README section ``title``, dedented."""
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return [textwrap.dedent(block).strip("\n")
            for block in re.findall(r"(?:\n    .*)(?:\n(?:    .*)?)*", section)]


def _commands(block: str) -> list[tuple[str, str]]:
    """Each ``$ command`` line of a block, with the lines shown after it."""
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    return [(command, "\n".join(shown)) for command, shown in steps]


def _masked(text: str) -> tuple[str, list[float]]:
    """``text`` with each printed residual masked, and those residuals."""
    residuals = [float(r) for r in re.findall(r"residual=(\S+)", text)]
    return re.sub(r"residual=\S+", "residual=*", text), residuals


def test_commands_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # tables and errors are exact; a summary line's residual is rounding noise
    monkeypatch.chdir(tmp_path)
    runs = 0
    for block in _section_blocks("Commands"):
        for command, shown in _commands(block):
            program, *args = shlex.split(command)
            if program == "cat":  # the file the next command reads
                (tmp_path / args[0]).write_text(shown + "\n")
                continue
            assert program == "wg4"
            code = main(args)
            out, err = capsys.readouterr()
            runs += 1
            if shown.startswith("error: "):
                assert (code, out, err) == (2, "", shown + "\n")
                continue
            assert (code, err) == (0, "")
            got, residuals = _masked(out)
            want, _ = _masked(shown + "\n" if shown else "")
            assert got == want
            assert all(residual <= 1e-10 for residual in residuals)
    assert runs == 5


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
