"""The README's CLI tour runs as written."""

import re
import shlex
from pathlib import Path

from otplab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_commands():
    # Argument lists of the `otplab ...` lines in the bash block under
    # "## CLI tour", each with the file its stdout goes to, or None.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI tour\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if not words or words[0] != "otplab":
            continue
        out = None
        if len(words) > 2 and words[-2] == ">":
            words, out = words[:-2], words[-1]
        commands.append((words[1:], out))
    return commands


def test_cli_tour_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = tour_commands()
    assert len(commands) >= 18
    for argv, out in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        if out is not None:
            Path(out).write_text(captured.out, encoding="utf-8")
