"""README.md's examples run, or parse, as written."""

import configparser
import re
import shlex
from pathlib import Path

import pytest

from softstep.cli import COMMANDS, SETTINGS, build_parser, build_spec

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def code_blocks(language=""):
    return re.findall(rf"```{language}\n(.*?)```", TEXT, re.S)


def test_library_use_example_runs(capsys):
    section = TEXT.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.startswith("metric\ttau\tvalue\tdefined")


def test_settings_table_matches_the_declarations():
    lines = [line for line in TEXT.splitlines()
             if line.startswith(("| setting |", "| `--"))]
    commands = [cell.strip() for cell in lines[0].split("|")[2:-1]]
    table = {}
    for line in lines[1:]:
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        key = re.match(r"`--([a-z-]+)`", cells[0]).group(1).replace("-", "_")
        table[key] = {name for name, mark in zip(commands, cells[1:])
                      if mark}
    assert table == {key: {name for name, command in COMMANDS.items()
                           if key in command.settings}
                     for key in SETTINGS}


# every `softstep <command> ...` line of a shell block, continuations joined
COMMAND_LINES = [line for block in code_blocks()
                 for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("softstep ") and "<" not in line]


def test_readme_has_command_examples():
    assert len(COMMAND_LINES) >= 4


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_example_builds_a_spec(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert build_spec(args).command == args.command


INI = code_blocks("ini")


def test_config_example_builds_a_spec_for_each_section(tmp_path):
    assert len(INI) == 1
    config = tmp_path / "example.ini"
    config.write_text(INI[0])
    reader = configparser.ConfigParser()
    reader.read_string(INI[0])
    assert reader.sections()
    for command in reader.sections():
        spec = build_spec(build_parser().parse_args(
            [command, "--config", str(config)]))
        assert spec.command == command
