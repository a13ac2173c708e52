"""The README's quickstart snippet and CLI examples must actually run.

This file is the CI `docs` check: the python block executes, and every
`python -m repro.scenarios …` line in a bash block must parse against
the real argument parser, name a real scenario, and use real spec
fields — so the README cannot drift from the CLI.
"""

import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def test_readme_quickstart_executes(capsys):
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert blocks, "README lost its python quickstart block"
    namespace: dict = {}
    exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)
    out = capsys.readouterr().out.strip().splitlines()
    # two predictions printed, LAN slower than the cluster
    t_cluster, t_lan = float(out[-2]), float(out[-1])
    assert 0 < t_cluster < t_lan


def test_readme_mentions_all_deliverable_paths():
    text = README.read_text()
    for path in ("DESIGN.md", "EXPERIMENTS.md", "benchmarks/", "examples/",
                 "tests/"):
        assert path in text


def test_docs_references_resolve_both_ways():
    """Every `docs/<name>.md` referenced from README/EXPERIMENTS/docs
    exists on disk, and every guide that ships is reachable from the
    README — a renamed or orphaned workflow guide fails the docs job."""
    root = README.parent
    sources = [README, root / "EXPERIMENTS.md"] + \
        sorted((root / "docs").glob("*.md"))
    referenced = set()
    for source in sources:
        referenced.update(re.findall(r"docs/([\w-]+\.md)", source.read_text()))
    assert referenced, "no docs references found anywhere"
    for name in sorted(referenced):
        assert (root / "docs" / name).is_file(), f"dangling link: docs/{name}"
    shipped = {p.name for p in (root / "docs").glob("*.md")}
    readme_refs = set(re.findall(r"docs/([\w-]+\.md)", README.read_text()))
    assert shipped <= readme_refs, \
        f"guides unreachable from README: {sorted(shipped - readme_refs)}"
    assert "fault-grid.md" in readme_refs


def _readme_cli_lines(module="repro.scenarios", source=README):
    """`python -m <module> …` commands from the bash blocks of
    ``source`` (the README by default), with backslash continuations
    joined, comments and env-var prefixes stripped."""
    blocks = re.findall(r"```bash\n(.*?)```", source.read_text(), re.DOTALL)
    lines, buf = [], ""
    for block in blocks:
        for raw in block.splitlines():
            line = (buf + " " + raw.strip()).strip() if buf else raw.strip()
            buf = ""
            if line.endswith("\\"):
                buf = line[:-1].strip()
                continue
            line = line.split("#", 1)[0].strip()
            if line.startswith("PYTHONPATH=src "):
                line = line[len("PYTHONPATH=src "):]
            if line.endswith(" &"):
                line = line[:-2]
            if line.startswith(f"python -m {module}"):
                lines.append(line)
    return lines


def test_readme_cli_examples_stay_runnable(capsys):
    """Every scenarios-CLI example parses, names a real scenario, and
    uses real spec fields; the cheap ones execute for real."""
    from repro.scenarios import get_scenario
    from repro.scenarios.cli import _parse_sets, build_parser, main

    lines = _readme_cli_lines()
    assert lines, "README lost its scenarios-CLI examples"
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[3:]  # drop `python -m repro.scenarios`
        args = parser.parse_args(argv)  # SystemExit(2) = stale example
        if args.command in ("run", "sweep"):
            entry = get_scenario(args.name)  # KeyError = stale name
            for path, values in _parse_sets(
                getattr(args, "set", None) or []
            ).items():
                entry.base.with_override(path, values[0])  # KeyError = field
        if args.command in ("list", "show"):
            assert main(argv) == 0
            capsys.readouterr()


@pytest.mark.parametrize("doc", ["README.md", "docs/serving.md",
                                 "EXPERIMENTS.md"])
def test_readme_serve_examples_stay_parseable(doc):
    """Every serve-CLI example in the README and the serving guides
    parses against the real parser, and a `query` example builds its
    query exactly as the CLI would — so every --set path names a real
    query field."""
    from repro.serve.cli import _build_query, build_parser

    lines = _readme_cli_lines(module="repro.serve",
                              source=README.parent / doc)
    assert lines, f"{doc} lost its serve-CLI examples"
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[3:]  # drop `python -m repro.serve`
        args = parser.parse_args(argv)  # SystemExit(2) = stale example
        if args.command == "query":
            _build_query(args)  # _UsageError = stale --set path


def test_readme_fleet_examples_stay_parseable():
    """Every fleet-CLI example parses against the real parser; `run`
    examples name a real scenario and real spec fields."""
    from repro.fleet.cli import build_parser
    from repro.params import parse_grid_sets
    from repro.scenarios import get_scenario

    lines = _readme_cli_lines(module="repro.fleet")
    assert lines, "README lost its fleet-CLI examples"
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[3:]  # drop `python -m repro.fleet`
        args = parser.parse_args(argv)  # SystemExit(2) = stale example
        if args.command == "run":
            entry = get_scenario(args.name)  # KeyError = stale name
            for path, values in parse_grid_sets(
                getattr(args, "set", None) or []
            ).items():
                entry.base.with_override(path, values[0])  # KeyError
