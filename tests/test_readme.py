"""README.md is the manual; these tests keep what it says of the code true.

Every ``BENCH_<n>.json`` it cites exists, every backticked
``<module>.<name>`` of a bregprox module resolves, every subcommand and
long option of the command line appears with its default, both CSV
headers appear verbatim, and every pointer into the README from ``src/``
and ``tests/`` (``README "<label>"`` or ``(README, <label>)``) names one of
its headings or bold labels.  Each check is a function of the text it
reads, and each is also run on planted text that it must flag.
"""

import argparse
import importlib
import json
import re
from pathlib import Path

from bregprox import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bregprox"
README = (ROOT / "README.md").read_text()
MODULES = sorted(p.stem for p in SRC.glob("*.py")
                 if not p.stem.startswith("_"))
# backticked names that are no attribute: file names such as prox.py, and
# perfbench's per-layer metrics, such as solvers.iter_us.<variant>
FILE_NAME = re.compile(r"\w+\.py$")
METRICS = [m["name"] for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
REFERENCE = re.compile(r"(?<![\w.])(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))
POINTER = re.compile(r'README,? "([^"]+)"|\(README, ([^")]+)\)')


def prose(text):
    """``text`` without its fenced code blocks."""
    return re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)


def cited_bench_files(text):
    return set(re.findall(r"BENCH_\d+\.json", text))


def module_references(text):
    """Each backticked ``<module>.<name>`` of a bregprox module, past file
    names and perfbench metrics."""
    found = set()
    for span in re.findall(r"`([^`]+)`", prose(text)):
        for module, name in REFERENCE.findall(span):
            ref = f"{module}.{name}"
            if FILE_NAME.fullmatch(ref) or any(
                    m == ref or m.startswith(ref + ".") for m in METRICS):
                continue
            found.add((module, name))
    return found


def unresolved(references):
    return {(module, name) for module, name in references
            if not hasattr(importlib.import_module(f"bregprox.{module}"),
                           name)}


def labels(text):
    """The headings and bold labels (a trailing period dropped)."""
    body = prose(text)
    return set(re.findall(r"^#+ (.+?)\s*$", body, flags=re.M)) | {
        label.rstrip(".") for label in re.findall(r"\*\*([^*]+)\*\*", body)}


def pointers(source):
    """The labels that ``source`` points to in the README, read across
    line breaks and comment marks; a mention of the README in any other
    form is returned as None, since no label can be checked."""
    flat = re.sub(r"\s*\n\s*#?\s*", " ", source)
    found = [a or b for a, b in POINTER.findall(flat)]
    mentions = len(re.findall(r"\bREADME\b(?!\.md)", flat))
    return found + [None] * (mentions - len(found))


def usages(parser):
    """``bregprox <command>`` and ``[--option default]`` (``[--flag]`` for
    an option that takes no value) for every subcommand and long option."""
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    found = set()
    for command, subparser in sub.choices.items():
        found.add(f"bregprox {command}")
        for action in subparser._actions:
            option = max(action.option_strings, key=len)
            if option != "--help":
                found.add(f"[{option}]" if action.nargs == 0
                          else f"[{option} {action.default}]")
    return found


def test_cited_bench_files_exist():
    cited = cited_bench_files(README)
    assert cited
    assert {name for name in cited if not (ROOT / name).is_file()} == set()


def test_module_references_resolve():
    references = module_references(README)
    assert {m for m, _ in references} >= {"cli", "functions", "solvers"}
    assert unresolved(references) == set()


def test_every_subcommand_and_option_is_documented():
    missing = {u for u in usages(cli.build_parser()) if u not in README}
    assert not missing, f"README names no {missing}"


def test_csv_headers_appear_verbatim():
    assert cli.CSV_HEADER in README
    assert cli.SUMMARY_HEADER.rstrip("\n") in README


def test_pointers_into_the_readme_name_a_label():
    here = Path(__file__).resolve()
    found = {(path.name, label)
             for path in [*SRC.glob("*.py"), *here.parent.glob("*.py")]
             if path != here for label in pointers(path.read_text())}
    assert found
    assert {(name, label) for name, label in found
            if label not in labels(README)} == set()


def test_the_checks_see_a_planted_fault():
    text = ("# Top\n\n**Bold label.** text `solvers.run_solver`, "
            "`solvers.no_such_name`, `prox.py`, `solvers.iter_us`,\n"
            "`bregprox.functions` and BENCH_1.json.\n\n"
            "```sh\n# not a heading\n`cli.not_read`\n```\n")
    assert cited_bench_files(text) == {"BENCH_1.json"}
    assert module_references(text) == {("solvers", "run_solver"),
                                       ("solvers", "no_such_name")}
    assert unresolved(module_references(text)) == {
        ("solvers", "no_such_name")}
    assert labels(text) == {"Top", "Bold label"}
    assert pointers('x = 1  # see README "Top"\n'
                    '"""as the (README, Bold label) says; README\n'
                    '    "Bottom" and the README."""') == [
        "Top", "Bold label", "Bottom", None]
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    planted = sub.add_parser("planted")
    planted.add_argument("--seed", type=int, default=0)
    planted.add_argument("--fast", action="store_true")
    assert usages(parser) == {"bregprox planted", "[--seed 0]", "[--fast]"}
