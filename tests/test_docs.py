"""The README against the code: its Quick start table against ``bench
summarize`` of the golden records, its CLI block against the argument
parser, its Configuration section against the config parser and the
packaged config, its Library example against the package, and the
package root's exports against the README and the benchmark, its
Outputs section against the artifact headers, its buffer paragraph
against the package's buffer parameters, its Backends section against
the box table's fields, and every test node id it cites against the test
files. The README holds no timing in µs or ms, and Backends and
Determinism, stated as contracts, hold no percentage."""

import argparse
import ast
import dataclasses
import json
import re
from pathlib import Path

from nfgopt._kernels import BoxTable
from nfgopt.bench import METHODS, RECORD_FIELDS, TRACE_FIELDS, BenchConfig, load_config, parse_config
from nfgopt.cli import build_parser, main
from nfgopt.trajectory import TRAJECTORY_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"
NARROW_PASSAGE_GOLDEN = README.parent / "tests" / "golden" / "narrow_passage_records.csv"


def test_readme_quick_start_table_is_bench_summarize_of_the_golden_records(capsys):
    # byte for byte, the time column included
    quick_start = README.read_text().split("## Quick start", 1)[1]
    table = re.search(r"```\n(method .*?)```", quick_start, flags=re.DOTALL).group(1)
    assert main(["summarize", "--records", str(NARROW_PASSAGE_GOLDEN)]) == 0
    assert table == capsys.readouterr().out


def test_readme_cli_block_names_every_option():
    text = README.read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", text, flags=re.DOTALL).group(1)
    documented = {
        line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in block.splitlines() if line.strip()
    }
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == defined


def test_readme_lists_every_config_key():
    text = README.read_text()
    # a method's "Method parameters" row names exactly its config fields,
    # besides the values of weight_mode
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", text, flags=re.MULTILINE))
    assert set(rows) == set(METHODS)
    for name, method in METHODS.items():
        fields = {f.name for f in dataclasses.fields(method.config)}
        assert set(re.findall(r"`(\w+)`", rows[name])) - {"shifted", "raw"} == fields, name
    # the jsonc example has exactly the top-level keys the parser accepts
    example = re.search(r"```jsonc\n(.*?)```", text, flags=re.DOTALL).group(1)
    document = json.loads(re.sub(r"//[^\n]*", "", example))
    assert set(document) == {f.name for f in dataclasses.fields(BenchConfig)}


def test_readme_config_example_is_the_packaged_config():
    example = re.search(r"```jsonc\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1)
    document = json.loads(re.sub(r"//[^\n]*", "", example))
    assert parse_config(document) == load_config(str(README.parent / "configs" / "narrow_passage.json"))


def test_readme_library_snippet_runs():
    text = README.read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    namespace = {}
    exec(compile(snippet, f"{README}:Library", "exec"), namespace)
    assert len(namespace["traces"]) == namespace["cfg"].iterations
    assert namespace["eps"].shape == (8, namespace["grid"].steps)


def test_every_root_export_has_a_caller():
    # the package root exports only names the README shows in code or the
    # benchmark calls as nfgopt.<name>
    import nfgopt

    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), flags=re.DOTALL))
    perfbench = "\n".join(p.read_text() for p in sorted((README.parent / "perfbench").glob("*.py")))
    unused = [
        name
        for name in nfgopt.__all__
        if not re.search(rf"\b{name}\b", code) and f"nfgopt.{name}" not in perfbench
    ]
    assert unused == []


def test_readme_outputs_name_every_artifact_header():
    section = re.search(r"## Outputs\n(.*?)\n## ", README.read_text(), flags=re.DOTALL).group(1)
    headers = [cell for cell in re.findall(r"`([^`\n]+)`", section) if "," in cell]
    assert headers == [",".join(RECORD_FIELDS), ",".join(TRACE_FIELDS), ",".join(TRAJECTORY_HEADER)]


def test_readme_buffer_paragraph_names_every_buffer_parameter():
    # the Backends paragraph on buffers names functions as `name(..., kw=)`:
    # each named keyword is a parameter of every function of that name in
    # the package, and each work, out and normals_out parameter is named
    paragraph = re.search(r"\nThe buffers go down through .*?\n\n", README.read_text(), flags=re.DOTALL).group(0)
    named = {
        (function, keyword)
        for function, keywords in re.findall(r"`(?:\w+\.)*(\w+)\(\.\.\., ([^`]*)\)`", paragraph)
        for keyword in re.findall(r"(\w+)=", keywords)
    }
    parameters = {}
    for path in sorted((README.parent / "src" / "nfgopt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                parameters.setdefault(node.name, []).append(names)
    lacking = [
        (function, keyword)
        for function, keyword in sorted(named)
        if not all(keyword in names for names in parameters.get(function, [set()]))
    ]
    assert lacking == []
    buffers = {
        (function, name)
        for function, signatures in parameters.items()
        for names in signatures
        for name in names & {"work", "out", "normals_out"}
    }
    assert sorted(buffers - named) == []


def test_readme_backends_names_every_box_table_field():
    section = re.search(r"## Backends\n(.*?)\n## ", README.read_text(), flags=re.DOTALL).group(1)
    named = set(re.findall(r"`(\w+)`", section))
    assert [field for field in BoxTable._fields if field not in named] == []
    assert re.findall(r"\bc[01]\b", section) == []


def contract_sections(text):
    """The README's Backends and Determinism sections, by name."""
    return {
        name: re.search(rf"## {name}\n(.*?)(?:\n## |\Z)", text, flags=re.DOTALL).group(1)
        for name in ("Backends", "Determinism")
    }


def test_readme_cites_only_tests_that_exist():
    # each `tests/<file>.py::<Class>::<test>` node id resolves, by ast, to
    # a class or function of that file; Backends and Determinism cite some
    text = README.read_text()
    pattern = r"`((?:perfbench/)?tests/\w+\.py)((?:::\w+)+)`"
    for name, body in contract_sections(text).items():
        assert re.search(pattern, body), name
    unresolved = []
    for path, names in re.findall(pattern, text):
        file = README.parent / path
        scope = ast.parse(file.read_text()).body if file.is_file() else []
        for name in names.split("::")[1:]:
            found = [
                node
                for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            ]
            if not found:
                unresolved.append(path + names)
                break
            scope = found[0].body
    assert unresolved == []


def test_readme_states_no_timings_and_contracts_no_percentages():
    text = README.read_text()
    assert re.findall(r"\d\s*(?:µs|μs|us|ms)\b", text) == []
    for name, body in contract_sections(text).items():
        assert re.findall(r"\d\s*%", body) == [], name
