"""The README against the code: its Configuration section against the
config parser, and its Library example against the package."""

import dataclasses
import json
import re
from pathlib import Path

from nfgopt.bench import CONFIG_FIELDS, METHODS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_config_key():
    text = README.read_text()
    # every field of a method's config is named in its "Method parameters" row
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", text, flags=re.MULTILINE))
    assert set(rows) == set(METHODS)
    for name, method in METHODS.items():
        fields = {f.name for f in dataclasses.fields(method.config)}
        assert fields <= set(re.findall(r"`(\w+)`", rows[name])), name
    # the jsonc example has exactly the top-level keys the parser accepts
    example = re.search(r"```jsonc\n(.*?)```", text, flags=re.DOTALL).group(1)
    document = json.loads(re.sub(r"//[^\n]*", "", example))
    assert set(document) == set(CONFIG_FIELDS)


def test_readme_library_snippet_runs():
    text = README.read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    namespace = {}
    exec(compile(snippet, f"{README}:Library", "exec"), namespace)
    assert len(namespace["traces"]) == namespace["cfg"].iterations
    assert namespace["eps"].shape == (8, namespace["grid"].steps)
