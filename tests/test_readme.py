import re
from pathlib import Path

import yaml

from lindloc.cli import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of the README section headed `## title`, up to the next."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def blocks(title: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", section(title), re.DOTALL)


def test_library_quick_start_runs():
    """The library quick start's python blocks run in turn, in one namespace."""
    code = blocks("Quick start (library)", "python")
    assert len(code) == 2
    namespace = {}
    for block in code:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].entropy_production >= 0.0
    assert len(namespace["reports"]) == len(namespace["traj"])


def test_config_schema_example_loads():
    """The schema example loads, with its optional grouping_tol given."""
    (schema,) = blocks("Config schema", "yaml")
    assert "    # grouping_tol: 1e-9" in schema
    data = yaml.safe_load(schema.replace("# grouping_tol: 1e-9", "grouping_tol: 1e-9"))
    config = RunConfig.from_dict(data)
    assert config.spec.grouping_tol == 1e-9
    assert config.sweep.values == [0.5, 1.0, 2.0]
