import ast
import importlib
import pkgutil
import re
from pathlib import Path

import yaml

import lindloc
from lindloc import linalg
from lindloc.cli import RunConfig, load_config, make_generator

README = Path(__file__).resolve().parent.parent / "README.md"
CONFIGS = README.parent / "configs"


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


# a dotted name in a backticked span: identifiers joined by dots, from the
# first that no identifier or dot precedes
DOTTED = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILE_SUFFIXES = {"csv", "txt", "json", "yaml", "yml", "md", "py", "toml"}


def lindloc_roots() -> dict[str, list]:
    """What a dotted name's first part can stand for: lindloc, each of its
    modules, and each name that a module defines at its top level."""
    roots = {"lindloc": [lindloc]}
    for info in pkgutil.iter_modules(lindloc.__path__):
        module = importlib.import_module(f"lindloc.{info.name}")
        roots.setdefault(info.name, []).append(module)
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            for name in targets:
                roots.setdefault(name, []).append(getattr(module, name))
    return roots


def resolves(obj, path: list[str]) -> bool:
    """Whether the attributes of path lead on from obj; a dataclass field
    without a default, which is no class attribute, ends a path."""
    head, *rest = path
    if hasattr(obj, head):
        return not rest or resolves(getattr(obj, head), rest)
    return not rest and head in getattr(obj, "__dataclass_fields__", {})


def test_dotted_names_resolve():
    """Every backticked dotted name whose first part is lindloc, a lindloc
    module or a name that one defines, such as `Generator.terms` or
    `linalg.run_length`, resolves. File names and config paths start with
    no such name and are skipped."""
    roots = lindloc_roots()
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    names = {
        name
        for span in spans
        for name in DOTTED.findall(span)
        if name.split(".")[0] in roots and name.rsplit(".", 1)[1] not in FILE_SUFFIXES
    }
    assert len(names) >= 10
    unresolved = [
        name
        for name in sorted(names)
        if not any(resolves(obj, name.split(".")[1:]) for obj in roots[name.split(".")[0]])
    ]
    assert unresolved == []


def test_stated_stack_budget_is_the_constant():
    """Every size in KiB that the README states is linalg.STACK_BYTES, and
    the points of the resonant 3-chain that it says a sweep solves at a time
    are those run_length gives that chain (configs/qubit_chain3.yaml)."""
    text = README.read_text(encoding="utf-8")
    kib = re.findall(r"(\d+) KiB", text)
    assert len(kib) >= 2 and {int(k) for k in kib} == {linalg.STACK_BYTES // 1024}
    ((triplets, points),) = re.findall(
        r"resonant\s+3-chain \((\d+) triplets\) is solved (\d+) points\s+at a time", text
    )
    gen = make_generator(load_config(CONFIGS / "qubit_chain3.yaml"))
    assert int(triplets) == gen.structure.product.rows.size
    assert int(points) == linalg.run_length(gen.structure.point_bytes)
