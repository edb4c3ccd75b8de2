"""`main` on mutated bundled configs: every input ends in an exit code.

Each case replaces one or two leaves of a bundled config with a value from
an adversarial pool, or deletes a mapping key, then runs `main` with
--dump-config, steady, simulate and compare (and sweep, on the sweep
config), with warnings turned into errors. Each bundled config's t_max is
cut to 200 steps first, so that simulate and compare on an unmutated
solver take milliseconds, not an honest run of minutes.
"""

import contextlib
import copy
import io
import re
import warnings
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindloc.cli as cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {
    path.name: yaml.safe_load(path.read_text(encoding="utf-8"))
    for path in sorted(CONFIG_DIR.glob("*.yaml"))
}
for data in CONFIGS.values():
    data["solver"]["t_max"] = 200 * data["solver"]["dt"]
ADVERSARIAL = [0, -1, 1e300, 1e-300, 1e308, 5e-324, 10**400, True, "1e999", ".nan", [], {}, None]
DELETE = object()
# text that only numpy's own errors carry
NUMPY_TEXT = re.compile(r"reshape|broadcast|ufunc|dtype|numpy|ndarray|operand|array of size")


def paths(node, path=()):
    """(path, is a leaf) of every node below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        below = path + (key,)
        container = isinstance(value, (dict, list)) and len(value) > 0
        yield below, not container
        if container:
            yield from paths(value, below)


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    data = copy.deepcopy(CONFIGS[name])
    for _ in range(draw(st.integers(1, 2))):
        every = list(paths(data))
        path, leaf = draw(st.sampled_from(every))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        choices = ([DELETE] if isinstance(parent, dict) else []) + (ADVERSARIAL if leaf else [])
        if not choices:
            continue
        value = draw(st.sampled_from(choices))
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return name, data


def run_main(args: list[str]) -> tuple[int, str]:
    """main's exit code and stderr, with every warning raised as an error."""
    err = io.StringIO()
    with (
        warnings.catch_warnings(),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("error")
        code = cli.main(args)
    return code, err.getvalue()


def with_solver(name, **solver):
    """A bundled config with these solver fields."""
    data = copy.deepcopy(CONFIGS[name])
    data["solver"].update(solver)
    return name, data


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=mutated_configs())
# step counts beyond the float range
@example(case=with_solver("two_qubit_resonant.yaml", dt=1e-300, t_max=1e10))
@example(case=with_solver("two_qubit_resonant.yaml", dt=5e-324))
def test_mutated_configs_end_in_an_exit_code(tmp_path_factory, case):
    name, data = case
    work = tmp_path_factory.mktemp("fuzz", numbered=True)
    path = work / "run.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    runs = [["steady", str(path), "--dump-config"]]
    runs += [[command, str(path), "--out", str(work)] for command in ("steady", "simulate", "compare")]
    if name == "sweep_t1.yaml":
        runs.append(["sweep", str(path), "--out", str(work)])
    for args in runs:
        code, err = run_main(args)
        assert code in (0, 1, 2), (args, code, err)
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("lindloc: error:"), err
            assert not NUMPY_TEXT.search(err), err
