"""Module layering of src/qmudsim, read from the source with ast.

The input rules sit below every module that uses them: counts, run sizes
and index arrays in `errors`, register sizes and lengths in `qcore`.  So the
channel modules need nothing from the search module, no module reaches into
another's private names, one function reads the register-size limit, and
one function reads the work bound and the batch sizes.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmudsim"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _imports(tree):
    """(module, name) per imported name: `from . import x` gives
    ("x", None), `from .x import y` gives ("x", "y")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module:
                    yield node.module, alias.name
                else:
                    yield alias.name, None


def test_every_module_parsed():
    assert {"cdma", "cli", "config", "errors", "mud", "qchannel", "qcore",
            "qsearch"} <= set(MODULES)


@pytest.mark.parametrize("module", ["cdma", "qchannel"])
def test_channel_modules_import_nothing_from_qsearch(module):
    assert "qsearch" not in {source for source, _ in
                             _imports(MODULES[module])}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_reads_another_modules_private_names(module):
    tree = MODULES[module]
    siblings = set()
    reads = []
    for source, name in _imports(tree):
        if name is None:
            siblings.add(source)
        elif _private(name):
            reads.append(f"from .{source} import {name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            reads.append(f"{node.value.id}.{node.attr}")
    assert reads == []


def _limit_reads(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "MAX_QUBITS"]


def test_one_function_reads_the_register_size_limit():
    outside = {module: tree for module, tree in MODULES.items()
               if module != "config"}
    readers = [f"{module}.{func.name}" for module, tree in outside.items()
               for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and _limit_reads(func)]
    assert readers == ["qcore.check_qubits"]
    # and no read outside a function
    check_qubits = next(func for func in ast.walk(MODULES["qcore"])
                        if isinstance(func, ast.FunctionDef)
                        and func.name == "check_qubits")
    assert (sum(len(_limit_reads(tree)) for tree in outside.values())
            == len(_limit_reads(check_qubits)))


def _run_size_reads(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in {"MAX_WORK", "MAX_BATCH", "BATCH_SCORES"}]


def test_one_function_reads_the_work_bound_and_batch_constants():
    outside = {module: tree for module, tree in MODULES.items()
               if module != "config"}
    readers = [f"{module}.{func.name}" for module, tree in outside.items()
               for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and _run_size_reads(func)]
    assert readers == ["errors.run_size"]
    # and no read outside a function
    run_size = next(func for func in ast.walk(MODULES["errors"])
                    if isinstance(func, ast.FunctionDef)
                    and func.name == "run_size")
    assert (sum(len(_run_size_reads(tree)) for tree in outside.values())
            == len(_run_size_reads(run_size)))


# Generator methods that draw, and those of them that only the channel
# model (fading gains and chip noise) calls.
RNG_DRAWS = {"rayleigh", "uniform", "standard_normal", "normal", "integers",
             "random", "choice", "multinomial", "permutation", "shuffle"}
CHANNEL_DRAWS = {"rayleigh", "uniform", "standard_normal"}


def _draw_reads(tree, names):
    """Reads of a draw method, called or bound (functools.partial); the
    `np.random` module is not a draw."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "np")]


def test_channel_and_noise_draws_live_in_cdma():
    readers = sorted(module for module, tree in MODULES.items()
                     if _draw_reads(tree, CHANNEL_DRAWS))
    assert readers == ["cdma"]


def test_mud_draws_no_frame_or_bit():
    # ber trials come from cdma.draw_trials; mud's one draw is the first
    # ranks of qmud_agreement
    mud = MODULES["mud"]
    drawers = [func.name for func in ast.walk(mud)
               if isinstance(func, ast.FunctionDef)
               and _draw_reads(func, RNG_DRAWS)]
    assert drawers == ["qmud_agreement"]
    assert len(_draw_reads(mud, RNG_DRAWS)) == 1
    frame_draws = {"sample_channel", "synthesize_received"}
    assert [node.attr for node in ast.walk(mud)
            if isinstance(node, ast.Attribute)
            and node.attr in frame_draws] == []
