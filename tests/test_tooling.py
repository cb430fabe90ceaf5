"""The benchmark still runs on the package as it stands, the README still
lists the run options, and the package source keeps its invariant style.

perfbench/tracer.py wraps package functions and suites by name; a renamed or
deleted one would only show when a traced benchmark round runs.  Every
report a benchmark command writes must keep the digest recorded in
perfbench/digests.json.  The README's list of config keys must be the keys
of cli.OPTIONS, in order.  Invariants in src/ raise InvariantViolation,
never through assert, which python -O strips; every module-level
constant in src/ is read somewhere in src/, and the full-table cap
DLOG_CAP only in characters.py; every top-level function and class is
read elsewhere in src/, exported, or wrapped by the tracer.  The field
kernels never reduce with numpy's %.  mpmath is imported in src/ only by the
unit-root fallback.  Every demo prints the bytes recorded in DEMO_DIGESTS.
"""

import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from digitsquares.cli import OPTIONS, main

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import tracer
from digitsquares.suites import SUITES
missing = [name for name in tracer.SUITE_NAMES if name not in SUITES]
assert not missing, missing
tracer.Tracer().install()
"""


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    import digitsquares

    missing = [name for name in digitsquares.__all__ if not hasattr(digitsquares, name)]
    assert not missing, missing
    assert len(set(digitsquares.__all__)) == len(digitsquares.__all__)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 17])
def test_benchmark_reports_match_digests(capsys, seed):
    workloads = _workloads()
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, seed):
            code = main(list(cmd))
            out = capsys.readouterr().out
            key = " ".join(cmd)
            assert code == 0, key
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[key], key


# stdout sha256 of each demos/*.py, recorded when energy_count still used
# discrete logs below the 2^20 table cap
DEMO_DIGESTS = {
    "01_field_tour.py": "ff8d1e4d8dfa124a90f98003749d9d799e78fee3f3b71b4a53888c164b64a2d8",
    "02_digit_boxes_and_square_counts.py":
        "34606b9850bfdcf115584d96f7d43b6180721120d87f223756450c6ce73284b3",
    "03_bound_gallery.py": "41f545c83b6055e6eb6d20a63ac24295b3dd2daeb79b4c67995767d64f1a4f29",
    "04_lemma_oracles.py": "a6f34efb89d69ac3d96dbae7a512dd7d98618d41fee8bdbe5b5b83f763f14afa",
    "05_energy_and_box_sums.py":
        "e8a470ffadfee55189ab0f76db299f60926c92c08ce2e45ca581bbbf41241406",
}


def test_every_demo_has_a_digest():
    assert sorted(path.name for path in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_matches_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]


def test_src_has_no_assert():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, found


def test_only_the_unit_root_fallback_imports_mpmath():
    """Every certified value comes from the integer kernel; mpmath is
    imported only by characters._unit_root, the fallback of the root guard."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {child: node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  for child in ast.walk(node) if child is not node}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                found.append((path.name, scopes.get(node)))
    assert found == [("characters.py", "_unit_root")]


def test_every_module_constant_is_used():
    defined, used = {}, set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    defined[target.id] = f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(where for name, where in defined.items() if name not in used)
    assert not unused, unused


def _names_read(node) -> set:
    """Every name node reads: loaded names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_top_level_def_is_used():
    """A top-level function or class of the package is read by another
    top-level statement of src/, exported, or wrapped by the tracer."""
    import digitsquares

    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    [layers] = [node.value for node in tracer.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    kept = set(digitsquares.__all__) | {key.split(".")[1] for key in ast.literal_eval(layers)}
    defined, reads = {}, []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[id(node)] = (node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
            reads.append((id(node), _names_read(node)))
    unused = sorted(where for key, (name, where) in defined.items() if name not in kept
                    and not any(name in names for other, names in reads if other != key))
    assert not unused, unused


def _modules_naming(name: str) -> set[str]:
    """The src modules that read, import or define name."""
    found = set()
    for path in sorted((ROOT / "src" / "digitsquares").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.FunctionDef) and node.name == name)
                    or (isinstance(node, ast.ImportFrom)
                        and any(alias.name == name for alias in node.names))):
                found.add(path.name)
    return found


def test_only_characters_reads_the_table_cap():
    assert _modules_naming("DLOG_CAP") == {"characters.py"}


def test_only_characters_names_the_quad_table():
    # digit boxes read eta through characters.eta_tensor, blocks of rows
    # through quad_char_coords: the table's index order stays in one module
    assert _modules_naming("quad_table") == {"characters.py"}


# kernels that reduce through fields._mod_p: numpy's % is several times
# slower on integer arrays than a floor division into scratch
MOD_FREE_KERNELS = {"fields.py": ["_mul_cm", "vec_norm", "vec_mul"],
                    "characters.py": ["_square_monic"],
                    "boxes.py": ["coords_blocks"]}


def test_kernels_never_use_mod_operator():
    found = []
    for module, names in MOD_FREE_KERNELS.items():
        path = ROOT / "src" / "digitsquares" / module
        defs = {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef)}
        assert set(names) <= set(defs), f"{module} lost one of {names}"
        for name in names:
            for node in ast.walk(defs[name]):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
                    found.append(f"{module}:{name}:{node.lineno}")
    assert not found, found


def test_readme_lists_every_config_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.search(r"Sweep configs are `key = value` lines\s*\(([^)]*)\)", readme)
    assert found, "README lost its sentence listing the config keys"
    assert re.findall(r"`([^`]+)`", found.group(1)) == list(OPTIONS)
