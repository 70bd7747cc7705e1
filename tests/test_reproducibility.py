"""Every random draw in the package comes from a seeded generator.

Parses each module under `thermofuse` and rejects the two ways a run could
stop being reproducible: a `default_rng()` call without a seed, and any use
of numpy's global generator.
"""

import ast
from pathlib import Path

import pytest

import thermofuse

PACKAGE = Path(thermofuse.__file__).parent
GLOBAL_RNG = {
    "seed", "rand", "randn", "random", "randint",
    "shuffle", "permutation", "normal", "uniform",
}


def unseeded_randomness(source: str) -> list[str]:
    """'line N: what' for every unseeded generator or global-generator use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "default_rng" and not node.args and not node.keywords:
                found.append((node.lineno, "default_rng() without a seed"))
        elif isinstance(node, ast.Attribute) and node.attr in GLOBAL_RNG:
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "random"
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id in ("np", "numpy")):
                found.append((node.lineno, f"numpy global generator .{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name in GLOBAL_RNG:
                    found.append((node.lineno, f"imports numpy.random.{alias.name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_module_draws_only_from_seeded_generators(path):
    assert unseeded_randomness(path.read_text(encoding="utf-8")) == []


def test_guard_sees_each_pattern():
    source = (
        "import numpy as np\n"
        "from numpy.random import shuffle\n"
        "a = np.random.default_rng()\n"
        "b = np.random.rand(3)\n"
        "np.random.seed(1)\n"
        "c = np.random.default_rng(7).random(3)\n"
        "d = rng.permutation(4)\n"
    )
    assert unseeded_randomness(source) == [
        "line 2: imports numpy.random.shuffle",
        "line 3: default_rng() without a seed",
        "line 4: numpy global generator .rand",
        "line 5: numpy global generator .seed",
    ]
