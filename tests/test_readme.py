"""README's Python examples run as written and give the values they state.

The ```python blocks run in order in one namespace, as a reader pasting
them into one session would; each top-level expression's value is kept
under its source text, so the checks below name the README's own lines.
"""

import ast
import math
import re
from pathlib import Path

from reachavoid import GameKind

README = Path(__file__).resolve().parents[1] / "README.md"


def run_readme_examples() -> dict[str, object]:
    """Values of the README blocks' top-level expressions, by source text."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict[str, object] = {}
    values: dict[str, object] = {}
    for block in blocks:
        for statement in ast.parse(block).body:
            if isinstance(statement, ast.Expr):
                source = ast.get_source_segment(block, statement)
                values[source] = eval(source, namespace)
            else:
                module = ast.Module(body=[statement], type_ignores=[])
                exec(compile(module, str(README), "exec"), namespace)
    return values


def test_readme_examples_give_the_stated_values():
    values = run_readme_examples()
    point = values["result.point"]
    assert len(point) == 3
    assert all(math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)
               for got, want in zip(point, (0.0, 0.0, 7 / 3)))
    assert math.isclose(values["result.value"], 7 / 3,
                        rel_tol=0.0, abs_tol=1e-12)
    assert values["classify_kind((0,), evader, [pursuer])"] is GameKind.PURSUIT_WINS
    assert values["trace.summary"] == {
        "captured": 1, "reached_goal": 0, "escaped": 0, "survived": 0}
