"""Each model states its letters once, and the engine derives its table.

``letter_rows()`` is the only statement of a model's letters. The sampler
and the oracle walk it directly; the expectation engine runs over the
``(start, steps)`` table that ``expectation._letter_source`` derives from
it. So an error in the rows shows up in all three, and an error in the
derivation as a disagreement with the oracle and with the hand tables of
``reference.hand_letter_source``, which the derived table must equal entry
for entry. The ``ast`` checks parse the source and never run it:
``models.py`` defines no ``letter_source``, and neither the oracle nor the
sampler names the engine's table.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from reference import float_twin, hand_letter_source
from subseqlab import IIDModel, MarkovModel
from subseqlab.expectation import _letter_source

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subseqlab"
TABLES = {"letter_source", "_letter_source"}


def names(node) -> set[str]:
    """Every variable, attribute and defined function name under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.FunctionDef):
            found.add(n.name)
    return found


def source_names(module: str) -> set[str]:
    return names(ast.parse((PACKAGE / module).read_text()))


def test_the_check_sees_names_and_attributes():
    tree = ast.parse(
        "class M:\n    def letter_source(self):\n        return self.letter_rows()\n"
        "_letter_source(m)\n# letter_rows\nx = 'letter_rows'\n"
    )
    assert {"letter_source", "letter_rows", "_letter_source"} <= names(tree)
    assert names(tree.body[0].body[0].body[0]) == {"self", "letter_rows"}
    assert "letter_rows" not in names(tree.body[2])


def test_the_oracle_never_reads_the_letter_source():
    assert not TABLES & source_names("oracle.py")


def test_the_sampler_never_reads_the_letter_source():
    assert not TABLES & source_names("montecarlo.py")


def test_models_state_their_letters_once():
    assert not TABLES & source_names("models.py")


# Exact, float, mixed and boundary chains (int probabilities included), and
# IID models of d = 1, 2, 3 and 26 letters, exact and float; float uniform
# d = 26 sums to 0.9999999999999996.
MODELS = [
    pytest.param(MarkovModel(Fraction(7, 10), Fraction(3, 10)), id="7/10,3/10"),
    pytest.param(MarkovModel(0.7, 0.3), id="0.7,0.3"),
    pytest.param(MarkovModel(Fraction(1, 2), 0.25), id="1/2,0.25"),
    pytest.param(MarkovModel(0.5, Fraction(1, 4)), id="0.5,1/4"),
    pytest.param(MarkovModel(0, 1), id="0,1"),
    pytest.param(MarkovModel(1, Fraction(1, 2)), id="1,1/2"),
    pytest.param(MarkovModel(Fraction(1, 2), 0), id="1/2,0"),
    pytest.param(MarkovModel(0, 0), id="0,0"),
    pytest.param(MarkovModel(1, 1), id="1,1"),
    pytest.param(MarkovModel(1.0, 0.5), id="1.0,0.5"),
    pytest.param(IIDModel((1,)), id="iid-1-int"),
    pytest.param(IIDModel((1.0,)), id="iid-1-float"),
    pytest.param(IIDModel((0, 1)), id="iid-0,1"),
    pytest.param(IIDModel.binary(Fraction(3, 10)), id="iid-3/10"),
    pytest.param(IIDModel.binary(0.3), id="iid-0.3"),
    pytest.param(IIDModel((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
                 id="iid-1/6,1/3,1/2"),
    pytest.param(IIDModel((0.2, 0.3, 0.5)), id="iid-0.2,0.3,0.5"),
    *(pytest.param(IIDModel.uniform(d), id=f"iid-uniform-{d}") for d in (1, 2, 3, 26)),
    *(pytest.param(float_twin(IIDModel.uniform(d)), id=f"iid-uniform-{d}-float")
      for d in (1, 2, 3, 26)),
]


def typed(table):
    return [[[(type(x), x) for x in row] for row in step] for step in table]


def assert_derived_is_the_hand_table(model):
    start, steps = _letter_source(model)
    want_start, want_steps = hand_letter_source(model)
    assert typed(steps) == typed(want_steps)
    assert list(start) == list(want_start)


@pytest.mark.parametrize("model", MODELS)
def test_derived_letter_source_is_the_hand_table(model):
    """Steps equal entry for entry, types included; starts equal in value,
    and an exact model's start holds no float."""
    assert_derived_is_the_hand_table(model)
    if model.is_exact:
        assert not any(isinstance(p, float) for p in _letter_source(model)[0])


def test_derived_letter_source_is_the_hand_table_on_random_float_chains():
    """2,000 seeded float chains, half their probabilities a boundary or a
    two-digit decimal; a float start sums to 1 only if ``1 - gamma + gamma``
    is exactly 1."""
    rng = random.Random(0)

    def draw():
        boundary = float(rng.random() < 0.5)
        return rng.choice([rng.random(), rng.random(), round(rng.random(), 2), boundary])

    checked = 0
    while checked < 2000:
        alpha, beta = draw(), draw()
        if (alpha, beta) != (1.0, 0.0):
            assert_derived_is_the_hand_table(MarkovModel(alpha, beta))
            checked += 1


@pytest.mark.parametrize("model", [m for m in MODELS if m.values[0].is_exact])
def test_the_phantom_letter_is_stationary(model):
    """``rows[0]`` is the law of every letter, not only the first: the start
    weighting the rows the letters lead to gives it back exactly, which is
    what lets the engine start from a phantom letter."""
    start, _ = _letter_source(model)
    rows, after = model.letter_rows()
    states = sorted(set(after))
    for c, want in enumerate(rows[0]):
        assert sum(p * rows[s][c] for p, s in zip(start, states)) == want
