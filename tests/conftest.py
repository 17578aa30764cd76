import pathlib

import pytest

from deduce.grammar import load_ccg, load_cf, load_tag
from deduce.engine import fire
from deduce.systems import EvalContext, Rule, builtin_answers
from deduce.terms import VarSource

DATA = pathlib.Path(__file__).parent / "data"


def read(name: str) -> str:
    return (DATA / name).read_text()


def axiom_rules(*items) -> tuple:
    """One rule with no premise per item: the items a test system starts
    from, in order."""
    return tuple(Rule(f"axiom{k}", [], item) for k, item in enumerate(items, 1))


def goals(system, grammar, w) -> list:
    """The consequents of ``system``'s goal rule on ``grammar`` and the
    input ``w``: the goal items of a parse."""
    ctx = EvalContext(grammar, w, VarSource())
    return fire([system.goal], lambda p, args: builtin_answers(p.builtin, args, ctx), ctx.source)


@pytest.fixture(scope="session")
def toy_grammar():
    return load_cf(read("toy.cf"))


@pytest.fixture(scope="session")
def cnf_ab_grammar():
    return load_cf(read("cnf_ab.cf"))


@pytest.fixture(scope="session")
def abn_grammar():
    return load_cf(read("abn.dcg"))


@pytest.fixture(scope="session")
def ambiguous_grammar():
    return load_cf(read("ambiguous.cf"))


@pytest.fixture(scope="session")
def ccg_lexicon():
    return load_ccg(read("lexicon.ccg"))


@pytest.fixture(scope="session")
def trip_grammar():
    return load_tag(read("trip.tag"))


@pytest.fixture(scope="session")
def counting_grammar():
    return load_tag(read("counting.tag"))
