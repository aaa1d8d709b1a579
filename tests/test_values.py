"""The value classes' shared contract, and what importing the CLI loads."""
import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cfbounds.bounds import BoundSpec
from cfbounds.cf import CFExpansion, Convergent
from cfbounds.exact import QuadSurd, RadicalSum
from cfbounds.specparse import DecPrefix, NumberSpec
from cfbounds.verify import LemmaInstance, VerificationRecord

# (build, an equal value, an unequal value, repr, field to assign, bad
# constructions that raise ValueError); build and the equal value are made
# apart so that equality is not identity
CASES = {
    "QuadSurd": (
        lambda: QuadSurd.make(6, 4, 10, 28),
        lambda: QuadSurd(a=3, b=4, c=5, d=7),
        lambda: QuadSurd(3, 4, 5, 11),
        "(3+4*sqrt(7))/5",
        "a",
        [lambda: QuadSurd.make(1, 1, 1, 0), lambda: QuadSurd.make(1, 1, 1, -3)],
    ),
    "CFExpansion": (
        lambda: CFExpansion(1, (2,), (3, 4)),
        lambda: CFExpansion(a0=1, head=(2,), period=(3, 4)),
        lambda: CFExpansion(1, (2,)),
        "CFExpansion [1;2,(3,4)]",
        "head",
        [
            lambda: CFExpansion(1, (0,)),
            lambda: CFExpansion(1, (), ()),
            lambda: CFExpansion(1, (), (2, 0)),
            lambda: CFExpansion(1, (3, 1)),
        ],
    ),
    "Convergent": (
        lambda: Convergent(1, 2, 3),
        lambda: Convergent(n=1, p=2, q=3),
        lambda: Convergent(1, 2, 5),
        "Convergent(n=1, p=2, q=3)",
        "p",
        [],
    ),
    "DecPrefix": (
        lambda: DecPrefix(Fraction(1, 4), 2),
        lambda: DecPrefix(value=Fraction(25, 100), places=2),
        lambda: DecPrefix(Fraction(1, 4), 3),
        "DecPrefix(value=Fraction(1, 4), places=2)",
        "places",
        [lambda: DecPrefix(Fraction(1, 3), 2), lambda: DecPrefix(Fraction(1, 14), 5)],
    ),
    "NumberSpec": (
        lambda: NumberSpec("rat:1/2", "rat", Fraction(1, 2)),
        lambda: NumberSpec(text="rat:1/2", kind="rat", parsed=Fraction(2, 4)),
        lambda: NumberSpec("rat:2/4", "rat", Fraction(1, 2)),
        "NumberSpec(text='rat:1/2', kind='rat', parsed=Fraction(1, 2))",
        "kind",
        [],
    ),
    "BoundSpec": (
        lambda: BoundSpec("refined_f", 2),
        lambda: BoundSpec(kind="refined_f", k=2),
        lambda: BoundSpec("nathanson", 2),
        "BoundSpec(kind='refined_f', k=2)",
        "k",
        [
            lambda: BoundSpec("nonsense"),
            lambda: BoundSpec("refined_f"),
            lambda: BoundSpec("nathanson", 0),
        ],
    ),
    "VerificationRecord": (
        lambda: VerificationRecord(4, 7, 9, -1, (None, None)),
        # the tail is not compared
        lambda: VerificationRecord(n=4, p=7, q=9, margin_sign=-1, _tail=("other",)),
        lambda: VerificationRecord(4, 7, 9, 1, (None, None)),
        "VerificationRecord(n=4, p=7, q=9, margin_sign=-1)",
        "margin_sign",
        [],
    ),
    "LemmaInstance": (
        lambda: LemmaInstance("L0_limit", 1, {"q": 2}),
        lambda: LemmaInstance(lemma_id="L0_limit", k=1, params={"q": 2}),
        lambda: LemmaInstance("L0_limit", 1),
        "LemmaInstance(lemma_id='L0_limit', k=1, params={'q': 2})",
        None,
        [lambda: LemmaInstance("nonsense", 1), lambda: LemmaInstance("R2", 2)],
    ),
    "RadicalSum": (
        lambda: RadicalSum(1, [(Fraction(3, 2), 8)]),
        lambda: RadicalSum(Fraction(2, 2), [(3, 2)]),
        lambda: RadicalSum(1, [(3, 3)]),
        "1 + 3*sqrt(2)",
        "den",
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_contract(name):
    build, same, other, text, attr, bad = CASES[name]
    x = build()
    assert type(x).__name__ == name
    assert x == same() and not x != same()
    assert x != other() and not x == other()
    assert x != "x" and x != object()
    assert repr(x) == text
    if attr is None:  # mutable: unhashable, fields assignable
        with pytest.raises(TypeError):
            hash(x)
        x.k = 5
        assert x.k == 5 and x != same()
        x.k = 1
    else:
        assert hash(x) == hash(same())
        for target in (attr, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, target, 0)
        with pytest.raises(AttributeError):
            delattr(x, attr)
        assert repr(x) == text
    for twin in (
        copy.copy(x),
        copy.deepcopy(x),
        *(pickle.loads(pickle.dumps(x, protocol)) for protocol in (2, pickle.HIGHEST_PROTOCOL)),
    ):
        assert type(twin) is type(x) and twin == x and repr(twin) == text
        if attr is not None:
            assert hash(twin) == hash(x)
            with pytest.raises(AttributeError):
                setattr(twin, attr, 0)
    for make in bad:
        with pytest.raises(ValueError):
            make()


def test_value_class_defaults():
    assert CFExpansion(3) == CFExpansion(3, (), None)
    assert BoundSpec("dirichlet").k is None
    assert LemmaInstance("L1_case1", 1).params == {}
    # each instance gets its own params dict
    a, b = LemmaInstance("L1_case1", 1), LemmaInstance("L1_case1", 1)
    a.params["q"] = 2
    assert b.params == {}


def test_copies_keep_a_records_tail():
    record = VerificationRecord(0, 1, 1, 1, (None, ("w",), "spec"))
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin._tail == record._tail


# the standard-library modules that cfbounds imports, directly or through them;
# __future__ is what `from __future__ import annotations` loads
STDLIB = "__future__ argparse csv io json fractions enum typing re math itertools"


def test_importing_the_cli_loads_only_cfbounds_past_the_stdlib_it_needs():
    # a fresh interpreter, isolated from the environment and user site
    script = (
        f"import sys\n"
        f"import {', '.join(STDLIB.split())}\n"
        f"before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(Path(__file__).parents[1] / 'src')!r})\n"
        f"import cfbounds.cli\n"
        f"print(' '.join(sorted(set(sys.modules) - before)))\n"
        f"print('dataclasses' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True
    ).stdout.split("\n")
    added = out[0].split()
    assert "cfbounds.cli" in added
    assert [m for m in added if m != "cfbounds" and not m.startswith("cfbounds.")] == []
    assert out[1] == "False"
