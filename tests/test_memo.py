"""The memo contract of ``rings.memo`` and ``rings.derived``.

Both keep a value in its owner's ``derived_cache``: memo once per (owner,
what, key), derived once per (owner, key). On a miss they call
``compute(*args)`` with the arguments they were given, and any cached
value is a hit, a falsy one included.
"""

import pytest

from bowtie.rings import derived, memo


class Owner:
    """The least a memo owner needs: a ``derived_cache`` dict."""

    def __init__(self):
        self.derived_cache = {}


def _counter():
    calls = []

    def compute(*args):
        calls.append(args)
        return len(calls)

    return compute, calls


def test_memo_computes_once_per_owner_what_and_key():
    compute, calls = _counter()
    a, b = Owner(), Owner()
    firsts = [memo(a, "x", 1, compute), memo(a, "x", 2, compute),
              memo(a, "y", 1, compute), memo(b, "x", 1, compute)]
    assert firsts == [1, 2, 3, 4]
    assert [memo(a, "x", 1, compute), memo(a, "x", 2, compute),
            memo(a, "y", 1, compute), memo(b, "x", 1, compute)] == firsts
    assert len(calls) == 4
    assert a.derived_cache == {"x": {1: 1, 2: 2}, "y": {1: 3}}


def test_derived_computes_once_per_owner_and_key():
    compute, calls = _counter()
    a, b = Owner(), Owner()
    firsts = [derived(a, "x", compute), derived(a, "y", compute), derived(b, "x", compute)]
    assert firsts == [1, 2, 3]
    assert [derived(a, "x", compute), derived(a, "y", compute),
            derived(b, "x", compute)] == firsts
    assert len(calls) == 3


def test_memo_and_derived_pass_their_arguments_through():
    compute, calls = _counter()
    owner = Owner()
    memo(owner, "x", 0, compute, 1, "two", None)
    memo(owner, "x", 1, compute)
    derived(owner, "y", compute, (3,), 4)
    assert calls == [(1, "two", None), (), ((3,), 4)]
    assert memo(owner, "pair", 7, divmod, 7, 2) == (3, 1)
    assert derived(owner, "divmod", divmod, 9, 4) == (2, 1)
    # a hit reads the cache: arguments that differ are not looked at
    assert memo(owner, "pair", 7, divmod, 100, 3) == (3, 1)
    assert derived(owner, "divmod", divmod, 100, 3) == (2, 1)


@pytest.mark.parametrize("value", ["", 0, None, False], ids=repr)
def test_a_cached_falsy_value_is_a_hit(value):
    calls = []

    def compute(*args):
        calls.append(args)
        return value

    owner = Owner()
    for _ in range(3):
        got = memo(owner, "what", "key", compute, "arg")
        assert got == value and type(got) is type(value)
        got = derived(owner, "fact", compute)
        assert got == value and type(got) is type(value)
    assert calls == [("arg",), ()]
