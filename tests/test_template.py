import random

import pytest

from gramtree.template import (
    Slot,
    Template,
    Token,
    format_template,
    normalize_sentence,
    remap_new_slots,
    render,
    rewrite_slots,
    slot_count,
    slot_label,
    token_count,
    tokenize,
)

from conftest import random_template, run_python, template


def test_tokenize_splits_on_whitespace():
    assert tokenize("hello world") == Template((Token("hello"), Token("world")))


def test_tokenize_empty_string():
    assert tokenize("") == Template(())
    assert tokenize("   \t ") == Template(())


def test_tokenize_keeps_punctuation_attached():
    assert tokenize("hello, world!") == Template((Token("hello,"), Token("world!")))


def test_tokenize_sample_sentence_has_seven_tokens():
    assert len(tokenize("I like putting cheese on my pizza")) == 7


def test_render_fills_slot():
    t = template("hello", 1)
    assert render(t, {1: (Token("world"),)}) == "hello world"


def test_render_identity_without_slots():
    t = tokenize("just some words")
    assert render(t, {}) == "just some words"


def test_render_empty_value_leaves_no_double_space():
    t = template(0, 1, 2)
    out = render(t, {0: (Token("hello"),), 1: (), 2: (Token("alice"),)})
    assert out == "hello alice"
    assert "  " not in out


def test_render_missing_slot_names_it():
    t = template("hi", 3)
    with pytest.raises(KeyError, match="D"):
        render(t, {})


def test_counts():
    t = template("hello", 1)
    assert token_count(t) == 1 and slot_count(t) == 1
    assert token_count(Template()) == 0 and slot_count(Template()) == 0
    both_slots = template(2, 1)
    assert token_count(both_slots) == 0 and slot_count(both_slots) == 2


def test_counts_sum_to_length():
    t = template("a b", 0, "c", 1)
    assert token_count(t) + slot_count(t) == len(t)


def test_tokenize_render_round_trip():
    for text in ("one", "a b c", "x  y\tz"):
        t = tokenize(text)
        assert tokenize(render(t, {})) == t


def test_slot_labels():
    assert slot_label(0) == "A"
    assert slot_label(25) == "Z"
    assert slot_label(26) == "AA"
    assert slot_label(27) == "AB"
    assert slot_label(2 * 26) == "BA"


def test_format_template_notation():
    t = template("hi", 0)
    assert format_template(t) == "hi ⟨A⟩"
    assert format_template(t, ascii_slots=True) == "hi <A>"


def test_canonical_key_ignores_slot_ids():
    assert template("a", 5).canonical_key == template("a", 9).canonical_key
    assert template("a", 5).canonical_key != template("b", 5).canonical_key
    # repeated slots keep their sharing pattern
    assert template(3, "x", 3).canonical_key != template(3, "x", 4).canonical_key


def test_canonical_key_orders_as_the_nested_pair_key():
    # The flat key must sort and compare as the tuple of (tag, payload) pairs.
    def nested_key(t):
        order = {}
        return tuple(
            ("t", e.text) if isinstance(e, Token) else ("s", order.setdefault(e.uid, len(order)))
            for e in t.elements
        )

    rng = random.Random(83)
    templates = [random_template(rng, words=("a", "s", "t", "u"), max_len=8) for _ in range(3000)]
    flat = sorted(templates, key=lambda t: t.canonical_key)
    assert flat == sorted(templates, key=nested_key)
    for t, u in zip(flat, flat[1:]):
        assert (t.canonical_key == u.canonical_key) == (nested_key(t) == nested_key(u))


def test_token_validation():
    with pytest.raises(ValueError):
        Token("")
    with pytest.raises(ValueError):
        Token("two words")


def test_rewrite_slots_renames_only_mapped_slots():
    elements = template("a", 0, "b", 1, 0, 2).elements
    assert rewrite_slots(elements, {0: 5, 2: 1}) == template("a", 5, "b", 1, 5, 1).elements
    assert rewrite_slots(elements, {}) == elements
    assert rewrite_slots((), {0: 1}) == ()


def test_remap_new_slots_keeps_inherited_ids_and_numbers_the_rest_in_order():
    merged = template(4, "x", 0, 3, 7, 0, 3)
    sources = (template("x", 7), template(9, "y", 4))
    fresh = iter(range(20, 30))
    # 0 and 3 are new: each takes one fresh id, at its first occurrence.
    assert remap_new_slots(merged, sources, fresh) == template(4, "x", 20, 21, 7, 20, 21)
    # No id past the last new slot is taken.
    assert next(fresh) == 22


def test_remap_new_slots_takes_no_fresh_id_when_every_slot_is_inherited():
    merged = template("a", 1, "b", 2)
    fresh = iter(range(5, 10))
    assert remap_new_slots(merged, (template(1), template(2, "c")), fresh) == merged
    assert next(fresh) == 5


def test_normalize_sentence():
    assert normalize_sentence("  a   b \t c ") == "a b c"


def test_pickled_template_hashes_in_the_loading_interpreter():
    # String hashes differ between interpreters, so a pickled template must
    # not carry the hash memo of the one that wrote it.
    dump = (
        "import pickle, sys; from gramtree.template import tokenize; "
        "t = tokenize('hello world'); hash(t); sys.stdout.write(pickle.dumps(t).hex())"
    )
    load = (
        "import pickle, sys; from gramtree.template import tokenize; "
        "t = pickle.loads(bytes.fromhex(sys.stdin.read())); fresh = tokenize('hello world'); "
        "print(t == fresh, t in {fresh}, fresh in {t: 1})"
    )
    pickled = run_python(dump, PYTHONHASHSEED="1")
    assert run_python(load, stdin=pickled, PYTHONHASHSEED="2").split() == ["True", "True", "True"]
