"""Templates: ordered sequences of word tokens and slots.

A slot stands for zero or more elements. Slot ids are plain integers while
learning; they are turned into uppercase letter names (A, B, ..., AA, ...)
only when a template is printed or serialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence, Union


@dataclass(frozen=True)
class Token:
    """A literal word token. Never empty, never contains whitespace."""

    text: str

    def __post_init__(self) -> None:
        if not self.text or any(c.isspace() for c in self.text):
            raise ValueError(f"invalid token text: {self.text!r}")


@dataclass(frozen=True)
class Slot:
    """A named hole that expands to zero or more elements."""

    uid: int


Element = Union[Token, Slot]


@dataclass(frozen=True)
class Template:
    """An immutable sequence of tokens and slots. May be empty."""

    elements: tuple[Element, ...] = ()

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return format_template(self)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickle the elements alone: the memos below, above all the string
        # hash, are valid only in the interpreter that computed them.
        return (Template, (self.elements,))

    @cached_property
    def _hash(self) -> int:
        # Templates are hashed constantly by the merge caches; memoise.
        return hash(self.elements)

    @cached_property
    def match_keys(self) -> tuple[str | None, ...]:
        """Per-element merge-matching keys: token text, or None for any slot.

        Two elements can be aligned iff their keys compare equal (token
        texts must match; every slot matches every slot).
        """
        return tuple(e.text if isinstance(e, Token) else None for e in self.elements)

    @cached_property
    def shape(self) -> Template:
        """This template with every slot as ``Slot(0)``, or ``self`` if that changes nothing.

        The merge distance reads only match keys, so it keys its memo on
        shapes: templates that differ only in slot ids share one score.
        """
        slot = Slot(0)
        elements = tuple(slot if isinstance(e, Slot) else e for e in self.elements)
        return self if elements == self.elements else Template(elements)

    @cached_property
    def slot_count(self) -> int:
        """Number of slot elements; distance bounds read it on every pair."""
        return self.match_keys.count(None)

    @cached_property
    def token_masks(self) -> dict[str, int]:
        """Per token text, the bit set of its positions among the tokens.

        Slots are skipped: bit ``i`` stands for the ``i``-th token. These are
        the match masks of a bit-parallel LCS over the token sequence.
        """
        masks: dict[str, int] = {}
        for i, text in enumerate(k for k in self.match_keys if k is not None):
            masks[text] = masks.get(text, 0) | 1 << i
        return masks

    @cached_property
    def canonical_key(self) -> tuple:
        """Structural key: slot ids normalised by order of first occurrence.

        Two templates are "the same shape" iff their canonical keys are
        equal; this is the equality used for dedup during learning and for
        fixpoint checks, where concrete slot ids are arbitrary.

        The key is flat, ``("t", text, "s", n, ...)``: a tag before each
        payload. It orders as the tuple of ``(tag, payload)`` pairs would,
        and compares faster in the learners' heap ties.
        """
        order: dict[int, int] = {}
        key: list = []
        for e in self.elements:
            if isinstance(e, Token):
                key += ("t", e.text)
            else:
                key += ("s", order.setdefault(e.uid, len(order)))
        return tuple(key)


def tokenize(text: str) -> Template:
    """Split ``text`` on whitespace runs into a slot-free template.

    Punctuation stays attached to its word. An empty or whitespace-only
    string yields the empty template.
    """
    return Template(tuple(Token(word) for word in text.split()))


def render(template: Template, assignment: Mapping[int, Sequence[Token]]) -> str:
    """Fill every slot of ``template`` from ``assignment`` and join with spaces.

    Each slot id must map to one (possibly empty) sequence of tokens; an
    empty sequence contributes nothing and no extra spaces.

    Raises:
        KeyError: if a slot of the template has no assigned value; the
            message names the slot.
    """
    words: list[str] = []
    for element in template.elements:
        if isinstance(element, Token):
            words.append(element.text)
        else:
            if element.uid not in assignment:
                raise KeyError(f"no value assigned to slot {slot_label(element.uid)}")
            for token in assignment[element.uid]:
                words.append(token.text)
    return " ".join(words)


def token_count(template: Template) -> int:
    """Number of token (non-slot) elements."""
    return len(template) - template.slot_count


def slot_count(template: Template) -> int:
    """Number of slot elements."""
    return template.slot_count


def slot_ids(template: Template) -> tuple[int, ...]:
    """Slot ids in order of occurrence (duplicates preserved)."""
    return tuple(e.uid for e in template.elements if isinstance(e, Slot))


def slot_label(uid: int) -> str:
    """Spreadsheet-style name for a slot id: 0 -> A, 25 -> Z, 26 -> AA."""
    if uid < 0:
        raise ValueError(f"slot ids are non-negative, got {uid}")
    letters = []
    n = uid
    while True:
        n, rem = divmod(n, 26)
        letters.append(chr(ord("A") + rem))
        if n == 0:
            break
        n -= 1
    return "".join(reversed(letters))


def format_template(template: Template, ascii_slots: bool = False) -> str:
    """Debug notation: tokens verbatim, slots as ``⟨A⟩`` (or ``<A>``)."""
    left, right = ("<", ">") if ascii_slots else ("⟨", "⟩")
    parts = [
        e.text if isinstance(e, Token) else f"{left}{slot_label(e.uid)}{right}"
        for e in template.elements
    ]
    return " ".join(parts)


def element_key(element: Element) -> tuple:
    """Total-order key for an element; tokens sort before slots."""
    if isinstance(element, Token):
        return (0, element.text)
    return (1, element.uid)


def normalize_sentence(text: str) -> str:
    """Trim and collapse whitespace runs to single spaces."""
    return " ".join(text.split())
