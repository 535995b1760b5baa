"""Templates: ordered sequences of word tokens and slots.

A slot stands for zero or more elements. Slot ids are plain integers while
learning; they are turned into uppercase letter names (A, B, ..., AA, ...)
only when a template is printed or serialised. Every renaming of slot ids,
by merges, slot merging and collapse, goes through :func:`rewrite_slots`.

A template keeps only the keys that identify it: its hash, match keys and
canonical key. What only scoring reads, slot-blind shapes and token bit
masks, the merge queue keeps (``merge.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union


@dataclass(frozen=True)
class Token:
    """A literal word token: a ``str``, never empty, never with whitespace."""

    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"token text must be a str, not {type(self.text).__name__}")
        # str.split() splits on exactly the characters str.isspace() accepts.
        if self.text.split() != [self.text]:
            raise ValueError(f"invalid token text: {self.text!r}")


@dataclass(frozen=True)
class Slot:
    """A named hole that expands to zero or more elements."""

    uid: int


Element = Union[Token, Slot]


class _DerivedKeys:
    """Slots for the keys a ``Template`` derives from its elements.

    They are its identity keys: the hash memo, the merge-matching keys and
    the canonical key. A slot is filled on first read, since ``__getattr__``
    runs only while it is empty. So no template has a ``__dict__``.
    """

    __slots__ = ("_hash", "match_keys", "canonical_key")
    _hash: int
    match_keys: tuple[str | None, ...]
    canonical_key: tuple

    def __getattr__(self, name: str):
        try:
            value = _DERIVE[name](self)
        except KeyError:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}") from None
        object.__setattr__(self, name, value)
        return value


@dataclass(frozen=True, slots=True)
class Template(_DerivedKeys):
    """An immutable sequence of tokens and slots. May be empty."""

    elements: tuple[Element, ...] = ()

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return format_template(self)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickle the elements alone: the derived keys, above all the string
        # hash, are valid only in the interpreter that computed them.
        return (Template, (self.elements,))


def _match_keys(template: Template) -> tuple[str | None, ...]:
    """Per-element merge-matching keys: token text, or None for any slot.

    Two elements can be aligned iff their keys compare equal (token
    texts must match; every slot matches every slot).
    """
    return tuple([e.text if isinstance(e, Token) else None for e in template.elements])


def _canonical_key(template: Template) -> tuple:
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
    for e in template.elements:
        if isinstance(e, Token):
            key += ("t", e.text)
        else:
            key += ("s", order.setdefault(e.uid, len(order)))
    return tuple(key)


# Templates are hashed constantly by the merge caches.
_DERIVE = {
    "_hash": lambda t: hash(t.elements),
    "match_keys": _match_keys,
    "canonical_key": _canonical_key,
}


def tokenize(text: str) -> Template:
    """Split ``text`` on whitespace runs into a slot-free template.

    Punctuation stays attached to its word. An empty or whitespace-only
    string yields the empty template.
    """
    return Template(tuple([Token(word) for word in text.split()]))


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
    return len(template) - slot_count(template)


def slot_count(template: Template) -> int:
    """Number of slot elements."""
    return template.match_keys.count(None)


def slot_ids(template: Template) -> tuple[int, ...]:
    """Slot ids in order of occurrence (duplicates preserved)."""
    return tuple([e.uid for e in template.elements if isinstance(e, Slot)])


def rewrite_slots(elements: Iterable[Element], mapping: Mapping[int, int]) -> tuple[Element, ...]:
    """``elements`` with each slot id that ``mapping`` holds renamed; tokens and other slots stay."""
    return tuple([Slot(mapping[e.uid]) if isinstance(e, Slot) and e.uid in mapping else e for e in elements])


def remap_new_slots(merged: Template, sources: Iterable[Template], fresh_ids: Iterator[int]) -> Template:
    """Re-id the slots of ``merged`` not inherited from ``sources``, to keep ids unique in a pool.

    Each new id maps to ``next(fresh_ids)``, in order of first occurrence.
    """
    inherited = {uid for t in sources for uid in slot_ids(t)}
    mapping = {uid: next(fresh_ids) for uid in dict.fromkeys(slot_ids(merged)) if uid not in inherited}
    return Template(rewrite_slots(merged.elements, mapping))


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
    """Trim and collapse whitespace runs to single spaces; a ``TypeError`` unless ``text`` is a ``str``."""
    if not isinstance(text, str):
        raise TypeError(f"a sentence must be a str, not {type(text).__name__}")
    return " ".join(text.split())
