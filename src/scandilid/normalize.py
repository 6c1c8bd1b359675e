"""Deterministic text canonicalization applied before featurization.

Text is lowercased, then URLs, email addresses and number tokens, which
carry no signal about which Scandinavian language a sentence is written
in, are collapsed into atomic placeholder tokens. The exact pattern
definitions are published below as ``REGEX_FIXTURES`` so behaviour is
pinned bit-exactly.

Pattern definitions:

* URL: a token starting with ``http://``, ``https://`` or ``www.``
  (case-insensitive), extending to the next whitespace.
* email: ASCII ``local@domain.tld`` with ``._%+-`` allowed in the local
  part; trailing punctuation after the TLD is kept. An address directly
  after a word character, a period or ``⟩`` is left alone.
* number: a maximal run of digits, optionally sign-prefixed and
  optionally grouped by single spaces, periods or commas
  (``1 234,5`` is one number). Digits attached to letters, underscores
  or hyphens (``b52``, ``b-52``) are left alone: placeholders replace
  standalone tokens, never word-internal characters.

``normalize_text`` is idempotent:

* Lowercasing runs first, because it can create a match: the Kelvin
  sign ``K`` lowercases to an ASCII ``k`` that the email pattern
  accepts, and ``İ`` to ``i`` plus a combining dot, which is no word
  character, so a digit after it stands alone.
* Replacement is ordered URL, mail, number, so an address inside a URL
  is consumed by the URL pattern first.
* Emails and numbers end in a word character and their placeholders
  in ``⟩``, which the email pattern treats as one, so an address the
  first pass left glued to a match stays glued: ``a@b.no5c@d.no`` keeps
  ``5c@d.no``, and ``٣.@a.no`` (an Arabic-Indic digit, replaced after
  the email pass) keeps ``.@a.no``.
* Placeholders are lowercase and contain no digits, ``@`` or scheme
  prefix, so no pattern re-matches them.

Most sentences hold nothing to replace, so after lowercasing three
substring tests, for ``@``, ``://`` and ``www.``, and one search for a
digit decide whether the three patterns run at all. Every mail match
contains ``@`` and every number a digit. Every URL match contains
``://`` or ``www.``: the URL pattern is case-insensitive, but the text
is already lowercased, and no character lowercasing leaves, other than
``w`` itself, matches ``w`` under the flag. Only its scheme letters vary,
``s`` also matching ``ſ`` (U+017F), and ``httpſ://x``, a URL, holds
``://`` all the same.
"""

from __future__ import annotations

import re

URL_PLACEHOLDER = "⟨url⟩"
MAIL_PLACEHOLDER = "⟨mail⟩"
NUM_PLACEHOLDER = "⟨num⟩"

_URL_RE = re.compile(r"(?<![\w.])(?:https?://|www\.)\S+", re.IGNORECASE)
_MAIL_RE = re.compile(r"(?<![\w.⟩])[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_NUM_RE = re.compile(r"(?<![\w-])[+-]?\d+(?:[ .,]\d+)*(?![\w-])")
_DIGIT_RE = re.compile(r"\d")


def normalize_text(text: str) -> str:
    """Lowercase, then replace URLs, email addresses and numbers with
    atomic placeholders. Idempotent."""
    text = text.lower()
    if "@" not in text and "://" not in text and "www." not in text and not _DIGIT_RE.search(text):
        return text
    text = _URL_RE.sub(URL_PLACEHOLDER, text)
    text = _MAIL_RE.sub(MAIL_PLACEHOLDER, text)
    return _NUM_RE.sub(NUM_PLACEHOLDER, text)


# Hand-enumerated behaviour fixtures for `normalize_text`. These pairs
# are the authoritative definition of the pattern edge cases; tests
# assert them verbatim.
REGEX_FIXTURES: tuple[tuple[str, str], ...] = (
    ("Skriv til ola@example.no i dag", "skriv til ⟨mail⟩ i dag"),
    ("Ingen treff her.", "ingen treff her."),
    ("Se https://a.no og 1 234,5 kr", "se ⟨url⟩ og ⟨num⟩ kr"),
    ("www.dr.dk er nede", "⟨url⟩ er nede"),
    ("Besøk HTTP://VG.NO/59?id=1 nå", "besøk ⟨url⟩ nå"),
    ("Ring 22 22 55 55 i morgen", "ring ⟨num⟩ i morgen"),
    ("Prisen er -3,5 kroner", "prisen er ⟨num⟩ kroner"),
    ("1. januar 2024", "⟨num⟩. januar ⟨num⟩"),
    ("B52 og B-52 røres ikke", "b52 og b-52 røres ikke"),
    ("post.master+tag@sub.domain.se svarte", "⟨mail⟩ svarte"),
    ("Sidene 5–10 er korte", "sidene ⟨num⟩–⟨num⟩ er korte"),
    ("Les (www.a.no) her", "les (⟨url⟩ her"),
    ("Møt opp kl. 18.30!", "møt opp kl. ⟨num⟩!"),
    ("ola@example.no sendte www.a.no og 7 kr", "⟨mail⟩ sendte ⟨url⟩ og ⟨num⟩ kr"),
)
