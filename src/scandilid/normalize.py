"""Deterministic text canonicalization applied before featurization.

URLs, email addresses and number tokens carry no signal about which
Scandinavian language a sentence is written in, so they are collapsed
into atomic placeholder tokens. The exact pattern definitions are
published below as ``REGEX_FIXTURES`` so behaviour is pinned bit-exactly.

Pattern definitions:

* URL: a token starting with ``http://``, ``https://`` or ``www.``
  (case-insensitive), extending to the next whitespace.
* email: ASCII ``local@domain.tld`` with ``._%+-`` allowed in the local
  part; trailing punctuation after the TLD is kept.
* number: a maximal run of digits, optionally sign-prefixed and
  optionally grouped by single spaces, periods or commas
  (``1 234,5`` is one number). Digits attached to letters, underscores
  or hyphens (``B52``, ``B-52``) are left alone: placeholders replace
  standalone tokens, never word-internal characters.

Replacement is ordered URL, mail, number, so an address inside a URL is
consumed by the URL pattern first. Placeholders contain no digits, ``@``
or scheme prefix, hence a second pass never re-matches them and
``normalize_text``, the one normalization function, is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

URL_PLACEHOLDER = "⟨URL⟩"  # ⟨URL⟩
MAIL_PLACEHOLDER = "⟨mail⟩"  # ⟨mail⟩
NUM_PLACEHOLDER = "⟨num⟩"  # ⟨num⟩

_URL_RE = re.compile(r"(?<![\w.])(?:https?://|www\.)\S+", re.IGNORECASE)
_MAIL_RE = re.compile(r"(?<![\w.])[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_NUM_RE = re.compile(r"(?<![\w-])[+-]?\d+(?:[ .,]\d+)*(?![\w-])")


@dataclass(frozen=True)
class NormalizeConfig:
    """Which canonicalization steps to apply.

    All flags default to on, matching the training pipeline;
    :meth:`disabled` turns every step off.
    """

    replace_urls: bool = True
    replace_emails: bool = True
    replace_numbers: bool = True
    lowercase: bool = True

    @classmethod
    def disabled(cls) -> "NormalizeConfig":
        return cls(replace_urls=False, replace_emails=False, replace_numbers=False, lowercase=False)


def normalize_text(text: str, cfg: NormalizeConfig | None = None) -> str:
    """Replace URLs, email addresses and numbers with atomic placeholders,
    then lowercase; each step runs only if its ``cfg`` flag is set.

    Idempotent: the placeholders can never be re-matched by any of the
    three patterns, and lowercasing runs last (the lowercased placeholders
    are just as unmatchable as the originals).
    """
    cfg = cfg or NormalizeConfig()
    if cfg.replace_urls:
        text = _URL_RE.sub(URL_PLACEHOLDER, text)
    if cfg.replace_emails:
        text = _MAIL_RE.sub(MAIL_PLACEHOLDER, text)
    if cfg.replace_numbers:
        text = _NUM_RE.sub(NUM_PLACEHOLDER, text)
    if cfg.lowercase:
        text = text.lower()
    return text


# Hand-enumerated behaviour fixtures for `normalize_text` under
# `NormalizeConfig(lowercase=False)`. These pairs are the authoritative
# definition of the pattern edge cases; tests assert them verbatim.
REGEX_FIXTURES: tuple[tuple[str, str], ...] = (
    ("Skriv til ola@example.no i dag", "Skriv til ⟨mail⟩ i dag"),
    ("Ingen treff her.", "Ingen treff her."),
    ("Se https://a.no og 1 234,5 kr", "Se ⟨URL⟩ og ⟨num⟩ kr"),
    ("www.dr.dk er nede", "⟨URL⟩ er nede"),
    ("Besøk HTTP://VG.NO/59?id=1 nå", "Besøk ⟨URL⟩ nå"),
    ("Ring 22 22 55 55 i morgen", "Ring ⟨num⟩ i morgen"),
    ("Prisen er -3,5 kroner", "Prisen er ⟨num⟩ kroner"),
    ("1. januar 2024", "⟨num⟩. januar ⟨num⟩"),
    ("B52 og B-52 røres ikke", "B52 og B-52 røres ikke"),
    ("post.master+tag@sub.domain.se svarte", "⟨mail⟩ svarte"),
    ("Sidene 5–10 er korte", "Sidene ⟨num⟩–⟨num⟩ er korte"),
    ("Les (www.a.no) her", "Les (⟨URL⟩ her"),
    ("Møt opp kl. 18.30!", "Møt opp kl. ⟨num⟩!"),
    ("ola@example.no sendte www.a.no og 7 kr", "⟨mail⟩ sendte ⟨URL⟩ og ⟨num⟩ kr"),
)
