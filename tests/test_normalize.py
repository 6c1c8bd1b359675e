import random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scandilid.normalize import (
    _MAIL_RE,
    _NUM_RE,
    _URL_RE,
    MAIL_PLACEHOLDER,
    NUM_PLACEHOLDER,
    REGEX_FIXTURES,
    URL_PLACEHOLDER,
    normalize_text,
)

PLACEHOLDERS = (URL_PLACEHOLDER, MAIL_PLACEHOLDER, NUM_PLACEHOLDER)


def test_regex_fixtures_verbatim():
    for text, expected in REGEX_FIXTURES:
        assert normalize_text(text) == expected, text


def test_email_replacement():
    assert normalize_text("Skriv til ola@example.no i dag") == "skriv til ⟨mail⟩ i dag"


def test_identity_when_nothing_matches():
    assert normalize_text("Ingen treff her.") == "ingen treff her."


def test_url_and_grouped_number():
    # Space/comma-grouped digits collapse to a single number placeholder.
    assert normalize_text("Se https://a.no og 1 234,5 kr") == "se ⟨url⟩ og ⟨num⟩ kr"


def _fuzz_corpus(n, seed=1234):
    """Pseudo-random sentences salted with URLs, emails and numbers."""
    rng = random.Random(seed)
    words = ["og", "det", "Hôtel", "B52", "kr", "på", "ikkje", "sæt", "HØyre", "x_1", "--", "(", ")"]
    specials = [
        "www.a.no", "https://b.dk/x?id=9", "ola@a.no", "12", "3,14", "1 234,5",
        "-7", "kl.18", "7.", "a@b", "http://", "⟨num⟩", "w.ww", "5–10", "+45",
    ]
    corpus = []
    for _ in range(n):
        k = rng.randint(1, 12)
        toks = [rng.choice(words if rng.random() < 0.7 else specials) for _ in range(k)]
        sep = " " if rng.random() < 0.9 else "  "
        corpus.append(sep.join(toks))
    return corpus


def test_idempotence_on_fuzz_corpus():
    for text in _fuzz_corpus(10_000):
        once = normalize_text(text)
        assert normalize_text(once) == once, text


@settings(max_examples=300)
@given(st.text(max_size=120))
def test_idempotence_on_arbitrary_text(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@settings(max_examples=300)
@given(st.text(max_size=120))
@example("\u212a@a.no")  # the Kelvin sign lowercases to an ASCII k
@example("\u01305 kr")  # İ lowercases to i and a combining dot
@example("a@b.no5c@d.no")  # a placeholder's ⟩ ends the glued word
@example("\u0663.@a.no")  # an Arabic-Indic digit becomes ⟨num⟩ after the email pass
def test_combined_pipeline_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


def unguarded_normalize(text):
    """`normalize_text` without its pre-check: the three substitutions."""
    text = _URL_RE.sub(URL_PLACEHOLDER, text.lower())
    text = _MAIL_RE.sub(MAIL_PLACEHOLDER, text)
    return _NUM_RE.sub(NUM_PLACEHOLDER, text)


# Pieces near each pattern's edges: case folds (ſ, the Kelvin sign, İ),
# a non-ASCII digit, scheme and www prefixes in mixed case, a placeholder.
PRECHECK_PIECES = [
    "ſ", "K", "İ", "٣", "@", "HTTP", "http", "s", "S", "://", ":/",
    "wwW.", "www", ".", "⟩", NUM_PLACEHOLDER, "a", "no", " ", "5", "-", "_", "é",
]


@settings(max_examples=500)
@given(st.one_of(st.lists(st.sampled_from(PRECHECK_PIECES), max_size=12).map("".join), st.text(max_size=60)))
@example("httpſ://a.no")  # under IGNORECASE, s matches ſ: a URL
def test_precheck_changes_no_output(text):
    assert normalize_text(text) == unguarded_normalize(text)


def test_placeholder_atomicity():
    # No placeholder ever ends up nested inside another one.
    for text in _fuzz_corpus(2_000, seed=99):
        out = normalize_text(text)
        for ph in PLACEHOLDERS:
            start = 0
            while (i := out.find(ph, start)) != -1:
                inner = out[i + 1 : i + len(ph) - 1]
                assert "⟨" not in inner and "⟩" not in inner
                start = i + len(ph)


def test_lowercase_scandinavian_letters():
    assert normalize_text("Låten Heter X") == "låten heter x"
    assert normalize_text("ÆØÅ ÄÖ") == "æøå äö"


def test_lowercase_identity_on_lowercase_input():
    text = "allerede små bokstaver æøå"
    assert normalize_text(text) == text


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzæøåäöABCDEFGHIJKLMNOPQRSTUVWXYZÆØÅÄÖ .,!?-", max_size=200))
def test_lowercase_preserves_length_for_scandinavian_alphabet(text):
    # The alphabet has no digits, @, : or /, so "www." is the only
    # pattern that can form.
    assume("www." not in text.lower())
    assert len(normalize_text(text)) == len(text)


def test_normalize_text_lowercases_after_replacement():
    out = normalize_text("Besøk WWW.VG.NO og betal 5 kr")
    assert out == "besøk ⟨url⟩ og betal ⟨num⟩ kr"
