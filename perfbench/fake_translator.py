"""A stand-in machine translator for the silver-labelling workload.

It speaks the ``<target-tag>\\t<source-text>`` line protocol of
``scandilid.silverlabel.translate_command``: one request per input
line, one translation per output line, flushed at once. It answers any
number of lines per process, so a long-lived streaming caller can use
it unchanged.

The translation leaves the text unchanged exactly when ``keeps_text``
holds; otherwise it appends the target tag in brackets, which no
whitespace-insensitive comparison can mistake for the original. A line
without a tab or with an unknown tag ends the process with status 2.

Run: ``python3 fake_translator.py < requests.tsv``
"""

import sys

TARGETS = ("da", "nb", "nn", "sv")


def keeps_text(target: str, text: str) -> bool:
    """The translator's rule: the word count plus the target's rank is a multiple of 3."""
    return (len(text.split()) + TARGETS.index(target)) % 3 == 0


def translate(target: str, text: str) -> str:
    return text if keeps_text(target, text) else f"{text} [{target}]"


def main() -> int:
    for line in sys.stdin:
        target, sep, text = line.rstrip("\n").partition("\t")
        if not sep or target not in TARGETS:
            return 2
        sys.stdout.write(translate(target, text) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
