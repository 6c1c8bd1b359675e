"""A stand-in machine translator that knows each language's vocabulary.

It speaks the ``<target-tag>\\t<source-text>`` line protocol of
``scandilid.silverlabel``, as ``perfbench/fake_translator.py`` does. The
translation leaves a text unchanged exactly when the target's vocabulary
holds every one of its words; otherwise it appends the target tag in
brackets, which no whitespace-insensitive comparison can mistake for the
original. A line without a tab or with an unknown tag ends the process
with status 2.

Run: ``python3 vocabulary_translator.py vocabularies.json < requests.tsv``,
where the JSON file maps each target tag to its list of words.
"""

import json
import sys


def main() -> int:
    sys.stdin.reconfigure(encoding="utf-8")
    sys.stdout.reconfigure(encoding="utf-8")
    with open(sys.argv[1], encoding="utf-8") as f:
        vocabularies = {tag: set(words) for tag, words in json.load(f).items()}
    for line in sys.stdin:
        target, sep, text = line.rstrip("\n").partition("\t")
        if not sep or target not in vocabularies:
            return 2
        kept = all(word in vocabularies[target] for word in text.split())
        sys.stdout.write((text if kept else f"{text} [{target}]") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
