"""Bundled matroid corpus: the 22 classical small matroids of the
paper's table that have a basis list, read from the shipped `bases`
documents in `data/`.

`document(name)` parses `data/<name>.json` on each call,
`rank(name)` is the size of a basis and `rank_function(name)` the
explicit-bases oracle. A name outside the corpus is a KeyError, even
when a document of that name is shipped (`K4_graphic`, the uniform
examples). The tests build every row again from first principles
(graphs, finite-field and rational matrices, relaxations) and compare
it with its document.
"""

import json
from pathlib import Path

from .matroid import RankFunction

_NAMES = ("AG32", "AG32_prime", "F7", "F7_minus", "F8", "J", "K4", "L8",
          "P6", "P7", "P8", "Q6", "Q8", "R6", "R8", "S8", "T8", "V8",
          "V8_plus", "W3_whirl", "W4_wheel", "W4_whirl")

# Six rows of the paper's table are left out: BJR1-4 and Speyer1-2 are
# defined only by figures in external references, so no basis list can
# be reconstructed for them, and they are omitted rather than
# approximated.


def names():
    return list(_NAMES)


def document(name):
    """CLI-ready JSON document for a bundled matroid."""
    if name not in _NAMES:
        raise KeyError(name)
    path = Path(__file__).with_name("data") / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def rank(name):
    return len(document(name)["bases"][0])


def rank_function(name):
    doc = document(name)
    return RankFunction.from_bases(doc["n"], doc["bases"])
