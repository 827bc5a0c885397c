"""Seeded benchmark inputs.

Everything here edits the JSON documents that `qhopf example` and
`qhopf twist` write: basis relabelling, single-coefficient mutants and
malformed files.  The program under test only ever
sees the files written from these documents.  The same seed gives the same
documents on the same Python version.
"""

import json
import random
from fractions import Fraction

# the structure layers a single-coefficient mutant can hit
LAYERS = ("product", "delta", "epsilon", "phi", "antipode", "alpha", "beta",
          "R")
TENSOR_KEYS = ("unit", "phi", "alpha", "beta", "R", "v")
REQUIRED_KEYS = ("field", "dim", "product", "unit", "delta", "epsilon", "phi",
                 "antipode", "alpha", "beta")
MALFORMED = ("bad_json", "non_string_scalar", "non_string_scalar_q",
             "out_of_range_index", "missing_key")


def rng_for(seed, *labels):
    """Independent stream per purpose, so adding one input kind does not
    shift the inputs of another."""
    return random.Random("/".join([str(seed)] + [str(x) for x in labels]))


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc) + "\n")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----- relabelling ------------------------------------------------------

def permutation(dim, rng):
    perm = list(range(dim))
    rng.shuffle(perm)
    return perm


def relabel(doc, perm):
    """The same datum with basis element i renamed perm[i]; block metadata
    is mapped along, so blockwise ribbon search sees the same blocks."""
    p = perm
    out = dict(doc)
    out["product"] = sorted([p[i], p[j], p[k], c] for i, j, k, c in doc["product"])
    out["delta"] = sorted([p[i], p[j], p[k], c] for i, j, k, c in doc["delta"])
    eps = [None] * len(doc["epsilon"])
    for i, c in enumerate(doc["epsilon"]):
        eps[p[i]] = c
    out["epsilon"] = eps
    out["antipode"] = sorted([p[i], p[j], c] for i, j, c in doc["antipode"])
    for key in TENSOR_KEYS:
        t = doc.get(key)
        if t is not None:
            out[key] = {"arity": t["arity"],
                        "entries": sorted([[p[i] for i in idx], c]
                                          for idx, c in t["entries"])}
    meta = doc.get("metadata")
    if meta and "blocks" in meta:
        meta = dict(meta)
        meta["blocks"] = [sorted(p[i] for i in block) for block in meta["blocks"]]
        out["metadata"] = meta
    return out


# ----- single-coefficient mutants ---------------------------------------

def _new_value(field, old, rng):
    """A field value different from `old`, possibly zero (which deletes the
    coefficient on load)."""
    if field["kind"] == "prime":
        p = field["p"]
        old_v = int(old) % p
        new = rng.randrange(p - 1)
        return str(new if new < old_v else new + 1)
    old_v = Fraction(old)
    while True:
        new = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        if new != old_v:
            return str(new)


def mutate(doc, layer, rng):
    """`doc` with one coefficient of `layer` replaced by a different value."""
    out = dict(doc)
    field = doc["field"]
    if layer == "epsilon":
        eps = list(doc["epsilon"])
        i = rng.randrange(len(eps))
        eps[i] = _new_value(field, eps[i], rng)
        out["epsilon"] = eps
    elif layer in ("product", "delta", "antipode"):
        rows = [list(r) for r in doc[layer]]
        r = rows[rng.randrange(len(rows))]
        r[-1] = _new_value(field, r[-1], rng)
        out[layer] = rows
    else:
        entries = [[list(idx), c] for idx, c in doc[layer]["entries"]]
        e = entries[rng.randrange(len(entries))]
        e[1] = _new_value(field, e[1], rng)
        out[layer] = {"arity": doc[layer]["arity"], "entries": entries}
    return out


# ----- malformed files ----------------------------------------------------

def malformed_text(doc, kind, rng):
    """Text of a malformed datum file.  `non_string_scalar` expects a
    prime-field `doc`, `non_string_scalar_q` a rational one."""
    if kind == "bad_json":
        text = dumps(doc)
        return text[:rng.randrange(len(text) // 4, 3 * len(text) // 4)]
    out = dict(doc)
    if kind in ("non_string_scalar", "non_string_scalar_q"):
        eps = list(doc["epsilon"])
        i = rng.randrange(len(eps))
        eps[i] = int(Fraction(eps[i]))  # same value, written as a number
        out["epsilon"] = eps
    elif kind == "out_of_range_index":
        rows = [list(r) for r in doc["product"]]
        r = rows[rng.randrange(len(rows))]
        r[rng.randrange(3)] = doc["dim"] + rng.randrange(3)
        out["product"] = rows
    elif kind == "missing_key":
        del out[REQUIRED_KEYS[rng.randrange(len(REQUIRED_KEYS))]]
    else:
        raise ValueError(kind)
    return dumps(out)
