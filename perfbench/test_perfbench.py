"""Self-tests of the benchmark's input generator and bookkeeping.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

EXAMPLES = {name: (args, level) for name, args, level in run.ACCEPTANCE_EXAMPLES}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """The acceptance examples as `qhopf example` writes them."""
    plan = run.Plan(str(tmp_path_factory.mktemp("examples")), run.run_in_process)
    return {name: plan.example(name, *args) for name, (args, _) in EXAMPLES.items()}


def _verify(tmp_path, name, doc):
    path = str(tmp_path / name)
    gen.write(path, doc)
    res = run.run_in_process(["verify", path, "--format", "json"])
    return res.code, [c["name"] for c in json.loads(res.out)["checks"]]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
@pytest.mark.parametrize("seed", [0, 1])
def test_relabelled_data_gives_same_exit_code_and_check_names(docs, tmp_path,
                                                               name, seed):
    doc = docs[name]
    perm = gen.permutation(doc["dim"], gen.rng_for(seed, "relabel", name))
    moved = gen.relabel(doc, perm)
    assert moved != doc or perm == sorted(perm)
    code, names = _verify(tmp_path, "orig-" + name, doc)
    assert (code, names) == _verify(tmp_path, "moved-" + name, moved)
    assert code == 0
    assert names == run.LEVEL_CHECKS[EXAMPLES[name][1]]


def test_relabel_maps_block_metadata(docs):
    doc = docs["dz3w.json"]
    perm = gen.permutation(doc["dim"], gen.rng_for(5, "relabel"))
    moved = gen.relabel(doc, perm)
    assert moved["metadata"]["blocks"] == [sorted(perm[i] for i in b)
                                           for b in doc["metadata"]["blocks"]]


def _coefficients(doc):
    out = {}
    for layer in ("product", "delta", "antipode"):
        for row in doc[layer]:
            out[(layer,) + tuple(row[:-1])] = row[-1]
    for i, c in enumerate(doc["epsilon"]):
        out[("epsilon", i)] = c
    for layer in ("phi", "alpha", "beta", "R"):
        for idx, c in doc[layer]["entries"]:
            out[(layer,) + tuple(idx)] = c
    return out


@pytest.mark.parametrize("layer", gen.LAYERS)
def test_mutant_changes_one_coefficient_of_its_layer(docs, layer):
    doc = docs["dz3w.json"]
    before = _coefficients(doc)
    after = _coefficients(gen.mutate(doc, layer, gen.rng_for(3, layer)))
    changed = [k for k in before if before[k] != after[k]]
    assert len(changed) == 1 and changed[0][0] == layer


@pytest.mark.parametrize("kind", gen.MALFORMED)
def test_malformed_file_is_rejected_or_a_known_defect(docs, tmp_path, kind):
    base = "h4.json" if kind == "non_string_scalar_q" else "dz3w.json"
    path = str(tmp_path / (kind + ".json"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.malformed_text(docs[base], kind, gen.rng_for(2, kind)))
    cmd = run.Command("malformed", ["verify", path, "--format", "json"],
                      exit=2, cls=kind)
    verdict, detail = run.judge(cmd, run.run_in_process(cmd.args))
    assert verdict in ("right", "wrong"), detail


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    empty = tracer.Tracer()
    layers = run.layer_report(empty, empty, [1.0], {"wall": 1.0, "kinds": {}},
                              {"wall": 1.0, "kinds": {}}, run.Tally())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layers.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
