"""A fixed-seed mutation fuzz of the CLI, in process.

Catalog documents and a witness document are mutated at random (a key
dropped, a value replaced by one of a fixed set of wrong values or by a
5,000-digit integer literal, a list entry repeated, the text truncated, a
character inserted, a byte made invalid UTF-8) and sent through `cli.main`.  Whatever the input, every run
must end with an exit code from README's table and at most one line on
stderr, never with a traceback.  The search bound is lowered so that a
mutated pair cannot start a long search.
"""

import json
import random

import leibalg.cli as cli
from leibalg.catalog import catalog_entry
from leibalg.documents import canonical_json, serialize_algebra, serialize_witness
from leibalg.extensions import canonical_extension
from leibalg.isoclinism import search_isoclinism

from conftest import F3, F5, FQ

SEED = 7
RUNS = 200
EXIT_CODES = {0, 2, 3, 4, 64, 65, 66}
BOUND = ("--max-gl", "20000")  # admits GL(3, F_3), refuses GL(3, F_5)
WRONG = (None, True, False, -1, 0, 1, 2, 3, 5, 7, 65, 2**64, 1.5, "", "x", "1/2", "1/0",
         "a\nb", [], {}, [0], [[1]], {"p": 3}, {"p": 4}, "Q")
LONG = "1" * 5000  # an integer literal past CPython's int-string limit


def paths(node, prefix=()):
    """Every path to a value inside a JSON document."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from paths(value, prefix + (idx,))


def mutate(rng, doc) -> bytes:
    """One random mutation of doc, as the bytes of a file."""
    text = canonical_json(doc)
    kind = rng.randrange(7)
    if kind == 0:
        return text[:rng.randrange(len(text))].encode()
    if kind == 1:
        at = rng.randrange(len(text) + 1)
        return (text[:at] + rng.choice('{}[]",:0-9aQ\n') + text[at:]).encode()
    if kind == 2:
        data = bytearray(text.encode())
        data[rng.randrange(len(data))] = 0xFF
        return bytes(data)
    doc = json.loads(text)
    path = rng.choice([p for p in paths(doc) if p])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if kind == 3:
        del parent[last]
    elif kind == 4 and isinstance(parent, list):
        parent.insert(last, parent[last])
    elif kind == 6:
        parent[last] = LONG
    else:
        parent[last] = rng.choice(WRONG)
    return json.dumps(doc).replace(f'"{LONG}"', LONG).encode()


def test_mutated_documents_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    g1, g2 = catalog_entry("paper_g1", F3), catalog_entry("paper_g2", F3)
    witness = search_isoclinism(canonical_extension(g1), canonical_extension(g2))
    algebras = [catalog_entry(name, field) for name in ("paper_g1", "paper_g2", "paper_q2")
                for field in (F3, F5, FQ)] + [catalog_entry("abelian_2", F3)]
    documents = [serialize_algebra(a) for a in algebras]
    first, second = tmp_path / "g1.json", tmp_path / "g2.json"
    first.write_text(canonical_json(serialize_algebra(g1)), encoding="utf-8")
    second.write_text(canonical_json(serialize_algebra(g2)), encoding="utf-8")
    mutated = tmp_path / "mutated.json"
    codes, errors = set(), set()
    for _ in range(RUNS):
        if rng.random() < 0.25:
            mutated.write_bytes(mutate(rng, serialize_witness(witness)))
            argv = ["isoclinic", str(first), str(second), "--witness", str(mutated)]
        else:
            mutated.write_bytes(mutate(rng, rng.choice(documents)))
            argv = rng.choice([
                ["validate", str(mutated)],
                ["invariants", str(mutated)],
                ["extension", "canonical", str(mutated)],
                ["isoclinic", str(mutated), str(first), *BOUND],
                ["isoclinic", str(mutated), "catalog:paper_q2", "--field", "3", *BOUND],
            ])
        if rng.random() < 0.5:
            argv += ["--format", "json"]
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc in EXIT_CODES, (argv, err)
        assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
        codes.add(rc)
        errors.add(err)
    # the mutations reach both the success paths and the error paths
    assert {0, 4, 65} <= codes
    assert any(err.endswith("a number has too many digits\n") for err in errors)
