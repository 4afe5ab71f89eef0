"""Tests of the benchmark itself:  python -m pytest -q perfbench"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from leibalg import cli  # noqa: E402


@pytest.mark.parametrize("workload,count", [
    ("classify-f3", 2), ("isoclinic-f5", 8), ("invariants-q24", 2)])
def test_generator_is_deterministic_per_seed(workload, count):
    first = inputs.operations(workload, 7)
    again = inputs.operations(workload, 7)
    other = inputs.operations(workload, 8)
    digests = [first(i).digest() for i in range(count)]
    assert digests == [again(i).digest() for i in range(count)]
    assert digests != [other(i).digest() for i in range(count)]
    assert len(set(digests)) == count


def test_isoclinic_rounds_meet_every_stratum_for_each_g():
    seq = inputs.IsoclinicWorkload(3)
    ops = [seq.op(i) for i in range(2 * len(inputs.ROUND))]
    assert [op.exit_code for op in ops].count(inputs.EXIT_NO_WITNESS) == 4
    strata = len(inputs.STRATA_ORDER)
    for name, pool in seq.strata.items():
        assert sorted(pos * strata // len(pool) for pos in seq.used[name]) == list(range(strata))


def _traced_counts(workload, count, tmp_path):
    _, failures, metrics, _, tracer = run.run_traced(
        workload, inputs.operations(workload, 5), check.check, count, work=tmp_path)
    assert failures == []
    counted = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return counted, dict(tracer.calls), dict(tracer.counts)


@pytest.mark.parametrize("workload,count", [("classify-f3", 1), ("isoclinic-f5", 2)])
def test_traced_counts_repeat_exactly(workload, count, tmp_path):
    first = _traced_counts(workload, count, tmp_path / "a")
    assert first == _traced_counts(workload, count, tmp_path / "b")
    assert first[0]["linalg.rref_calls"] > 0 and first[0]["linalg.rref_cells"] > 0


def test_tracer_restores_the_library():
    import leibalg.isoclinism as iso
    import leibalg.linalg as linalg
    import tracing

    before = (cli.lie_commutator_of, iso.lie_commutator_of, linalg.rref,
              vars(linalg.Matrix)["rank"], vars(linalg.LinearMap)["is_injective"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.lie_commutator_of is iso.lie_commutator_of is not before[0]
        assert linalg.rref is not before[2]
    finally:
        tracer.uninstall()
    assert before == (cli.lie_commutator_of, iso.lie_commutator_of, linalg.rref,
                      vars(linalg.Matrix)["rank"], vars(linalg.LinearMap)["is_injective"])


def _run(workload, index, tmp_path):
    op = inputs.operations(workload, 11)(index)
    run.write_files(op, tmp_path)
    code, stdout, _ = run.run_in_process(cli.main, op, tmp_path)
    assert check.check(workload, op, code, stdout) == []
    return op, code, json.loads(stdout)


def _bump(matrix):
    row = list(matrix[0])
    row[0] = (row[0] + 1) % 3
    return [row] + matrix[1:]


def test_checker_flags_corrupted_classify_output(tmp_path):
    op, code, report = _run("classify-f3", 0, tmp_path)
    classes = report["payload"]["classes"]
    big = next(c for c in classes
               if len(c["members"]) > 1 and c["witnesses"][c["members"][1]]["eta"])
    member = big["members"][1]

    bad_witness = json.loads(json.dumps(report))
    cls = next(c for c in bad_witness["payload"]["classes"] if c["members"] == big["members"])
    cls["witnesses"][member]["eta"] = _bump(cls["witnesses"][member]["eta"])
    assert any("witness" in p for p in check.check("classify-f3", op, code, json.dumps(bad_witness)))

    dropped = json.loads(json.dumps(report))
    cls = next(c for c in dropped["payload"]["classes"] if c["members"] == big["members"])
    cls["members"].remove(member)
    del cls["witnesses"][member]
    assert "classes are not a partition of the inputs" in check.check(
        "classify-f3", op, code, json.dumps(dropped))

    doubled = json.loads(json.dumps(report))
    other = next(c for c in doubled["payload"]["classes"] if member not in c["members"])
    other["members"].append(member)
    other["witnesses"][member] = big["witnesses"][member]
    assert "classes are not a partition of the inputs" in check.check(
        "classify-f3", op, code, json.dumps(doubled))


def test_checker_flags_corrupted_isoclinic_witness(tmp_path):
    op, code, report = _run("isoclinic-f5", 0, tmp_path)
    witness = report["payload"]["witness"]
    witness["xi"] = [[(v + 1) % 5 for v in row] for row in witness["xi"]]
    assert check.check("isoclinic-f5", op, code, json.dumps(report))
    assert check.check("isoclinic-f5", op, 3, json.dumps(report))


def test_checker_flags_wrong_invariants(tmp_path):
    op, code, report = _run("invariants-q24", 0, tmp_path)
    report["payload"]["lie_center_dim"] += 1
    assert check.check("invariants-q24", op, code, json.dumps(report)) == [
        f"lie_center_dim = {report['payload']['lie_center_dim']}, "
        f"expected {report['payload']['lie_center_dim'] - 1}"]
