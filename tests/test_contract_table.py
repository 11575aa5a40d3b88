"""The command line's contract over a table of bad documents.

Every field of a small written manifest and plan is set in turn to each value
of ``VALUES``, or deleted.  Each mutated manifest is the second ``--manifest``
of ``entropy`` and ``stability``; each mutated plan goes through ``simulate``.
Whatever the document, ``main`` returns 0, 1 or 2 and raises nothing.  On
exit 2, stderr holds one ``error:`` line that names the file at fault, and
``--out`` does not exist.  A line that calls the document malformed, or says a
value must be a JSON list, also names the changed field: the last key of its
path that is no list index.
"""

import copy
import json
import math
from functools import reduce
from operator import getitem

import pytest

import randsuite as rs
from randsuite.cli import main

DELETE = object()
VALUES = (None, True, 1.5, -1, 0, 2 ** 70, math.nan, math.inf, "x", [], {}, 1e300, DELETE)


def field_paths(doc, prefix=()):
    """The key path of every field and list item in ``doc``, outermost first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def mutants(doc):
    """``(label, field, document)`` for each field path of ``doc`` and each value in
    VALUES; ``field`` is the path's last key that is no list index."""
    for path in field_paths(doc):
        for value in VALUES:
            mutant = copy.deepcopy(doc)
            *parents, last = path
            target = reduce(getitem, parents, mutant)
            if value is DELETE:
                del target[last]
            else:
                target[last] = value
            shown = "<deleted>" if value is DELETE else repr(value)
            field = [key for key in path if isinstance(key, str)][-1]
            yield f"{'.'.join(map(str, path))}={shown}", field, mutant


def violation(capsys, argv, out, names, field):
    """What, if anything, running ``argv`` breaks of the contract; ``names`` are the
    accepted starts of an exit-2 error line, and ``field`` is the changed field."""
    try:
        code = main(argv)
    except Exception as exc:  # the contract: nothing leaves main
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        err = capsys.readouterr().err
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code != 2:
        return None
    if err.count("\n") != 1 or not err.endswith("\n"):
        return f"stderr is not one line: {err!r}"
    if not err.startswith(names):
        return f"names no input: {err!r}"
    if "plan document" in err:
        return f"names the plan twice: {err!r}"
    if ("is malformed" in err or "must be a JSON list" in err) and field not in err:
        return f"names no field {field!r}: {err!r}"
    if out.exists():
        return f"wrote {out}"
    return None


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=2, shots_per_sample=256,
                            master_seed=5)
    return rs.write_experiment(plan, tmp_path_factory.mktemp("data"))


@pytest.mark.parametrize("command", ["entropy", "stability"])
def test_every_bad_manifest_is_named(tmp_path, capsys, manifests, command):
    first, second = manifests
    doc = json.loads(second.read_text())
    mutated = second.with_name("mutated.json")  # beside the sample files its entries name
    missing = f"error: [Errno 2] No such file or directory: '{second.parent / 'x'}'"
    found = []
    for i, (label, field, mutant) in enumerate(mutants(doc)):
        mutated.write_text(json.dumps(mutant))
        out = tmp_path / f"out-{i}"
        argv = [command, "--manifest", str(first), str(mutated), "--out", str(out)]
        broken = violation(capsys, argv, out, (f"error: manifest {mutated}", missing), field)
        if broken:
            found.append(f"{label}: {broken}")
    assert found == []


def test_every_bad_plan_is_named(tmp_path, capsys):
    model = rs.QubitNoiseModel(qubit_id=0, epochs=(rs.Epoch(0, 0.5, 0.01, 0.02),),
                               anomaly=rs.Anomaly(1, 2, 0.3))
    doc = rs.plan_to_dict(rs.ExperimentPlan((model,), samples_per_qubit=3,
                                            shots_per_sample=64, master_seed=5))
    plan = tmp_path / "plan.json"
    found = []
    for i, (label, field, mutant) in enumerate(mutants(doc)):
        plan.write_text(json.dumps(mutant))
        out = tmp_path / f"out-{i}"
        broken = violation(capsys, ["simulate", "--plan", str(plan), "--out", str(out)],
                           out, (f"error: plan {plan}",), field)
        if broken:
            found.append(f"{label}: {broken}")
    assert found == []
