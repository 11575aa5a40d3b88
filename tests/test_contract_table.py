"""The command line's contract over a table of bad documents and sample files.

Every field of a small written manifest and plan is set in turn to each value
of ``VALUES``, or deleted.  Each mutated manifest is the second ``--manifest``
of ``entropy`` and ``stability``; each mutated plan goes through ``simulate``.
The second sample file of a written two-sample source, in each encoding, is
in turn cut short, lengthened, padded with ones, emptied, deleted, given a
multi-byte UTF-8 character or written in another encoding, and the source
goes through ``test``, ``entropy`` and ``stability``.  A written manifest
(through the same three commands) and a written plan (through ``simulate``)
are in turn cut short, given a byte that is no UTF-8, emptied, given NUL
bytes, written as UTF-16, which is read, or given a key twice.
Whatever the input, ``main`` returns 0, 1 or 2 and raises nothing.  On
exit 2, stderr holds one ``error:`` line that names the file at fault, and
``--out`` does not exist; on exit 0 or 1, a second run into a fresh ``--out``
writes the same bytes.  A line that calls the document malformed, or says a
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


def violation(capsys, argv, out, names, field=None):
    """What, if anything, running ``argv`` breaks of the contract; ``names`` are the
    accepted starts of an exit-2 error line, and ``field`` is a document's changed field."""
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
    if field and ("is malformed" in err or "must be a JSON list" in err) and field not in err:
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


# No multiple of 8 or 4: the last byte of a packed-msb file and the last
# character of a hex file hold padding bits.
SAMPLE_LENGTH = 1001


def sample_mutants(raw, encoding):
    """``(label, content)`` for each bad version of the sample file ``raw`` in
    ``encoding``; a content of None deletes the file."""
    yield "truncated", raw[:-1]
    yield "overlong", raw + raw[:1]
    if encoding == "packed-msb":
        yield "padded-with-ones", raw[:-1] + bytes([raw[-1] | 1])
    elif encoding == "hex":
        yield "padded-with-ones", raw[:-1] + b"%x" % (int(raw[-1:], 16) | 1)
    yield "empty", b""
    yield "deleted", None
    if encoding != "packed-msb":
        middle = len(raw) // 2
        yield "multi-byte", raw[:middle] + "\u00e9".encode() + raw[middle:]
    bits = rs.parse_bits(raw, encoding, length=SAMPLE_LENGTH)
    for other in rs.ENCODINGS:
        if other != encoding:
            yield f"written-as-{other}", rs.serialize_bits(bits, other)


@pytest.mark.parametrize("command", ["test", "entropy", "stability"])
@pytest.mark.parametrize("encoding", ["packed-msb", "hex", "ascii01"])
def test_every_bad_sample_file_is_named(tmp_path, capsys, encoding, command):
    plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=2,
                            shots_per_sample=SAMPLE_LENGTH, master_seed=5)
    [manifest] = rs.write_experiment(plan, tmp_path / "data", encoding)
    sample = sorted(manifest.parent.glob("sample_*"))[1]
    raw = sample.read_bytes()
    names = (f"error: {sample}: ", f"error: [Errno 2] No such file or directory: '{sample}'")
    found = []
    for label, content in sample_mutants(raw, encoding):
        if content is None:
            sample.unlink()
        else:
            sample.write_bytes(content)
        out = tmp_path / f"out-{label}"
        broken = violation(capsys, [command, "--manifest", str(manifest), "--out", str(out)],
                           out, names)
        if broken:
            found.append(f"{label}: {broken}")
    assert found == []



def file_mutants(raw, key, value):
    """``(label, content)`` for each version of the JSON file ``raw``: all but the
    ``utf-16`` one are bad, and the last gives the top-level ``key`` first as ``value``."""
    for label, end in (("1-byte", 1), ("third", len(raw) // 3), ("half", len(raw) // 2),
                       ("len-2", len(raw) - 2)):
        yield f"truncated-at-{label}", raw[:end]
    yield "leading-0xff", b"\xff" + raw
    yield "latin-1-in-a-string", raw.replace(b'"', b'"\xe9', 1)
    yield "empty", b""
    yield "nul-bytes", raw[:len(raw) // 2] + b"\0\0" + raw[len(raw) // 2:]
    yield "utf-16", raw.decode().encode("utf-16")
    yield "repeated-key", b'{"%s": %d, ' % (key.encode(), value) + raw[1:]


def tree(out):
    """Every file under ``out`` by its relative path, with its bytes."""
    return {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
            if path.is_file()}


def file_violations(capsys, tmp_path, what, target, key, value, commands):
    """What each version of the ``what`` file ``target`` breaks of the contract, given
    to each command of ``commands`` as ``--<what>``.  A bad version must exit 2, a
    repeated key named; the UTF-16 one must be read, and a second run must write
    the same bytes."""
    found = []
    for label, content in file_mutants(target.read_bytes(), key, value):
        target.write_bytes(content)
        for command in commands:
            def argv(out):
                return [command, f"--{what}", str(target), "--out", str(out)]
            out = tmp_path / f"out-{label}-{command}"
            name = f"error: {what} {target}"
            if label == "repeated-key":
                name += f" is not valid JSON: duplicate key {key!r}"
            broken = violation(capsys, argv(out), out, (name,))
            if broken is None and out.exists() != (label == "utf-16"):
                broken = "was read" if out.exists() else "was not read"
            elif broken is None and out.exists():
                again = out.with_name(out.name + "-again")
                main(argv(again))
                capsys.readouterr()
                if tree(again) != tree(out):
                    broken = "a second run wrote other bytes"
            if broken:
                found.append(f"{label} through {command}: {broken}")
    return found


def test_every_bad_manifest_file_is_named(tmp_path, capsys):
    plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=2,
                            shots_per_sample=SAMPLE_LENGTH, master_seed=5)
    [manifest] = rs.write_experiment(plan, tmp_path / "data")
    assert file_violations(capsys, tmp_path, "manifest", manifest, "declared_length", 5,
                           ("test", "entropy", "stability")) == []


def test_every_bad_plan_file_is_named(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    rs.save_plan(rs.unbiased_plan(num_qubits=1, samples_per_qubit=2, shots_per_sample=64,
                                  master_seed=5), plan)
    assert file_violations(capsys, tmp_path, "plan", plan, "master_seed", -1,
                           ("simulate",)) == []

