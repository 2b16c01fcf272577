from __future__ import annotations

import pytest

from gfcpc.bounds import BOUND_KINDS
from gfcpc.cli import main
from gfcpc.codec import multi_step_construct
from gfcpc.examples import data_root, load_example
from gfcpc.formats import encoding_to_text, parse_partition, partition_to_text


EX1 = data_root() / "ex1"
EX2 = data_root() / "ex2"
EX3 = data_root() / "ex3"
EX5 = data_root() / "ex5"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_join_writes_partition(tmp_path, capsys):
    out = tmp_path / "joined.txt"
    code, _ = run(
        capsys,
        "join",
        str(EX1 / "weight.partition"),
        str(EX1 / "sum3.partition"),
        "-o",
        str(out),
    )
    assert code == 0
    joined = parse_partition(out.read_text())
    ex = load_example("ex1")
    assert len(joined) == 9


def test_join_stdout_when_no_output(capsys):
    code, out = run(capsys, "join", str(EX1 / "weight.partition"))
    assert code == 0
    assert out.startswith("gfcpc-partition v1")


def test_drm_then_solve_pipeline(tmp_path, capsys):
    mat_file = tmp_path / "mat.txt"
    code, _ = run(capsys, "drm", str(EX2 / "problem.txt"), "-o", str(mat_file))
    assert code == 0
    assert mat_file.read_text().startswith("gfcpc-drm v1\nm 27\n")
    code_file = tmp_path / "code.txt"
    code, out = run(
        capsys, "solve", str(mat_file), "--q", "3", "-o", str(code_file)
    )
    assert code == 0
    assert "n 4" in out
    assert code_file.read_text().startswith("gfcpc-dcode v1\nn 4\n")


def test_construct_verify_roundtrip(tmp_path, capsys):
    enc_file = tmp_path / "enc.txt"
    code, out = run(
        capsys, "construct", str(EX1 / "problem.txt"), "-o", str(enc_file)
    )
    assert code == 0
    assert "total r 5" in out
    code, out = run(capsys, "verify", str(EX1 / "problem.txt"), str(enc_file))
    assert code == 0
    assert out.strip().endswith("valid")


def test_construct_grouped(tmp_path, capsys):
    enc_file = tmp_path / "enc.txt"
    code, out = run(
        capsys,
        "construct",
        str(EX1 / "problem.txt"),
        "--groups",
        "1|2",
        "-o",
        str(enc_file),
    )
    assert code == 0
    assert "total r 6" in out
    code, _ = run(capsys, "verify", str(EX1 / "problem.txt"), str(enc_file))
    assert code == 0


@pytest.mark.parametrize("spec", ["1,2|3", "3|1,2"])
def test_construct_groups_selects_grouped_code(capsys, spec):
    # --groups alone selects the grouped code, and each group's redundancy
    # is printed against its own group whatever order the spec lists them in
    code, out = run(capsys, "construct", str(EX3 / "problem.txt"), "--groups", spec)
    assert code == 0
    assert out.splitlines()[:3] == ["group {1,2}  r 3", "group {3}  r 10", "total r 13"]


def test_construct_has_no_mode_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", str(EX3 / "problem.txt"), "--mode", "grouped"])
    assert exc.value.code == 2


def test_verify_reports_violations(tmp_path, capsys):
    ex = load_example("ex1")
    space = ex.space
    from gfcpc.codec import SystematicEncoding

    bad = SystematicEncoding(space, 0, {u: () for u in space.enumerate()})
    enc_file = tmp_path / "bad.txt"
    enc_file.write_text(encoding_to_text(bad))
    code, out = run(capsys, "verify", str(EX1 / "problem.txt"), str(enc_file))
    assert code == 1
    assert "violate h=" in out
    assert "invalid" in out


def test_bound_exact(capsys):
    code, out = run(capsys, "bound", str(EX2 / "problem.txt"), "--kind", "exact")
    assert code == 0
    assert "bound exact exact 4" in out


def test_bound_binary_triple(capsys):
    code, out = run(capsys, "bound", str(EX5 / "problem.txt"), "--kind", "lower-binary-triple")
    assert code == 0
    assert "witness u=000 v=100 w=010" in out
    assert "bound lower-binary-triple lower 6" in out


@pytest.mark.parametrize("kind", BOUND_KINDS)
def test_bound_kind_names_its_report(capsys, kind):
    code, out = run(
        capsys, "bound", str(EX5 / "problem.txt"), "--kind", kind, "--msgs", "000,011,101,110"
    )
    assert code == 0
    assert out.splitlines()[-1].startswith(f"bound {kind} ")


@pytest.mark.parametrize("kind", ["drm-sub", "trivial", "binary-triple", "binary-structural"])
def test_bound_refuses_deleted_spellings(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["bound", str(EX5 / "problem.txt"), "--kind", kind])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_bound_help_lists_the_bound_kinds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(BOUND_KINDS) + "}" in capsys.readouterr().out


def test_bound_domain_error_exit_code(capsys):
    # binary-only bound on a ternary problem
    code = main(["bound", str(EX2 / "problem.txt"), "--kind", "lower-binary-triple"])
    assert code == 2


def test_bound_inapplicable_is_success(tmp_path, capsys):
    # H=2 binary problem whose second partition has only two blocks
    from gfcpc.partition import Partition
    from gfcpc.space import Space

    space = Space(2, 2)
    p1 = Partition.from_blocks(space, [[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
    p2 = Partition.from_blocks(space, [[(0, 0), (0, 1)], [(1, 0), (1, 1)]])
    (tmp_path / "p1.partition").write_text(partition_to_text(p1))
    (tmp_path / "p2.partition").write_text(partition_to_text(p2))
    prob_file = tmp_path / "problem.txt"
    prob_file.write_text(
        "gfcpc-problem v1\nq 2\nk 2\n"
        "partition p1.partition 3\npartition p2.partition 5\n"
    )
    code, out = run(capsys, "bound", str(prob_file), "--kind", "lower-binary-triple")
    assert code == 0
    assert "inapplicable" in out


def test_decode_roundtrip(tmp_path, capsys):
    ex = load_example("ex1")
    enc, _ = multi_step_construct(ex.problem)
    enc_file = tmp_path / "enc.txt"
    enc_file.write_text(encoding_to_text(enc))
    cw = enc.codeword((1, 0, 0))
    word = list(cw)
    word[4] = (word[4] + 1) % 3  # one symbol error
    text = "".join(str(s) for s in word)
    code, out = run(
        capsys, "decode", str(enc_file), str(EX1 / "problem.txt"), text, "--level", "1"
    )
    assert code == 0
    # weight-1 block of the first partition, named by its smallest member
    assert out.strip() == "001"


def test_decode_failure_exit_code(tmp_path, capsys):
    ex = load_example("ex1")
    enc, _ = multi_step_construct(ex.problem)
    enc_file = tmp_path / "enc.txt"
    enc_file.write_text(encoding_to_text(enc))
    cw = enc.codeword((0, 0, 0))
    code, out = run(
        capsys,
        "decode",
        str(enc_file),
        str(EX1 / "problem.txt"),
        "".join(str(s) for s in cw),
        "--level",
        "1",
        "--t",
        str(enc.n),
    )
    assert code == 1
    assert out.strip() == "FAIL"


def test_decode_rejects_bad_digits(tmp_path, capsys):
    ex = load_example("ex1")
    enc, _ = multi_step_construct(ex.problem)
    enc_file = tmp_path / "enc.txt"
    enc_file.write_text(encoding_to_text(enc))
    problem = str(EX1 / "problem.txt")
    word = "".join(str(s) for s in enc.codeword((0, 0, 0)))
    # a non-digit symbol in the received word
    code = main(["decode", str(enc_file), problem, "a" + word[1:], "--level", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "non-digit" in err
    # a non-digit parity symbol in the encoding file
    lines = enc_file.read_text().splitlines()
    fields = lines[5].split()
    lines[5] = f"{fields[0]} {fields[1]} x{fields[2][1:]}"
    enc_file.write_text("\n".join(lines) + "\n")
    code = main(["decode", str(enc_file), problem, word, "--level", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: line 6: parity") and "non-digit" in err


def test_input_error_exit_code(tmp_path):
    missing = tmp_path / "nope.txt"
    assert main(["verify", str(missing), str(missing)]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a problem file\n")
    assert main(["drm", str(bad)]) == 2


def test_reproduce_ex5(capsys):
    code, out = run(capsys, "reproduce", "ex5")
    assert code == 0
    assert "2/2 checks passed" in out


GOOD_FILES = {
    "p.partition": "gfcpc-partition v1\nq 2\nk 2\nblock 00 00 01\nblock 10 10 11\n",
    "problem.txt": "gfcpc-problem v1\nq 2\nk 2\npartition p.partition 3\n",
    "enc.txt": "gfcpc-encoding v1\nq 2\nk 2\nr 1\nrow 00 0\nrow 01 0\nrow 10 1\nrow 11 1\n",
    "drm.txt": "gfcpc-drm v1\nm 2\n0 1\n1 0\nmsg 0 00\nmsg 1 10\n",
}
DRM = ["drm", "problem.txt"]
JOIN = ["join", "p.partition"]
VERIFY = ["verify", "problem.txt", "enc.txt"]
SOLVE = ["solve", "drm.txt", "--q", "2"]


@pytest.mark.parametrize(
    "name, old, new, argv, lineno",
    [
        ("problem.txt", "3\n", "3\nmsg 0x\n", DRM, 5),
        ("problem.txt", "3\n", "3\nmsg 01\nmsg 01\n", DRM, 6),
        ("problem.txt", "k 2", "k -1", DRM, 3),
        ("problem.txt", "p.partition", "missing.partition", DRM, 4),
        ("problem.txt", "p.partition 3", "p.partition 0", DRM, 4),
        ("p.partition", "q 2", "q 1", DRM, 4),
        ("p.partition", "q 2", "q 1", JOIN, 2),
        ("p.partition", "k 2", "k 0", JOIN, 3),
        ("enc.txt", "row 01", "row 0x", VERIFY, 6),
        ("enc.txt", "q 2", "q 11", VERIFY, 2),
        ("drm.txt", "msg 1 10", "msg 1 0x", SOLVE, 6),
        ("drm.txt", "m 2", "m -1", SOLVE, 2),
    ],
)
def test_malformed_file_reports_line(tmp_path, capsys, name, old, new, argv, lineno):
    for file, text in GOOD_FILES.items():
        (tmp_path / file).write_text(text.replace(old, new) if file == name else text)
    args = [str(tmp_path / a) if a in GOOD_FILES else a for a in argv]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: line {lineno}: ")


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00", b"gfcpc-partition v1\nq 2\nk 20000\n"],
    ids=["not-utf8", "space-too-large"],
)
def test_unusable_file_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.partition"
    bad.write_bytes(content)
    assert main(["join", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_header_with_records_exits_2(tmp_path, capsys):
    # refused at the k line, before q**k is built or a record is read
    bad = tmp_path / "bad.partition"
    bad.write_text("gfcpc-partition v1\nq 2\nk 10000000000\n0 0\n1 1\n")
    assert main(["join", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: line 3: q^k = 2^10000000000 exceeds")
