from __future__ import annotations

import pytest

from gfcpc.cli import main
from gfcpc.codec import load_encoding, multi_step_construct, store_encoding
from gfcpc.examples import data_root, load_example
from gfcpc.partition import load_partition, save_partition


EX1 = data_root() / "ex1"
EX2 = data_root() / "ex2"
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
    joined = load_partition(out)
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
        "--mode",
        "grouped",
        "--groups",
        "1|2",
        "-o",
        str(enc_file),
    )
    assert code == 0
    assert "total r 6" in out
    code, _ = run(capsys, "verify", str(EX1 / "problem.txt"), str(enc_file))
    assert code == 0


def test_verify_reports_violations(tmp_path, capsys):
    ex = load_example("ex1")
    space = ex.space
    from gfcpc.codec import SystematicEncoding

    bad = SystematicEncoding(space, 0, {u: () for u in space.enumerate()})
    enc_file = tmp_path / "bad.txt"
    store_encoding(bad, enc_file)
    code, out = run(capsys, "verify", str(EX1 / "problem.txt"), str(enc_file))
    assert code == 1
    assert "violate h=" in out
    assert "invalid" in out


def test_bound_exact(capsys):
    code, out = run(capsys, "bound", str(EX2 / "problem.txt"), "--kind", "exact")
    assert code == 0
    assert "bound exact exact 4" in out


def test_bound_binary_triple(capsys):
    code, out = run(capsys, "bound", str(EX5 / "problem.txt"), "--kind", "binary-triple")
    assert code == 0
    assert "witness u=000 v=100 w=010" in out
    assert "bound lower-binary-triple lower 6" in out


def test_bound_domain_error_exit_code(capsys):
    # binary-only bound on a ternary problem
    code = main(["bound", str(EX2 / "problem.txt"), "--kind", "binary-triple"])
    assert code == 2


def test_bound_inapplicable_is_success(tmp_path, capsys):
    # H=2 binary problem whose second partition has only two blocks
    from gfcpc.partition import Partition
    from gfcpc.space import Space

    space = Space(2, 2)
    p1 = Partition.from_blocks(space, [[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
    p2 = Partition.from_blocks(space, [[(0, 0), (0, 1)], [(1, 0), (1, 1)]])
    save_partition(p1, tmp_path / "p1.partition")
    save_partition(p2, tmp_path / "p2.partition")
    prob_file = tmp_path / "problem.txt"
    prob_file.write_text(
        "gfcpc-problem v1\nq 2\nk 2\n"
        "partition p1.partition 3\npartition p2.partition 5\n"
    )
    code, out = run(capsys, "bound", str(prob_file), "--kind", "binary-triple")
    assert code == 0
    assert "inapplicable" in out


def test_decode_roundtrip(tmp_path, capsys):
    ex = load_example("ex1")
    enc, _ = multi_step_construct(ex.problem)
    enc_file = tmp_path / "enc.txt"
    store_encoding(enc, enc_file)
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
    store_encoding(enc, enc_file)
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
    store_encoding(enc, enc_file)
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
