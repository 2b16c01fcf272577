"""Command-line surface: file pipelines for joins, requirement matrices,
solving, construction, verification, bounds, decoding, and one-command
reproduction of the bundled reference examples.

Exit codes: 0 success, 1 semantic failure, 2 input error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import (
    BoundReport,
    binary_structural_bound,
    binary_triple_bound,
    grouping_table_text,
    lower_bound_drm_submatrix,
    lower_bound_joins,
    lower_bound_trivial,
    optimal_redundancy_exact,
    upper_bound_grouping,
    upper_bound_multistep,
)
from .codec import (
    BudgetExceeded,
    decode_block,
    encoding_to_text,
    grouped_construct,
    load_encoding,
    multi_step_construct,
    store_encoding,
    verify_gfcpc,
)
from .drm import canonicalize_problem, drm_to_text, gfcpc_drm, read_drm
from .errors import GfcpcError, InputError
from .examples import (
    EXAMPLE_IDS,
    encoding_from_rows,
    load_example,
    load_problem_file,
)
from .partition import join_many, load_partition, partition_to_text
from .solver import SearchBudget, dcode_to_text, min_length_dcode
from .space import Space

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(node_limit=args.budget_nodes)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_join(args: argparse.Namespace) -> int:
    parts = [load_partition(p) for p in args.partitions]
    joined = join_many(parts)
    _emit(partition_to_text(joined), args.output)
    return EXIT_OK


def cmd_drm(args: argparse.Namespace) -> int:
    prob, msgs = load_problem_file(args.problem)
    messages = msgs if msgs is not None else list(prob.space.vectors())
    mat = gfcpc_drm(prob, messages)
    _emit(drm_to_text(mat, prob.space), args.output)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    with open(args.drm, encoding="utf-8") as fh:
        mat = read_drm(fh, Space(args.q, _drm_vec_len(args.drm)))
    res = min_length_dcode(mat, args.q, _budget(args))
    if not res.is_exact:
        print(f"budget exhausted: N in [{res.lower}, {res.upper}]")
        return EXIT_BUDGET
    assert res.witness is not None
    _emit(dcode_to_text(res.witness), args.output)
    if args.output:
        print(f"n {res.n}")
    return EXIT_OK


def _drm_vec_len(path: str) -> int:
    # The matrix dump does not carry k; infer it from the first msg line.
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("msg "):
            return len(line.split()[2])
    raise InputError(f"{path}: no 'msg' lines to infer vector length from")


def cmd_construct(args: argparse.Namespace) -> int:
    prob, _ = load_problem_file(args.problem)
    if args.mode == "multistep":
        try:
            enc, trace = multi_step_construct(prob, _budget(args))
        except BudgetExceeded as e:
            for step in e.trace.steps:
                print(f"step {step.h}  blocks {len(step.join_partition)}  r_h {step.r_h}")
            print(f"error: {e}", file=sys.stderr)
            return EXIT_BUDGET
        for step in trace.steps:
            print(f"step {step.h}  blocks {len(step.join_partition)}  r_h {step.r_h}")
        print(f"total r {enc.r}")
    else:
        if not args.groups:
            raise InputError("grouped mode requires --groups, e.g. '1,2|3'")
        grouping = _parse_groups(args.groups)
        enc, per_group = grouped_construct(prob, grouping, _budget(args))
        for g, r_g in zip(grouping, per_group):
            print(f"group {{{','.join(map(str, g))}}}  r {r_g}")
        print(f"total r {enc.r}")
    if args.output:
        store_encoding(enc, args.output)
    else:
        sys.stdout.write(encoding_to_text(enc))
    return EXIT_OK


def _parse_groups(spec: str) -> list[list[int]]:
    try:
        return [[int(x) for x in part.split(",")] for part in spec.split("|")]
    except ValueError:
        raise InputError(f"bad grouping spec {spec!r}; expected e.g. '1,2|3'") from None


def cmd_verify(args: argparse.Namespace) -> int:
    prob, _ = load_problem_file(args.problem)
    enc = load_encoding(args.encoding)
    report = verify_gfcpc(enc, prob)
    for v in report.violations:
        print(
            f"violate h={v.h} u={prob.space.render(v.u)} v={prob.space.render(v.v)}"
            f" got={v.achieved} need={v.required}"
        )
    print("valid" if report.valid else f"invalid ({len(report.violations)} violations)")
    return EXIT_OK if report.valid else EXIT_FAIL


def _print_report(rep: BoundReport, prob) -> None:
    cert = rep.certificate
    if rep.kind == "upper-grouping":
        sys.stdout.write(grouping_table_text(rep))
    elif rep.kind in ("lower-binary-triple",) and "u" in cert:
        r = prob.space.render
        print(f"witness u={r(cert['u'])} v={r(cert['v'])} w={r(cert['w'])}")
    elif rep.kind == "lower-binary-structural" and "u" in cert:
        r = prob.space.render
        print(
            f"witness condition={cert['condition']} v={r(cert['v'])}"
            f" w={r(cert['w'])} u={r(cert['u'])}"
        )
    elif rep.kind == "lower-join":
        print(f"achieving h {cert['achieving_h']}")
    print(f"bound {rep.kind} {rep.status} {rep.value}")


def cmd_bound(args: argparse.Namespace) -> int:
    prob, file_msgs = load_problem_file(args.problem)
    budget = _budget(args)
    kind = args.kind
    if kind == "lower-join":
        rep = lower_bound_joins(prob, budget)
    elif kind == "upper-grouping":
        rep = upper_bound_grouping(prob, budget)
    elif kind == "upper-multistep":
        rep = upper_bound_multistep(prob, budget)
    elif kind == "drm-sub":
        if args.msgs:
            msgs = [prob.space.parse(t) for t in args.msgs.split(",")]
        elif file_msgs:
            msgs = file_msgs
        else:
            raise InputError("drm-sub needs --msgs or msg lines in the problem file")
        rep = lower_bound_drm_submatrix(prob, msgs, budget)
    elif kind == "trivial":
        rep = lower_bound_trivial(prob)
    elif kind == "binary-triple":
        rep = binary_triple_bound(prob)
    elif kind == "binary-structural":
        rep = binary_structural_bound(prob)
    elif kind == "exact":
        rep = optimal_redundancy_exact(prob, budget)
    else:
        raise InputError(f"unknown bound kind {kind!r}")
    _print_report(rep, prob)
    if rep.status == "interval":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    enc = load_encoding(args.encoding)
    prob, _ = load_problem_file(args.problem)
    if len(args.word) != enc.n:
        raise InputError(f"word length {len(args.word)}, expected k + r = {enc.n}")
    word = Space(enc.space.q, enc.n).parse(args.word)
    block = decode_block(enc, prob, args.level, word, args.t)
    if block is None:
        print("FAIL")
        return EXIT_FAIL
    print(prob.partitions[args.level - 1].block_name(block))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Reproduce


def _check(rows: list[tuple[str, object, object]], name: str, computed, expected) -> None:
    rows.append((name, computed, expected))


def _canonical_grouping_key(text: str) -> str:
    # Accepts "{2,3},{1}" and the like; groups sort by their smallest member.
    groups = [
        sorted(int(x) for x in chunk.strip("{},").split(","))
        for chunk in text.split("}")
        if chunk.strip("{},")
    ]
    groups.sort(key=lambda g: g[0])
    return "".join("{" + ",".join(map(str, g)) + "}" for g in groups)


def _reproduce_rows(exid: str, budget: SearchBudget) -> list[tuple[str, object, object]]:
    ex = load_example(exid)
    prob = ex.problem
    expected = ex.tables.get("expected", {})
    rows: list[tuple[str, object, object]] = []

    if exid == "ex1":
        enc, trace = multi_step_construct(prob, budget)
        _check(rows, "multistep steps", list(trace.per_step_r), expected["multistep_steps"])
        _check(rows, "multistep total", enc.r, expected["multistep_total"])
        _check(rows, "multistep verifies", verify_gfcpc(enc, prob).valid, True)
        _, (r1, r2) = grouped_construct(prob, [[1], [2]], budget)
        _check(rows, "r(P1:3)", r1, expected["r_p1"])
        _check(rows, "r(P2:5)", r2, expected["r_p2"])
        _check(rows, "separate sum", r1 + r2, expected["separate_sum"])
        for key, levels in (("p1_code", [1]), ("p2_code", [2])):
            tab = ex.tables[key]
            sub = canonicalize_problem([prob.partitions[levels[0] - 1]], [tab["d"]])
            table_enc = encoding_from_rows(prob.space, tab["rows"])
            _check(rows, f"{key} verifies", verify_gfcpc(table_enc, sub).valid, True)
        ms_enc = encoding_from_rows(prob.space, ex.tables["multistep"]["rows"])
        _check(rows, "table multistep verifies", verify_gfcpc(ms_enc, prob).valid, True)

    elif exid == "ex2":
        jprob = canonicalize_problem([join_many(prob.partitions)], [prob.distances[-1]])
        msgs = [prob.space.parse(t) for t in expected["submatrix_msgs"]]
        rep = lower_bound_drm_submatrix(jprob, msgs, budget)
        _check(rows, "join submatrix bound", rep.value, expected["submatrix_bound"])
        tab_enc = encoding_from_rows(prob.space, ex.tables["join5_code"]["rows"])
        _check(rows, "join5 table verifies", verify_gfcpc(tab_enc, jprob).valid, True)
        _check(rows, "join5 table r", tab_enc.r, expected["join5_r"])
        enc, trace = multi_step_construct(prob, budget)
        _check(rows, "multistep steps", list(trace.per_step_r), expected["multistep_steps"])
        _check(rows, "multistep total", enc.r, expected["multistep_total"])
        _check(rows, "multistep verifies", verify_gfcpc(enc, prob).valid, True)
        exact = optimal_redundancy_exact(prob, budget)
        _check(rows, "optimal redundancy", (exact.status, exact.value), ("exact", expected["optimal"]))
        sep = sum(grouped_construct(prob, [[1], [2]], budget)[1])
        _check(rows, "separate sum", sep, expected["separate_sum"])
        chain_holds = exact.value == 4 < rep.value < sep
        _check(rows, "chain 4 = 4 < 5 < 6", chain_holds, True)
        ms_enc = encoding_from_rows(prob.space, ex.tables["multistep"]["rows"])
        _check(rows, "table multistep verifies", verify_gfcpc(ms_enc, prob).valid, True)

    elif exid == "ex3":
        rep = upper_bound_grouping(prob, budget)
        table = {str(row["grouping"]): row["total"] for row in rep.certificate["table"]}
        want = {
            _canonical_grouping_key(k): v
            for k, v in expected["grouping_table"].items()
        }
        _check(rows, "grouping table", table, want)
        _check(rows, "grouping minimum", rep.value, expected["grouping_min"])
        enc, trace = multi_step_construct(prob, budget)
        _check(rows, "multistep steps", list(trace.per_step_r), expected["multistep_steps"])
        _check(rows, "multistep total", enc.r, expected["multistep_total"])
        _check(rows, "multistep verifies", verify_gfcpc(enc, prob).valid, True)
        low = lower_bound_joins(prob, budget)
        _check(
            rows, "join lower terms",
            [t["value"] for t in low.certificate["terms"]],
            expected["lower_join_terms"],
        )
        _check(rows, "join lower bound", low.value, expected["lower_join"])
        for key, tab in ex.tables["codes"].items():
            levels = [int(x) for x in key.split(",")]
            sub = canonicalize_problem(
                [join_many([prob.partitions[i - 1] for i in levels])], [tab["d"]]
            )
            table_enc = encoding_from_rows(prob.space, tab["rows"])
            _check(rows, f"code {key} verifies", verify_gfcpc(table_enc, sub).valid, True)
        ms_enc = encoding_from_rows(prob.space, ex.tables["multistep"]["rows"])
        _check(rows, "table multistep verifies", verify_gfcpc(ms_enc, prob).valid, True)

    elif exid == "ex4":
        msgs = [prob.space.parse(t) for t in ex.tables["messages"]]
        mat = gfcpc_drm(prob, msgs)
        _check(rows, "drm entries", [list(r) for r in mat.entries], ex.tables["entries"])
        levels = [[lv if lv is not None else 0 for lv in row] for row in mat.source_level]
        _check(rows, "drm levels", levels, ex.tables["levels"])
        for pair in ex.tables["same_block_pairs"]:
            u, v = (prob.space.parse(t) for t in pair)
            i, j = msgs.index(u), msgs.index(v)
            _check(rows, f"same-block zero {pair[0]},{pair[1]}", mat.entry(i, j), 0)
        for key, blocks in ex.tables["joins"].items():
            idx = [int(x) for x in key.split(",")]
            joined = join_many([prob.partitions[i - 1] for i in idx])
            got = [
                sorted(prob.space.render(u) for u in b) for b in joined.blocks
            ]
            want_blocks = sorted(sorted(b) for b in blocks)
            _check(rows, f"join {key} blocks", sorted(got), want_blocks)

    elif exid == "ex5":
        from .bounds import scan_binary_triple_witness

        witness = scan_binary_triple_witness(prob.partitions[1])
        got = None if witness is None else [prob.space.render(x) for x in witness]
        _check(rows, "triple witness", got, expected["witness"])
        rep = binary_triple_bound(prob)
        _check(rows, "triple bound", rep.value, expected["triple_bound"])

    elif exid == "ex6":
        tab = ex.tables["code"]
        table_enc = encoding_from_rows(prob.space, tab["rows"])
        _check(rows, "table verifies", verify_gfcpc(table_enc, prob).valid, True)
        _check(rows, "table r", table_enc.r, expected["optimal"])
        exact = optimal_redundancy_exact(prob, budget)
        _check(rows, "optimal redundancy", (exact.status, exact.value), ("exact", expected["optimal"]))
        d1, d2 = prob.distances
        formula = d2 + -(-d1 // 2) - 2
        _check(rows, "structural formula value", formula, expected["structural_formula_value"])
        _check(rows, "formula exceeds optimum", formula > exact.value, True)

    return rows


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = _reproduce_rows(args.example, _budget(args))
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, computed, wanted in rows:
        ok = computed == wanted
        failures += 0 if ok else 1
        mark = "ok" if ok else "MISMATCH"
        print(f"{name.ljust(width)}  computed={computed!r}  expected={wanted!r}  {mark}")
    print(f"{args.example}: {len(rows) - failures}/{len(rows)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget-nodes", type=int, default=10**8, metavar="N",
                        help="search node limit (default 1e8)")
    common.add_argument("-o", "--output", metavar="PATH", default=None,
                        help="write the result file here instead of standard output")

    parser = argparse.ArgumentParser(
        prog="gfcpc",
        description="Generalized function-correcting partition codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("join", parents=[common], help="join partitions")
    p.add_argument("partitions", nargs="+", help="partition files")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("drm", parents=[common], help="distance requirement matrix")
    p.add_argument("problem", help="problem file")
    p.set_defaults(func=cmd_drm)

    p = sub.add_parser("solve", parents=[common], help="minimum code length for a matrix")
    p.add_argument("drm", help="matrix dump file")
    p.add_argument("--q", type=int, required=True, help="alphabet size")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("construct", parents=[common], help="build an encoding")
    p.add_argument("problem", help="problem file")
    p.add_argument("--mode", choices=["multistep", "grouped"], default="multistep")
    p.add_argument("--groups", default=None, help="grouping spec for grouped mode, e.g. '1,2|3'")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="check an encoding against a problem")
    p.add_argument("problem", help="problem file")
    p.add_argument("encoding", help="encoding file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", parents=[common], help="evaluate a redundancy bound")
    p.add_argument("problem", help="problem file")
    p.add_argument("--kind", required=True,
                   choices=["lower-join", "upper-grouping", "upper-multistep", "drm-sub",
                            "trivial", "binary-triple", "binary-structural", "exact"])
    p.add_argument("--msgs", default=None, help="comma-separated messages for drm-sub")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("decode", parents=[common], help="recover a partition block")
    p.add_argument("encoding", help="encoding file")
    p.add_argument("problem", help="problem file")
    p.add_argument("word", help="received word, k + r digits")
    p.add_argument("--level", type=int, required=True, help="protection level h")
    p.add_argument("--t", type=int, default=None, help="decoding radius override")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("reproduce", parents=[common], help="re-derive a bundled example")
    p.add_argument("example", choices=list(EXAMPLE_IDS))
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except GfcpcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
