import hashlib
import json
import os

import pytest

from cbpv_quant.cli import run


@pytest.fixture()
def progdir(tmp_path):
    (tmp_path / "coin.cbpv").write_text(
        "por(return 0, por(nor(return 0, return 1), return 1))\n"
    )
    (tmp_path / "emax1.qf").write_text("Eopt<{1}>\n")
    (tmp_path / "costM.cbpv").write_text("cost[1](return 7)\n")
    (tmp_path / "costN.cbpv").write_text("nor(return 7, cost[3](return 7))\n")
    (tmp_path / "bad.cbpv").write_text("(\\x:nat. return x) ()\n")
    return tmp_path


def _paths(progdir, *names):
    return [str(progdir / n) for n in names]


def test_typecheck_ok(progdir):
    code, report = run(["typecheck", *_paths(progdir, "coin.cbpv"), "--signature", "prob+nondet"])
    assert code == 0
    assert report == "type: F nat"


def test_typecheck_error_exit_two(progdir):
    code, report = run(["typecheck", *_paths(progdir, "bad.cbpv"), "--signature", "prob"])
    assert code == 2
    assert "error" in report and "expected" in report


def test_eval_tree_format(progdir):
    code, report = run(
        ["eval", *_paths(progdir, "coin.cbpv"), "--signature", "prob+nondet", "--fuel", "8"]
    )
    assert code == 0
    assert report.splitlines()[0] == "por:"
    assert "  ret 0" in report
    assert "    nor:" in report


def test_eval_unknown_leaf_marker(tmp_path):
    p = tmp_path / "omega.cbpv"
    p.write_text(r"fix (\x:U(F nat). force x)")
    code, report = run(["eval", str(p), "--signature", "prob", "--fuel", "6"])
    assert code == 0
    assert report == "?"


def test_eval_nat_param_rendering(tmp_path):
    p = tmp_path / "upd.cbpv"
    p.write_text("update[l](3, return ())")
    code, report = run(
        ["eval", str(p), "--signature", "store", "--locations", "l", "--value-bound", "4", "--fuel", "6"]
    )
    assert code == 0
    assert report.splitlines()[0] == "update[l:=3]:"


COPIER = os.path.join(os.path.dirname(__file__), "..", "programs", "copier.cbpv")


def test_eval_lists_one_child_per_storable_value():
    argv = ["eval", COPIER, "--signature", "store+nondet", "--value-bound", "3", "--fuel", "6"]
    code, report = run(argv)
    assert code == 0
    assert report.splitlines() == [
        "nor:",
        "  lookup[l]:",
        "    0: update[r:=0]:",
        "      ret 0",
        "    1: update[r:=1]:",
        "      ret 1",
        "    2: update[r:=2]:",
        "      ret 2",
        "  lookup[r]:",
        "    0: update[l:=0]:",
        "      ret 0",
        "    1: update[l:=1]:",
        "      ret 1",
        "    2: update[l:=2]:",
        "      ret 2",
    ]
    code, report = run(argv + ["--json"])
    lookup = json.loads(report)["tree"]["children"][0]
    assert lookup["op"] == "lookup[l]" and len(lookup["children"]) == 3
    assert "family_width" not in lookup


STORE_LOOP = (
    r"fix (\f:U(F nat). lookup[l](x. case x of {zero -> update[l](1, force f) "
    r"| succ y -> lookup[r](z. case z of {zero -> return 0 | succ w -> update[r](0, force f)})}))"
)


@pytest.mark.parametrize(
    "extra, lines, digest",
    [
        ([], 181, "496f5703854c3b255991c6d9f6e4155d0f54e306b6714d421b571c812a712ab3"),
        (["--json"], 900, "42ba2f1093a299d4a9999081d8feb0ea232efe2d5572262c4acec3d8c0b81419"),
    ],
)
def test_eval_prints_a_shared_tree_written_out_in_full(tmp_path, extra, lines, digest):
    # the store loop's tree at fuel 40 shares its repeated subtrees; `eval`
    # prints every copy, byte for byte as it did when nothing was shared
    p = tmp_path / "store-loop.cbpv"
    p.write_text(STORE_LOOP)
    code, report = run(["eval", str(p), "--signature", "store", "--value-bound", "2", "--fuel", "40"] + extra)
    assert code == 0
    assert (len(report.splitlines()), hashlib.sha256(report.encode()).hexdigest()) == (lines, digest)


def test_explore_width_flag_and_key_are_gone(tmp_path):
    argv = ["eval", COPIER, "--signature", "store", "--fuel", "6"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--explore-width", "16"])
    assert exc.value.code == 2
    conf = tmp_path / "run.toml"
    conf.write_text("explore_width = 16\n")
    code, report = run(argv + ["--config", str(conf)])
    assert code == 2
    assert report == "error: line 1: unknown key 'explore_width'"


def test_tolerance_key_is_gone(tmp_path):
    # law c compares exactly, so no setting reads a tolerance
    conf = tmp_path / "run.toml"
    conf.write_text("signature = prob\ntolerance = 1e-9\n")
    code, report = run(["laws", "--samples", "1", "--no-relator", "--config", str(conf)])
    assert (code, report) == (2, "error: line 2: unknown key 'tolerance'")


@pytest.mark.parametrize(
    "signature, key, error",
    [
        (
            "store+nondet+error",
            "error_valuation.G.e",
            "error: error_valuation.G.e: signature 'store+nondet+error' has no "
            "modality 'G' to lift (it has Gopt, Gpes)",
        ),
        (
            "store+error",
            "error_valuation.g.e",
            "error: error_valuation.g.e: signature 'store+error' has no "
            "modality 'g' to lift (it has G)",
        ),
    ],
)
def test_error_valuation_for_a_missing_modality_is_an_error(tmp_path, signature, key, error):
    prog = tmp_path / "r.cbpv"
    prog.write_text("return 0\n")
    conf = tmp_path / "run.toml"
    conf.write_text(f"signature = {signature}\nlocations = [l]\n{key} = states{{l=1}}\n")
    assert run(["typecheck", str(prog), "--config", str(conf)]) == (2, error)
    # without +error the runtime lifts nothing, so the key is ignored
    conf.write_text(f"signature = store\nlocations = [l]\n{key} = states{{l=1}}\n")
    assert run(["typecheck", str(prog), "--config", str(conf)]) == (0, "type: F nat")


@pytest.mark.parametrize(
    "literal, error",
    [
        ("{[l=x]}", "error: 1:16: expected a store value"),
        ("{[q=1]}", "error: unknown store location q"),
    ],
)
def test_explicit_state_literal_errors_exit_two(tmp_path, literal, error):
    formula = tmp_path / "bad.qf"
    formula.write_text(f"Gopt<const {literal}>\n")
    code, report = run(["sat", COPIER, str(formula), "--signature", "store+nondet", "--fuel", "4"])
    assert (code, report) == (2, error)


def test_explicit_state_literal_values_wrap(tmp_path):
    # at value bound 3 the state [l=5 r=5] is [l=2 r=2]
    formula = tmp_path / "wrap.qf"
    argv = ["sat", COPIER, str(formula), "--signature", "store+nondet", "--value-bound", "3"]
    reports = []
    for literal in ("{[l=5 r=5]}", "{[l=2 r=2]}"):
        formula.write_text(f"Gopt<const {literal}>\n")
        reports.append(run(argv))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


def test_sat_weighted_sum(tmp_path):
    prog = tmp_path / "r0.cbpv"
    prog.write_text("return 0\n")
    formula = tmp_path / "wsum.qf"
    formula.write_text("wsum[0.5, 0.5, 0, 0](EG<{0}>)\n")
    argv = ["sat", str(prog), str(formula), "--signature", "prob+store", "--value-bound", "2"]
    assert run(argv) == (0, "value = top\nfragment = positive")


def test_typecheck_deep_numeral(tmp_path):
    # one frame per succ: 500 levels type well inside the default stack
    prog = tmp_path / "big.cbpv"
    prog.write_text("return 500\n")
    assert run(["typecheck", str(prog), "--signature", "prob"]) == (0, "type: F nat")


def test_sat_coin(progdir):
    code, report = run(
        ["sat", *_paths(progdir, "coin.cbpv", "emax1.qf"), "--signature", "prob+nondet", "--fuel", "8"]
    )
    assert code == 0
    assert report.splitlines()[0] == "value = 0.5"
    assert "fragment = positive" in report


def test_sat_json(progdir):
    code, report = run(
        [
            "sat",
            *_paths(progdir, "coin.cbpv", "emax1.qf"),
            "--signature",
            "prob+nondet",
            "--fuel",
            "8",
            "--json",
        ]
    )
    doc = json.loads(report)
    assert doc["interval"] == {"lo": "0.5", "hi": "0.5", "exact": True}


def test_compare_exit_codes_and_witness(progdir):
    code, report = run(
        [
            "compare",
            *_paths(progdir, "costM.cbpv", "costN.cbpv"),
            "--signature",
            "cost+nondet",
            "--suite-size",
            "3",
            "--fuel",
            "8",
        ]
    )
    assert code == 1
    assert "Copt<{7}>" in report
    code2, report2 = run(
        [
            "compare",
            *_paths(progdir, "costM.cbpv", "costM.cbpv"),
            "--signature",
            "cost+nondet",
            "--suite-size",
            "3",
            "--fuel",
            "8",
        ]
    )
    assert code2 == 0
    assert "no distinction found" in report2


def test_unit_results_are_observed(tmp_path):
    # () is the only value of type unit, so `const top` is its basic value
    # formula, as {n} is at nat
    (tmp_path / "u1.cbpv").write_text("return ()\n")
    (tmp_path / "u3.cbpv").write_text("cost[1](return ())\n")
    paths = [str(tmp_path / "u1.cbpv"), str(tmp_path / "u3.cbpv")]
    code, report = run(["compare", *paths, "--signature", "cost"])
    assert (code, report) == (1, "distinguished: witness C<const 0> left 0 right 1 (left_not_below_right)")
    code, report = run(["distinguish", *paths, "--signature", "cost"])
    assert (code, report) == (1, "witness C<const 0> (left_not_below_right)")


def test_distinguish_verb(progdir):
    code, report = run(
        [
            "distinguish",
            *_paths(progdir, "costM.cbpv", "costN.cbpv"),
            "--signature",
            "cost+nondet",
            "--max-size",
            "3",
            "--fuel",
            "16",
        ]
    )
    assert code == 1
    assert "Copt<{7}>" in report
    code2, _ = run(
        [
            "distinguish",
            *_paths(progdir, "costM.cbpv", "costM.cbpv"),
            "--signature",
            "cost+nondet",
            "--max-size",
            "2",
            "--fuel",
            "8",
        ]
    )
    assert code2 == 0


def test_reports_are_deterministic(progdir):
    argv = [
        "compare",
        *_paths(progdir, "costM.cbpv", "costN.cbpv"),
        "--signature",
        "cost+nondet",
        "--suite-size",
        "4",
        "--fuel",
        "16",
        "--json",
    ]
    assert run(argv) == run(argv)


def test_laws_verb_small():
    code, report = run(
        [
            "laws",
            "--modality",
            "E,Epes",
            "--samples",
            "40",
            "--seed",
            "1",
            "--no-relator",
            "--no-congruence",
            "--signature",
            "prob+nondet",
        ]
    )
    assert code == 0
    assert "all laws pass" in report


@pytest.mark.parametrize(
    "flag, value",
    [("--samples", "-3"), ("--samples", "0"), ("--trials", "-3")],
)
def test_laws_rejects_bad_counts(flag, value):
    code, report = run(
        ["laws", flag, value, "--modality", "E", "--no-relator", "--signature", "prob"]
    )
    assert code == 2
    assert report.startswith("error: ") and "\n" not in report
    assert flag.lstrip("-") in report


def test_stdin_program(progdir, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("return 3"))
    code, report = run(["typecheck", "-", "--signature", "prob"])
    assert code == 0
    assert report == "type: F nat"


def test_config_file_discovery(progdir, monkeypatch):
    (progdir / "cbpv-quant.toml").write_text("signature = prob+nondet\nfuel = 8\n")
    monkeypatch.chdir(progdir)
    code, report = run(["sat", "coin.cbpv", "emax1.qf"])
    assert code == 0
    assert report.splitlines()[0] == "value = 0.5"


def test_flags_override_config(progdir, monkeypatch):
    (progdir / "cbpv-quant.toml").write_text("signature = prob\n")
    monkeypatch.chdir(progdir)
    # the file's signature lacks nor, the flag restores it
    code, _ = run(["typecheck", "coin.cbpv", "--signature", "prob+nondet"])
    assert code == 0
    code2, report2 = run(["typecheck", "coin.cbpv"])
    assert code2 == 2
    assert "unknown effect operator" in report2


def test_compare_both_flag_reports_each_direction(progdir):
    code, report = run(
        [
            "compare",
            *_paths(progdir, "costM.cbpv", "costN.cbpv"),
            "--signature",
            "cost+nondet",
            "--suite-size",
            "3",
            "--fuel",
            "16",
            "--both",
        ]
    )
    assert code == 1
    lines = report.splitlines()
    assert len(lines) == 2
    assert "Cpes<{7}>" in lines[0] or "Cpes<{7}>" in lines[1]
    assert "Copt<{7}>" in lines[0] or "Copt<{7}>" in lines[1]


def test_eval_json_structure(progdir):
    code, report = run(
        ["eval", *_paths(progdir, "coin.cbpv"), "--signature", "prob+nondet", "--fuel", "8", "--json"]
    )
    doc = json.loads(report)
    assert doc["tree"]["op"] == "por"
    assert doc["tree"]["children"][0] == {"leaf": "return 0"}


def test_sat_exact_flag(tmp_path):
    p = tmp_path / "geo.cbpv"
    p.write_text(r"fix (\f:U(F nat). por(return 0, force f))")
    q = tmp_path / "phi.qf"
    q.write_text("step(E<{0}>, 0.5)")
    code, report = run(
        ["sat", str(p), str(q), "--signature", "prob", "--fuel", "2", "--exact"]
    )
    assert code == 0
    # fuel 2 alone cannot certify the step; the exact retry loop can
    assert report.splitlines()[0] == "value = 1"


@pytest.mark.parametrize(
    "src, formula, value",
    [
        (r"fix (\f:U(F nat). por(return 0, por(return 0, por(fix (\g:U(F nat). force g), force f))))",
         "E<const 1>", "6/7"),
        (r"fix (\f:U(F nat). por(return 0, force f))", "E<{1}>", "0"),
        (r"fix (\f:U(F nat). por(return 0, por(return 1, force f)))", "E<{1}>", "1/3"),
        ("por(return 1, por(return 0, return 1))", "E<{1}>", "0.75"),
    ],
)
def test_sat_exact_solves_the_configuration_graph(tmp_path, src, formula, value):
    # the least fixed point over the graph, exact in Fraction: a non-dyadic
    # value prints as p/q, a dyadic one as before; fuel doubling from 16 hit
    # the recursion limit on the first two
    p = tmp_path / "prog.cbpv"
    p.write_text(src)
    q = tmp_path / "phi.qf"
    q.write_text(formula)
    code, report = run(["sat", str(p), str(q), "--signature", "prob", "--exact"])
    assert (code, report.splitlines()[0]) == (0, f"value = {value}")
    code, report = run(["sat", str(p), str(q), "--signature", "prob", "--exact", "--json"])
    assert json.loads(report)["interval"] == {"exact": True, "hi": value, "lo": value}


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
def test_resource_exhaustion_is_an_error_not_a_verdict(progdir, monkeypatch, exc):
    # exit code 1 means distinguished/refuted; running out of stack or
    # memory on legitimate input must report an error instead
    import cbpv_quant.cli as cli

    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "parse_program", exhausted)
    code, report = run(
        ["sat", *_paths(progdir, "coin.cbpv", "emax1.qf"), "--signature", "prob+nondet"]
    )
    assert code == 2
    assert report.startswith(f"error: {type(exc).__name__}")
    assert len(report.splitlines()) == 1


@pytest.mark.parametrize("fuel, schedule", [(1, (1,)), (2, (2,)), (16, (4, 16))])
def test_distinguish_fuel_schedule_stays_within_fuel(progdir, monkeypatch, fuel, schedule):
    # the search never runs above the fuel it reports, and tries each fuel once
    import cbpv_quant.cli as cli

    seen = []

    def record(left, right, max_size, sat, pools, fuel_schedule):
        seen.append(tuple(fuel_schedule))
        return None

    monkeypatch.setattr(cli, "find_distinguishing_formula", record)
    code, report = run(
        [
            "distinguish",
            *_paths(progdir, "costM.cbpv", "costN.cbpv"),
            "--signature",
            "cost+nondet",
            "--fuel",
            str(fuel),
        ]
    )
    assert code == 0
    assert seen == [schedule]
    assert report.endswith(f"at fuel {fuel}")


def test_argument_parser_is_built_once(progdir, monkeypatch):
    # run() builds its parser on the first call and reuses it; every report
    # matches a dispatch through a freshly built parser
    import cbpv_quant.cli as cli

    built = []
    real = cli.build_arg_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_arg_parser", counting)
    coin_sat = ["sat", *_paths(progdir, "coin.cbpv", "emax1.qf"), "--signature", "prob+nondet"]
    argvs = [
        coin_sat,
        ["typecheck", *_paths(progdir, "coin.cbpv"), "--signature", "prob+nondet"],
        ["eval", *_paths(progdir, "coin.cbpv"), "--signature", "prob+nondet", "--fuel", "8", "--json"],
        ["compare", *_paths(progdir, "costM.cbpv", "costN.cbpv"), "--signature", "cost+nondet"],
        ["distinguish", *_paths(progdir, "costM.cbpv", "costN.cbpv"), "--signature", "cost+nondet"],
        ["typecheck", *_paths(progdir, "bad.cbpv"), "--signature", "prob"],
        coin_sat + ["--exact", "--fuel", "2"],
        coin_sat,
    ]
    for argv in argvs:
        got = run(argv)
        args = real().parse_args(argv)
        try:
            fresh = args.fn(args)
        except Exception as e:  # the error mapping lives in run()
            fresh = (2, f"error: {e}")
        assert got == fresh
    assert len(built) == 1
    assert real() is not real()


def _write(path, data):
    path.write_bytes(data)
    return str(path)


def _on_costs(verb, d, *flags):
    return [verb, *_paths(d, "costM.cbpv", "costN.cbpv"), "--signature", "cost+nondet", *flags]


_MALFORMED = {
    "numerals-not-ints": lambda d: _on_costs("compare", d, "--numerals", "a,b"),
    "numerals-empty": lambda d: _on_costs("compare", d, "--numerals", ""),
    "numerals-negative": lambda d: _on_costs("compare", d, "--numerals", "-1"),
    "config-numerals-negative": lambda d: _on_costs(
        "compare", d, "--config", _write(d / "neg.toml", b"numerals = [0, -1]\n")
    ),
    "program-is-directory": lambda d: ["typecheck", str(d), "--signature", "prob"],
    "program-not-utf8": lambda d: [
        "typecheck", _write(d / "latin1.cbpv", b"return 0 // caf\xe9\n"), "--signature", "prob"
    ],
    "config-fuel-not-int": lambda d: [
        "sat", *_paths(d, "coin.cbpv", "emax1.qf"), "--config", _write(d / "bad.toml", b"fuel = abc\n")
    ],
    "suite-size-0": lambda d: _on_costs("compare", d, "--suite-size", "0"),
    "suite-size-negative": lambda d: _on_costs("compare", d, "--suite-size", "-2"),
    "max-size-0": lambda d: _on_costs("distinguish", d, "--max-size", "0"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_is_one_error_line(progdir, case):
    # bad input is an error (exit 2), never a traceback, a verdict or an
    # empty "no distinction" report
    code, report = run(_MALFORMED[case](progdir))
    assert code == 2
    assert report.startswith("error: ") and "\n" not in report


@pytest.mark.parametrize("key, items", [("locations", "l, r"), ("errors", "e1, e2"), ("numerals", "0, 1, 7")])
def test_list_flag_and_file_give_equal_configs(tmp_path, monkeypatch, key, items):
    # a flag's items and a file's bracketed items go through one splitter
    import cbpv_quant.cli as cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.toml").write_text(f"{key} = [{items}]\n")
    parser = cli.build_arg_parser()
    from_flag = cli._runtime(parser.parse_args(["compare", "a", "b", f"--{key}", items]))
    from_file = cli._runtime(parser.parse_args(["compare", "a", "b", "--config", "run.toml"]))
    assert from_flag.config == from_file.config


def test_laws_fuel_flag_sets_congruence_fuel(monkeypatch):
    import cbpv_quant.laws as laws

    fuels = []
    real = laws.compare

    def recording(m, n, suite, fuel, sat, *rest):
        fuels.append(fuel)
        return real(m, n, suite, fuel, sat, *rest)

    monkeypatch.setattr(laws, "compare", recording)
    argv = ["laws", "--modality", "E", "--samples", "1", "--trials", "2", "--no-relator"]
    code, _ = run(argv + ["--signature", "prob", "--fuel", "5"])
    assert code == 0
    assert fuels and set(fuels) == {5}


@pytest.mark.parametrize("signature", ["prob", "cost+nondet", "store", "prob+store"])
def test_laws_folds_the_store_modalities_at_the_store_flags(monkeypatch, signature):
    # G and EG take --locations and --value-bound under every signature, not
    # only under the store ones that build a store for their own runtime
    import cbpv_quant.cli as cli
    from cbpv_quant.lattice import StoreConfig

    seen = []
    real = cli.run_law_suite

    def recording(mods, *rest, **kw):
        seen.append([q.space.store for q in mods])
        return real(mods, *rest, **kw)

    monkeypatch.setattr(cli, "run_law_suite", recording)
    base = ["laws", "--modality", "G,EG", "--samples", "2", "--no-relator", "--no-congruence"]
    assert run(base + ["--signature", signature, "--locations", "a", "--value-bound", "2"])[0] == 0
    assert run(base + ["--signature", signature])[0] == 0
    assert seen == [[StoreConfig(("a",), 2)] * 2, [StoreConfig(("l", "r"), 3)] * 2]


@pytest.mark.parametrize("signature", ["prob", "cost"])
def test_laws_rejects_repeated_store_locations(signature):
    code, report = run(
        ["laws", "--modality", "G", "--locations", "l,l", "--samples", "1", "--no-relator",
         "--no-congruence", "--signature", signature]
    )
    assert code == 2
    assert report.startswith("error: ") and "\n" not in report
    assert "distinct" in report


@pytest.mark.parametrize("signature", ["prob+nondet+nondet", "prob+error+error", "nondet+prob+nondet"])
def test_typecheck_rejects_a_repeated_signature_component(progdir, signature):
    code, report = run(["typecheck", *_paths(progdir, "coin.cbpv"), "--signature", signature])
    assert code == 2
    assert report.startswith("error: ") and "\n" not in report
    assert "more than once" in report


@pytest.mark.parametrize("names", ["E,E", "E, Epes,E"])
def test_laws_rejects_a_repeated_modality(names):
    code, report = run(
        ["laws", "--modality", names, "--samples", "1", "--no-relator", "--no-congruence",
         "--signature", "prob"]
    )
    assert code == 2
    assert report.startswith("error: ") and "\n" not in report
    assert "'E'" in report


def test_laws_modality_list_strips_whitespace():
    base = ["laws", "--samples", "5", "--no-relator", "--no-congruence"]
    base += ["--signature", "prob+nondet", "--json"]
    spaced = run(base + ["--modality", "E, Epes"])
    assert spaced[0] == 0
    assert spaced == run(base + ["--modality", "E,Epes"])


_UNREAD_FLAGS = {
    "typecheck-fuel": ["typecheck", "-", "--fuel", "3"],
    "typecheck-numerals": ["typecheck", "-", "--numerals", "3,4"],
    "typecheck-seed": ["typecheck", "-", "--seed", "9"],
    "eval-numerals": ["eval", "-", "--numerals", "3,4"],
    "eval-seed": ["eval", "-", "--seed", "9"],
    "sat-numerals": ["sat", "-", "f.qf", "--numerals", "3,4"],
    "sat-seed": ["sat", "-", "f.qf", "--seed", "9"],
    "compare-seed": ["compare", "a", "b", "--seed", "9"],
    "distinguish-seed": ["distinguish", "a", "b", "--seed", "9"],
    "laws-numerals": ["laws", "--numerals", "3,4", "--signature", "prob"],
    "laws-depth": ["laws", "--depth", "3", "--signature", "prob"],
}


@pytest.mark.parametrize("case", list(_UNREAD_FLAGS))
def test_verb_refuses_a_setting_flag_it_does_not_read(case):
    # argparse refuses the flag before any input is read
    with pytest.raises(SystemExit) as exc:
        run(_UNREAD_FLAGS[case])
    assert exc.value.code == 2


def test_laws_ignores_a_config_files_numerals_but_refuses_the_flag(tmp_path):
    # a config file holds defaults every verb shares, so laws skips the
    # numerals key it does not use; the flag is refused
    base = ["laws", "--modality", "E", "--samples", "1", "--trials", "5", "--no-relator", "--json"]
    conf = tmp_path / "run.toml"
    conf.write_text("signature = prob\nnumerals = [3, 4]\n")
    from_file = run(base + ["--config", str(conf)])
    assert from_file[0] == 0
    assert from_file == run(base + ["--signature", "prob"])
    with pytest.raises(SystemExit) as exc:
        run(base + ["--signature", "prob", "--numerals", "3,4"])
    assert exc.value.code == 2
