import math
import re

import pytest

from cbpv_quant.config import (
    ConfigError,
    RunConfig,
    build_runtime,
    build_signature,
    parse_config,
    parse_truth_value,
)
from cbpv_quant.lattice import StateSetSpace, StateTableSpace, StoreConfig
from cbpv_quant.parser import ParseError


def test_parse_config_document():
    cfg = parse_config(
        """
        # example run configuration
        signature = store+error
        locations = [l, r]
        value_bound = 3
        errors = [e1, e2]
        error_valuation.G.e1 = states{l=1}
        fuel = 12
        numerals = [0, 1, 7]
        """
    )
    assert cfg.signature == "store+error"
    assert cfg.locations == ("l", "r")
    assert cfg.errors == ("e1", "e2")
    assert cfg.fuel == 12
    assert cfg.error_valuations == (("G", "e1", "states{l=1}"),)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("mystery = 3")


def test_unknown_signature_rejected():
    with pytest.raises(ConfigError, match="unknown signature"):
        build_runtime(RunConfig(signature="quantum"))


def test_signatures_and_spaces():
    cases = {
        "prob": ("unit", ["E"]),
        "prob+nondet": ("unit", ["Eopt", "Epes"]),
        "store": ("stateset", ["G"]),
        "store+nondet": ("stateset", ["Gopt", "Gpes"]),
        "prob+store": ("statetable", ["EG"]),
        "cost": ("cost", ["C"]),
        "cost+nondet": ("cost", ["Copt", "Cpes"]),
        "store+error": ("stateset", ["G", "Gf"]),
    }
    for signame, (space, mods) in cases.items():
        rt = build_runtime(RunConfig(signature=signame))
        assert rt.space.name == space, signame
        assert list(rt.modalities) == mods, signame


def test_signature_operators():
    sig = build_signature(RunConfig(signature="prob+store+nondet+error", locations=("l",), errors=("e",)))
    assert set(sig.ops) == {"por", "lookup[l]", "update[l]", "nor", "raise[e]"}


def test_truth_space_override_consistency():
    with pytest.raises(ConfigError, match="inconsistent"):
        build_runtime(RunConfig(signature="prob", truth_space="cost"))
    rt = build_runtime(RunConfig(signature="prob+nondet", truth_space="bool"))
    assert rt.space.name == "bool"
    assert list(rt.modalities) == ["may", "must"]


@pytest.mark.parametrize(
    "signature, errors, lacking",
    [
        ("store", (), "lookup[l], update[l]"),
        ("cost", (), "cost"),
        ("prob+error", ("e",), "raise[e]"),
    ],
)
def test_bool_truth_space_refuses_operators_without_a_boolean_combinator(signature, errors, lacking):
    # may/must combine binary operators only; a signature with any other
    # operator is refused up front, not when a program reaches it
    cfg = RunConfig(signature=signature, truth_space="bool", locations=("l",), errors=errors)
    with pytest.raises(ConfigError, match=re.escape(f"no Boolean combinator for {lacking} of signature")):
        build_runtime(cfg)


def test_bool_truth_space_refusal_exits_2(tmp_path):
    from cbpv_quant.cli import run

    prog = tmp_path / "upd.cbpv"
    prog.write_text("update[l](1, return 0)\n")
    conf = tmp_path / "run.toml"
    conf.write_text("signature = store\ntruth_space = bool\nlocations = [l]\n")
    code, report = run(["sat", str(prog), "may<{0}>", "--config", str(conf)])
    assert code == 2
    assert report == (
        "error: truth_space 'bool' has no Boolean combinator for lookup[l], update[l]"
        " of signature 'store'"
    )


def test_error_valuation_defaults_to_bottom():
    rt = build_runtime(RunConfig(signature="cost+error", errors=("e1", "e2")))
    cf = rt.modalities["Cf"]
    from cbpv_quant.trees import Node
    from spec import denote_limit

    assert denote_limit(cf, Node("raise[e1]", ())) == math.inf


def test_parse_truth_values():
    store = StoreConfig(("l",), 2)
    sp = StateSetSpace(store)
    assert parse_truth_value("top", sp) == sp.top
    assert parse_truth_value("bot", sp) == sp.bot
    assert parse_truth_value("states{l=1}", sp) == frozenset({(1,)})
    from cbpv_quant.lattice import UnitIntervalSpace

    assert parse_truth_value("0.5", UnitIntervalSpace()) == 0.5


def test_parse_state_table_values():
    # a state table reads back as it prints: unlisted states take 0, store
    # values wrap mod V, and a state listed twice is an error
    sp = StateTableSpace(StoreConfig(("l", "r"), 2))
    assert parse_truth_value("{[l=1 r=0]: 0.5, [r=1]: 1e-05}", sp) == (0.0, 1e-05, 0.5, 0.0)
    assert parse_truth_value("{[l=3]: 1}", sp) == (0.0, 0.0, 1.0, 0.0)
    assert parse_truth_value("{}", sp) == sp.bot
    table = (0.25, 0.0, 1.0, 0.5)
    assert parse_truth_value(sp.render(table), sp) == table
    with pytest.raises(ParseError, match="listed twice"):
        parse_truth_value("{[l=1]: 0.5, [l=1 r=0]: 1}", sp)
    with pytest.raises(ConfigError, match="outside the statetable space"):
        parse_truth_value("{[l=1]: 2}", sp)


@pytest.mark.parametrize(
    "text, message",
    [
        ("fuel = abc", "line 1: fuel: invalid literal"),
        ("\nsuite_size = 0", "line 2: suite_size: must be at least 1, got 0"),
        ("numerals = [0, x]", "line 1: numerals: invalid literal"),
        ("numerals = []", "line 1: numerals: needs at least one numeral"),
        ("numerals = [0, -1]", "line 1: numerals: must be non-negative, got -1"),
        ("locations = l, r", "line 1: expected a [a, b] list"),
    ],
)
def test_bad_values_name_their_line(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
