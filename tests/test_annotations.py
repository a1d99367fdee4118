"""Annotation language: predicate evaluation, clause resolution, JSON-ness."""
import json

import pytest

from repro.annotations import (
    CLASS_E, CLASS_N, CLASS_P, CLASS_S, LIBRARY, resolve_invocation,
)
from repro.annotations.model import _eval_predicate


class TestPredicates:
    def test_exists(self):
        assert _eval_predicate({"operator": "exists", "operands": ["-r"]}, {"r": True}, [])
        assert not _eval_predicate({"operator": "exists", "operands": ["-r"]}, {}, [])

    def test_value(self):
        p = {"operator": "value", "operands": ["-n", "1"]}
        assert _eval_predicate(p, {"n": "1"}, [])
        assert not _eval_predicate(p, {"n": "2"}, [])

    def test_all_any_not(self):
        e1 = {"operator": "exists", "operands": ["-a"]}
        e2 = {"operator": "exists", "operands": ["-b"]}
        assert _eval_predicate({"operator": "all", "operands": [e1, e2]},
                               {"a": True, "b": True}, [])
        assert _eval_predicate({"operator": "any", "operands": [e1, e2]},
                               {"b": True}, [])
        assert _eval_predicate({"operator": "not", "operands": [e1]}, {}, [])

    def test_regex_on_operand(self):
        p = {"operator": "regex", "operands": ["args[0]", r"^s"]}
        assert _eval_predicate(p, {}, ["s/a/b/"])
        assert not _eval_predicate(p, {}, ["3d"])
        assert not _eval_predicate(p, {}, [])  # operand absent

    def test_regex_on_option_value(self):
        p = {"operator": "regex", "operands": ["opt[n]", r"^\+"]}
        assert _eval_predicate(p, {"n": "+2"}, [])
        assert not _eval_predicate(p, {"n": "2"}, [])

    def test_default(self):
        assert _eval_predicate("default", {}, [])


class TestResolution:
    @pytest.mark.parametrize("name,argv,cls", [
        ("cat", [], CLASS_S),
        ("cat", ["-n"], CLASS_P),
        ("grep", ["x"], CLASS_S),
        ("grep", ["-c", "x"], CLASS_P),
        ("tr", ["A-Z", "a-z"], CLASS_S),
        ("cut", ["-d", " ", "-f1"], CLASS_S),
        ("sed", ["s/a/b/"], CLASS_S),
        ("sed", ["/x/d"], CLASS_S),
        ("sed", ["3d"], CLASS_N),
        ("sed", ["-n", "3p"], CLASS_N),
        ("sort", [], CLASS_P),
        ("sort", ["-rn"], CLASS_P),
        ("sort", ["-m", "a", "b"], CLASS_N),
        ("uniq", [], CLASS_P),
        ("uniq", ["-c"], CLASS_P),
        ("uniq", ["-d"], CLASS_N),
        ("head", ["-n", "5"], CLASS_P),
        ("tail", ["-n", "5"], CLASS_P),
        ("tail", ["-n", "+2"], CLASS_N),
        ("tac", [], CLASS_P),
        ("wc", ["-l"], CLASS_P),
        ("comm", ["a", "b"], CLASS_P),
        ("comm", ["-13", "a", "-"], CLASS_S),
        ("comm", ["-23", "a", "b"], CLASS_S),
        ("sha1sum", [], CLASS_N),
        ("diff", ["a", "b"], CLASS_N),
        ("awk", ["{print $1}"], CLASS_N),
        ("xargs", ["-n", "1", "curl", "-s"], CLASS_S),
        ("xargs", ["file"], CLASS_S),
        ("xargs", ["-L", "1", "wc", "-l"], CLASS_S),
        ("xargs", ["rm"], CLASS_E),
        ("bigrams_aux", [], CLASS_P),
        ("strip_html", [], CLASS_S),
        ("word_stem", [], CLASS_S),
        ("gunzip", [], CLASS_S),
        ("curl", ["-s", "http://x"], CLASS_N),
    ])
    def test_class_resolution(self, name, argv, cls):
        assert resolve_invocation(name, argv).cls == cls

    def test_unknown_command_is_conservative(self):
        assert resolve_invocation("frobnicate", []).cls == CLASS_E

    def test_unknown_flag_is_conservative(self):
        # grep -Z is not in the annotation's parse spec -> conservative E
        assert resolve_invocation("grep", ["-Z", "x"]).cls == CLASS_E

    def test_comm_static_inputs(self):
        r = resolve_invocation("comm", ["-13", "dict.txt", "-"])
        assert r.inputs == [1] and r.static_inputs == [0]
        r = resolve_invocation("comm", ["-23", "a", "b"])
        assert r.inputs == [0] and r.static_inputs == [1]

    def test_aggregator_names(self):
        assert resolve_invocation("sort", ["-rn"]).aggregator == "rerun"
        assert resolve_invocation("uniq", ["-c"]).aggregator == "uniq_c"
        assert resolve_invocation("wc", ["-l"]).aggregator == "wc"
        assert resolve_invocation("grep", ["-c", "x"]).aggregator == "sum"
        assert resolve_invocation("bigrams_aux", []).aggregator == "ngrams2"

    def test_map_argv_override(self):
        r = resolve_invocation("cat", ["-n"])
        assert r.map_argv == ["cat"]
        r = resolve_invocation("bigrams_aux", [])
        assert r.map_argv == ["bigrams_aux_map"]

    def test_operand_positions(self):
        r = resolve_invocation("grep", ["-i", "pat", "file"])
        assert r.operands == ["pat", "file"]
        assert r.operand_pos == [1, 2]

    @pytest.mark.parametrize("name,argv,expected", [
        ("sort", ["-k", "2", "-t", ",", "a.txt", "-"], ["-k", "2", "-t", ","]),
        ("head", ["-5", "f"], ["-5"]),
        ("cat", ["-n", "f"], ["-n"]),
        ("comm", ["-23", "a", "b"], ["-23", "b"]),  # the static operand stays
    ])
    def test_stdin_argv_drops_streaming_operands(self, name, argv, expected):
        assert resolve_invocation(name, argv).stdin_argv == expected

    def test_grep_inputs_fall_back_to_stdin(self):
        assert resolve_invocation("grep", ["x"]).inputs == ["stdin"]
        assert resolve_invocation("grep", ["x", "f"]).inputs == [1]

    @pytest.mark.parametrize("name,argv,inputs", [
        ("cat", ["-", "-"], [0]),
        ("cat", ["-", "f", "-"], [0, 1]),
        ("sort", ["-r", "f", "-", "-"], [0, 1]),
        ("diff", ["-", "-"], [0]),
    ])
    def test_a_repeated_dash_is_no_input(self, name, argv, inputs):
        # the first ``-`` reads stdin to its end
        assert resolve_invocation(name, argv).inputs == inputs


class TestLibraryHygiene:
    def test_json_round_trip(self):
        blob = json.dumps(LIBRARY)
        assert json.loads(blob) == LIBRARY

    def test_all_records_have_default_case(self):
        for name, rec in LIBRARY.items():
            if "hook" in rec:
                continue
            assert rec["cases"][-1]["predicate"] == "default", name

    def test_aggregators_exist(self):
        from repro.runtime.aggregators import AGGREGATORS

        for name, rec in LIBRARY.items():
            for case in rec.get("cases", []):
                agg = case.get("aggregator")
                if agg:
                    assert agg in AGGREGATORS, (name, agg)

    def test_commands_implemented(self):
        from repro.commands import REGISTRY

        for name in LIBRARY:
            assert name in REGISTRY, name
