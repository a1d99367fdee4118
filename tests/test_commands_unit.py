"""Pure-unit command tests: edge cases, the simulated-environment commands,
custom commands, and option-parsing behaviour not covered by the GNU
comparison."""
import pytest

from repro.commands import CommandError, ExecEnv, REGISTRY, run_cli
from repro.commands.base import parse_opts
from repro.commands.misc import gzip_to_b64
from repro.commands.textproc import bre_to_python


class TestParseOpts:
    def test_short_combined(self):
        opts, ops = parse_opts(["-rn", "x"], flags="rn")
        assert opts == {"r": True, "n": True} and ops == ["x"]

    def test_attached_argument(self):
        opts, ops = parse_opts(["-n5"], with_arg="n")
        assert opts["n"] == "5"

    def test_detached_argument(self):
        opts, _ = parse_opts(["-n", "5"], with_arg="n")
        assert opts["n"] == "5"

    def test_double_dash_ends_options(self):
        opts, ops = parse_opts(["--", "-r"], flags="r")
        assert opts == {} and ops == ["-r"]

    def test_hyphen_is_operand(self):
        _, ops = parse_opts(["-"], flags="r")
        assert ops == ["-"]

    def test_unknown_flag_raises(self):
        with pytest.raises(CommandError):
            parse_opts(["-z"], flags="r")

    def test_historic_numeric(self):
        opts, _ = parse_opts(["-15"], with_arg="n")
        assert opts["n"] == "15"

    def test_positions_recorded(self):
        pos = []
        _, ops = parse_opts(["-i", "pat", "-v", "file"], flags="iv", positions=pos)
        assert ops == ["pat", "file"] and pos == [1, 3]

    def test_k_accumulates(self):
        opts, _ = parse_opts(["-k", "1", "-k", "2"], with_arg="k")
        assert opts["k"] == ["1", "2"]


class TestBreConversion:
    @pytest.mark.parametrize("bre,text,matches", [
        ("a+b", "a+b", True),       # + literal in BRE
        ("a+b", "aab", False),
        (r"a\+", "aaa", True),      # \+ is the operator (GNU BRE)
        (r"\(ab\)\1", "abab", True),
        ("a{2}", "a{2}", True),     # braces literal
        ("[[:digit:]]", "x7", True),
        ("^x", "yx", False),
    ])
    def test_patterns(self, bre, text, matches):
        import re

        assert bool(re.search(bre_to_python(bre), text)) == matches


class TestEnvCommands:
    def test_curl_reads_vfs(self):
        env = ExecEnv(files={"http://x/a": ["hello"]})
        assert run_cli("curl", ["-s", "http://x/a"], [], env) == ["hello"]

    def test_curl_missing_url_errors(self):
        with pytest.raises(CommandError):
            run_cli("curl", ["-s", "http://nope"], [], ExecEnv())

    def test_gunzip_real_compression(self):
        blob = gzip_to_b64(["alpha", "beta"])
        assert blob != "alpha\nbeta"
        assert run_cli("gunzip", [], [blob], ExecEnv()) == ["alpha", "beta"]

    def test_gunzip_concatenated_members(self):
        b1, b2 = gzip_to_b64(["a"]), gzip_to_b64(["b", "c"])
        assert run_cli("gunzip", [], [b1, b2], ExecEnv()) == ["a", "b", "c"]

    def test_file_reports_types(self):
        env = ExecEnv(ftypes={"x": "Python script"})
        out = run_cli("file", ["x", "y"], [], env)
        assert out == ["x: Python script", "y: ASCII text"]

    def test_xargs_n1(self):
        env = ExecEnv(files={"u1": ["a"], "u2": ["b"]})
        assert run_cli("xargs", ["-n", "1", "curl", "-s"], ["u1", "u2"], env) == ["a", "b"]

    def test_xargs_single_batch(self):
        env = ExecEnv(ftypes={})
        out = run_cli("xargs", ["file"], ["f1 f2", "f3"], env)
        assert len(out) == 3

    def test_xargs_unknown_inner(self):
        with pytest.raises(CommandError):
            run_cli("xargs", ["nope"], ["x"], ExecEnv())


class TestCustomCommands:
    def test_bigrams(self):
        assert run_cli("bigrams_aux", [], ["a", "b", "c"], ExecEnv()) == ["a b", "b c"]

    def test_trigrams(self):
        out = run_cli("trigrams_aux", [], ["a", "b", "c", "d"], ExecEnv())
        assert out == ["a b c", "b c d"]

    def test_ngrams_skip_empty_lines(self):
        assert run_cli("bigrams_aux", [], ["a", "", "b"], ExecEnv()) == ["a b"]

    def test_strip_html(self):
        out = run_cli("strip_html", [], ['<p>Hello <b>world</b></p>'], ExecEnv())
        assert out == ["Hello world"]

    def test_url_extract(self):
        out = run_cli("url_extract", [], ['<a href="http://x">y</a>'], ExecEnv())
        assert out == ["http://x"]

    def test_word_stem(self):
        out = run_cli("word_stem", [], ["running", "cats", "be"], ExecEnv())
        assert out == ["runn", "cat", "be"]

    def test_cutadapt_trims(self):
        read = "ACGT" * 5 + "AGATCGGAAGAGC" + "TTTT"
        (out,) = run_cli("cutadapt_sim", [], [read], ExecEnv())
        # tolerant matching may clip a couple of bases before the adapter,
        # like cutadapt's partial-overlap mode; the adapter itself is gone
        assert read.startswith(out) and 14 <= len(out) <= 20
        assert "AGATCGGAAGAGC" not in out

    def test_echo(self):
        assert run_cli("echo", ["a", "b"], [], ExecEnv()) == ["a b"]

    def test_seq(self):
        assert run_cli("seq", ["3"], [], ExecEnv()) == ["1", "2", "3"]
        assert run_cli("seq", ["2", "4"], [], ExecEnv()) == ["2", "3", "4"]


class TestEdgeCases:
    def test_empty_input_everywhere(self):
        for name in ("cat", "grep", "sort", "uniq", "tac", "bigrams_aux", "tr"):
            args = {"grep": ["x"], "tr": ["a-z", "A-Z"]}.get(name, [])
            assert run_cli(name, args, [], ExecEnv()) == []

    def test_wc_empty(self):
        assert run_cli("wc", ["-l"], [], ExecEnv()) == ["0"]

    def test_wc_bytes_and_characters(self):
        # -c and -m both count UTF-8 bytes (LC_ALL=C); GNU prints -m first
        lines = ["abc", "dé"]
        assert run_cli("wc", ["-c"], lines, ExecEnv()) == ["8"]
        assert run_cli("wc", ["-m"], lines, ExecEnv()) == ["8"]
        for flags in (["-cm"], ["-mc"]):
            assert run_cli("wc", flags, lines, ExecEnv()) == ["      8       8"]

    def test_head_more_than_available(self):
        assert run_cli("head", ["-n", "10"], ["a"], ExecEnv()) == ["a"]

    def test_sort_stability_under_u(self):
        # -u keeps the first key-equal line in input order
        out = run_cli("sort", ["-nu"], ["10 z", "10 a"], ExecEnv())
        assert out == ["10 z"]

    @pytest.mark.parametrize("name,argv,expected", [
        ("cat", ["-", "-"], ["b", "a"]),
        ("cat", ["-", "f", "-"], ["b", "a", "f"]),
        ("sort", ["-", "-"], ["a", "b"]),
        ("sort", ["-m", "f", "-", "-"], ["b", "a", "f"]),
    ])
    def test_a_repeated_dash_reads_nothing(self, name, argv, expected):
        # as in GNU: the first ``-`` reads stdin to its end
        assert run_cli(name, argv, ["b", "a"], ExecEnv(files={"f": ["f"]})) == expected

    @pytest.mark.parametrize("argv", [
        ["-t", ",", "-k", "x"],
        ["-t", ",", "-k", "1,y"],
        ["-t", ",", "-k", "2r"],
    ])
    def test_sort_bad_key_errors_on_empty_input(self, argv):
        # the -k specs are parsed before any line is read, as GNU does
        with pytest.raises(CommandError):
            run_cli("sort", argv, [], ExecEnv())

    def test_grep_two_files_rejected(self):
        env = ExecEnv(files={"a": [], "b": []})
        with pytest.raises(CommandError):
            run_cli("grep", ["x", "a", "b"], [], env)

    def test_missing_file_errors(self):
        with pytest.raises(CommandError):
            run_cli("cat", ["nope.txt"], [], ExecEnv())

    def test_unknown_command_errors(self):
        with pytest.raises(CommandError):
            run_cli("doesnotexist", [], [], ExecEnv())

    def test_comm_requires_two_files(self):
        with pytest.raises(CommandError):
            run_cli("comm", ["a"], [], ExecEnv(files={"a": []}))

    def test_registry_is_populated(self):
        for must in ("cat", "grep", "tr", "cut", "sort", "uniq", "head",
                     "tail", "wc", "sed", "comm", "tac", "sha1sum", "xargs",
                     "awk", "curl", "gunzip", "bigrams_aux"):
            assert must in REGISTRY

    def test_awk_print_field(self):
        out = run_cli("awk", ["{print $2}"], ["a b c", "x y"], ExecEnv())
        assert out == ["b", "y"]

    def test_awk_regex_guard(self):
        out = run_cli("awk", ["/foo/ {print $1}"], ["foo bar", "baz"], ExecEnv())
        assert out == ["foo"]

    def test_awk_numeric_guard(self):
        out = run_cli("awk", ["$1 > 5 {print $0}"], ["3 a", "7 b"], ExecEnv())
        assert out == ["7 b"]

    def test_sed_newline_replacement_fans_out(self):
        out = run_cli("sed", [r"s/ /\n/g"], ["a b c"], ExecEnv())
        assert out == ["a", "b", "c"]


_RUNS = ["", "", "a", "A", "a", "b", "", "B", "b"]


@pytest.mark.parametrize("name,argv,stdin,expected", [
    # a SET1 that holds \n leaves line ends alone (GNU joins the lines: ROADMAP item 5)
    pytest.param("tr", ["\\n", "x"], ["a", "b"], ["a", "b"], id="set1-newline-translate"),
    pytest.param("tr", ["-d", "\\n"], ["a", "b"], ["a", "b"], id="set1-newline-delete"),
    # a character mapped to \n splits its line
    pytest.param("tr", [" ", "\\n"], ["a b", "c"], ["a", "b", "c"], id="map-to-newline-splits"),
    # a squeezed \n drops empty lines and empty pieces
    pytest.param("tr", ["-s", " ", "\\n"], ["a  b", "", "c"], ["a", "b", "c"],
                 id="squeezed-newline-drops-empties"),
    pytest.param("tr", ["-s", "\\n"], ["a", "", "", "b"], ["a", "b"], id="squeeze-newline-only"),
    # GNU keeps one leading empty line here: ROADMAP item 5
    pytest.param("tr", ["-s", " ", "\\n"], ["", " a  b ", "", "c"], ["a", "b", "c"],
                 id="squeezed-newline-at-stream-start"),
    pytest.param("tr", ["-cs", "A-Za-z", "\\n"], ["-- hello, world", "foo"],
                 ["hello", "world", "foo"], id="wf-first-line-starts-with-punct"),
    # -c and -dc never touch a line end (GNU's complement holds \n: ROADMAP item 5)
    pytest.param("tr", ["-c", "a", "x"], ["ab", "a"], ["ax", "a"], id="complement-keeps-line-ends"),
    pytest.param("tr", ["-dc", "a"], ["ab", "ba"], ["a", "a"], id="delete-complement-keeps-line-ends"),
    # a complement squeeze covers code points 0-255 only: 日日 stays
    pytest.param("tr", ["-cs", "a"], ["xxaa日日", "", "bb"], ["xaa日日", "b"],
                 id="complement-squeeze-0-255"),
    # -, ], \ and ^ match literally
    pytest.param("tr", ["-d", "]^\\\\-"], ["a-b]c^d\\e"], ["abcde"], id="literal-delete"),
    pytest.param("tr", ["-s", "^\\\\-"], ["^^\\\\--"], ["^\\-"], id="literal-squeeze"),
    # GNU also maps the line end: ROADMAP item 5
    pytest.param("tr", ["-c", "]^\\\\-", "x"], ["a-]^\\b"], ["x-]^\\x"], id="literal-complement"),
    # -ds deletes SET1, then squeezes SET2
    pytest.param("tr", ["-ds", "a", "b"], ["aabbcc", "bbxa", ""], ["bcc", "bx", ""],
                 id="delete-then-squeeze"),
    # empty input gives nothing; one empty line stays unless \n is squeezed
    pytest.param("tr", ["a", "b"], [], [], id="empty-input"),
    pytest.param("tr", ["a", "b"], [""], [""], id="one-empty-line"),
    # GNU prints the empty line: ROADMAP item 5
    pytest.param("tr", ["-s", "\\n"], [""], [], id="one-empty-line-squeezed"),
    pytest.param("uniq", ["-c"], _RUNS, ["      2 ", "      1 a", "      1 A", "      1 a",
                                         "      1 b", "      1 ", "      1 B", "      1 b"],
                 id="uniq-c"),
    pytest.param("uniq", ["-d"], _RUNS, [""], id="uniq-d"),
    pytest.param("uniq", ["-i"], _RUNS, ["", "a", "b", "", "B"], id="uniq-i"),
    pytest.param("uniq", ["-ci"], _RUNS, ["      2 ", "      3 a", "      1 b", "      1 ",
                                          "      2 B"], id="uniq-ci"),
    pytest.param("uniq", ["-cd"], _RUNS, ["      2 "], id="uniq-cd"),
])
def test_line_end_and_run_rules(name, argv, stdin, expected):
    assert run_cli(name, argv, stdin, ExecEnv()) == expected
