"""Command implementations validated against the real GNU binaries.

Every command our DFG nodes execute is compared byte-for-byte with
``/usr/bin/<cmd>`` under ``LC_ALL=C`` on randomized inputs — the
ground-truth oracle for node semantics (DESIGN.md §6).
"""
import random
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commands import CommandError, ExecEnv, diffseq, run_cli
from repro.compiler import compile_script, pash_seq

GNU_ENV = {"LC_ALL": "C", "PATH": "/usr/bin:/bin"}


def gnu(shell_cmd, stdin_lines):
    text = "".join(l + "\n" for l in stdin_lines)
    r = subprocess.run(shell_cmd, input=text, capture_output=True, text=True,
                       env=GNU_ENV, shell=True)
    return r.stdout.split("\n")[:-1]


def corpus(seed, n=300):
    random.seed(seed)
    words = ["apple", "Banana", "cherry", "date", "Fig", "grape", "kiwi",
             "lemon", "999", "42", "-7", "3.14", "UNIX", "shell"]
    return [" ".join(random.choices(words, k=random.randint(0, 8)))
            for _ in range(n)]


def utf8_corpus(seed, n=300):
    """``corpus`` with multi-byte UTF-8 words, whose characters and bytes
    differ in number."""
    random.seed(seed * 31 + 11)
    words = ["apple", "dé", "😀", "naïve", "日本語", "Ωmega", "42", "z"]
    return [" ".join(random.choices(words, k=random.randint(0, 8)))
            for _ in range(n)]


def alpha_corpus(seed, n=300):
    """Lines that start with a letter and are non-empty.

    Our tr is line-based (see commands/textproc.py): it matches GNU tr
    byte-for-byte except when a line *begins* with a character squeezed
    into the line separator (GNU merges the run with the preceding
    newline; a leading empty output line appears only in GNU). This
    corpus avoids that documented edge so the comparison is exact.
    """
    random.seed(seed * 977 + 5)
    words = ["apple", "Banana", "cherry", "date", "Fig", "grape", "kiwi",
             "lemon", "UNIX", "shell", "pipe"]
    tail = ["999", "42", "3.14", "!!", ""]
    return [" ".join(random.choices(words, k=random.randint(1, 6))
                     + random.choices(tail, k=1)) for _ in range(n)]


CASES = [
    ("cat", [], "cat"),
    ("cat", ["-n"], "cat -n"),
    ("grep", ["apple"], "grep apple"),
    ("grep", ["-i", "banana"], "grep -i banana"),
    ("grep", ["-v", "apple"], "grep -v apple"),
    ("grep", ["-iv", "fig"], "grep -iv fig"),
    ("grep", ["-c", "e"], "grep -c e"),
    ("grep", ["-E", "a+(pp|le)"], "grep -E 'a+(pp|le)'"),
    ("grep", ["-E", "(the|he)+ (and|nd)+"], "grep -E '(the|he)+ (and|nd)+'"),
    ("grep", ["-F", "3.14"], "grep -F '3.14'"),
    ("grep", ["-x", "42"], "grep -x 42"),
    ("grep", ["-w", "kiwi"], "grep -w kiwi"),
    ("grep", ["a.*e"], "grep 'a.*e'"),
    ("grep", ["[0-9]"], "grep '[0-9]'"),
    ("grep", ["-v", "^$"], "grep -v '^$'"),
    ("tr", ["A-Z", "a-z"], "tr A-Z a-z"),
    ("tr", ["a-z", "A-Z"], "tr a-z A-Z"),
    ("tr", ["-s", " "], "tr -s ' '"),
    ("tr", ["-d", "aeiou"], "tr -d aeiou"),
    ("tr", ["-c", "a-zA-Z0-9 \n", "_"], r"tr -c 'a-zA-Z0-9 \n' _"),
    ("tr", ["[:upper:]", "[:lower:]"], "tr '[:upper:]' '[:lower:]'"),
    ("tr", ["-d", "[:digit:]"], "tr -d '[:digit:]'"),
    ("tr", [" ", "\n"], r"tr ' ' '\n'"),
    ("tr", ["-d", "[:punct:]"], "tr -d '[:punct:]'"),
    ("tr", ["-ds", "a", "b"], "tr -ds a b"),
    ("cut", ["-d", " ", "-f1"], "cut -d ' ' -f1"),
    ("cut", ["-d", " ", "-f2"], "cut -d ' ' -f2"),
    ("cut", ["-d", " ", "-f1,3"], "cut -d ' ' -f1,3"),
    ("cut", ["-d", " ", "-f2-4"], "cut -d ' ' -f2-4"),
    ("cut", ["-d", " ", "-f3-"], "cut -d ' ' -f3-"),
    ("cut", ["-d", " ", "-f-2"], "cut -d ' ' -f-2"),
    ("cut", ["-d", " ", "-s", "-f1"], "cut -d ' ' -s -f1"),
    ("cut", ["-c", "1-5"], "cut -c 1-5"),
    ("cut", ["-c", "3"], "cut -c 3"),
    ("cut", ["-c", "89-92"], "cut -c 89-92"),
    ("cut", ["-d", " ", "-f3,1"], "cut -d ' ' -f3,1"),
    ("cut", ["-d", " ", "-f2-3,1-2"], "cut -d ' ' -f2-3,1-2"),
    ("cut", ["-c", "2-3,1-2"], "cut -c 2-3,1-2"),
    ("cut", ["-c", "4,1-2"], "cut -c 4,1-2"),
    ("sort", [], "sort"),
    ("sort", ["-r"], "sort -r"),
    ("sort", ["-n"], "sort -n"),
    ("sort", ["-rn"], "sort -rn"),
    ("sort", ["-u"], "sort -u"),
    ("sort", ["-un"], "sort -un"),
    ("uniq", [], "uniq"),
    ("uniq", ["-c"], "uniq -c"),
    ("uniq", ["-d"], "uniq -d"),
    ("uniq", ["-cd"], "uniq -cd"),
    ("wc", ["-l"], "wc -l"),
    ("wc", ["-w"], "wc -w"),
    ("wc", ["-c"], "wc -c"),
    ("wc", ["-lw"], "wc -lw"),
    ("wc", [], "wc"),
    ("head", ["-n", "7"], "head -n 7"),
    ("head", ["-n", "0"], "head -n 0"),
    ("head", ["-15"], "head -15"),
    ("tail", ["-n", "5"], "tail -n 5"),
    ("tail", ["-n", "+3"], "tail -n +3"),
    ("tac", [], "tac"),
    ("nl", [], "nl"),
    ("sha1sum", [], "sha1sum"),
    ("md5sum", [], "md5sum"),
    ("sed", ["s/apple/APPLE/"], "sed 's/apple/APPLE/'"),
    ("sed", ["s/apple/APPLE/g"], "sed 's/apple/APPLE/g'"),
    ("sed", ["s;^;PRE: ;"], "sed 's;^;PRE: ;'"),
    ("sed", ["s/a\\(p*\\)le/[\\1]/g"], r"sed 's/a\(p*\)le/[\1]/g'"),
    ("sed", ["s/e$/E/"], "sed 's/e$/E/'"),
    ("sed", ["3d"], "sed 3d"),
    ("sed", ["$d"], "sed '$d'"),
    ("sed", ["/apple/d"], "sed '/apple/d'"),
    ("sed", ["2q"], "sed 2q"),
    ("sed", ["-n", "4p"], "sed -n 4p"),
    ("sed", ["-n", "2,5p"], "sed -n 2,5p"),
    ("sed", ["s/ /_/g"], "sed 's/ /_/g'"),
    ("paste", [], "paste"),
    ("paste", ["-", "-"], "paste - -"),
    ("paste", ["-d", ":,", "-", "-", "-"], "paste -d ':,' - - -"),
    ("paste", ["-s", "-d", "\\n,"], r"paste -s -d '\n,'"),
    ("paste", ["-s", "-"], "paste -s -"),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,args,sh", CASES, ids=[f"{c[2]}" for c in CASES])
def test_command_matches_gnu(name, args, sh, seed):
    lines = corpus(seed)
    assert run_cli(name, args, lines, ExecEnv()) == gnu(sh, lines)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("args,sh", [(["-c"], "wc -c"), (["-m"], "wc -m"), ([], "wc")],
                         ids=["wc -c", "wc -m", "wc"])
def test_wc_counts_utf8_bytes_like_gnu(args, sh, seed):
    lines = utf8_corpus(seed)
    assert run_cli("wc", args, lines, ExecEnv()) == gnu(sh, lines)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,args,sh", [
    ("grep", ["-i", "ω"], "grep -i ω"),
    ("grep", ["-i", "DÉ"], "grep -i DÉ"),
    ("grep", ["\\w"], "grep '\\w'"),
    ("uniq", ["-i"], "uniq -i"),
    ("uniq", ["-ci"], "uniq -ci"),
], ids=["grep -i omega", "grep -i DE", "grep w", "uniq -i", "uniq -ci"])
def test_case_fold_and_word_class_are_ascii_like_gnu(name, args, sh, seed):
    # LC_ALL=C folds and classifies ASCII letters only: Ω is not ω's upper
    # case, and 日本語 holds no word character. Each line is followed by
    # its upper-cased copy, so uniq -i sees neighbours that differ in case.
    lines = [v for l in utf8_corpus(seed) for v in (l, l.upper())]
    assert run_cli(name, args, lines, ExecEnv()) == gnu(sh, lines)


def test_wc_words_like_gnu_on_edge_bytes():
    # in the C locale a word needs a printable ASCII byte, and only ASCII
    # whitespace separates words (not U+00A0 or the \x1c-\x1f separators)
    lines = ["😀 a", "😀", "a😀b", "x 😀 y", "é", "\x01", "a\x1cb", "a\xa0b", "", "a\tb"]
    assert run_cli("wc", ["-w"], lines, ExecEnv()) == gnu("wc -w", lines) == ["8"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,args,sh", [
    ("tr", ["-cs", "A-Za-z", "\n"], r"tr -cs A-Za-z '\n'"),
    ("tr", ["-s", "aeiou "], "tr -s 'aeiou '"),
    ("tr", ["-cs", "a-z", "\n"], r"tr -cs a-z '\n'"),
], ids=["cs-alpha-nl", "squeeze-set", "cs-lower-nl"])
def test_tr_newline_cases_match_gnu(name, args, sh, seed):
    # lowercase the lines so no line *starts* with a squeeze-mapped char
    # (the documented line-model edge; see alpha_corpus docstring)
    lines = [l.lower() for l in alpha_corpus(seed)]
    assert run_cli(name, args, lines, ExecEnv()) == gnu(sh, lines)


@pytest.mark.parametrize("name,args,sh", [
    ("sort", ["-rn"], "sort -rn"),
    ("uniq", ["-c"], "uniq -c"),
], ids=["sorted-rn", "sorted-uniq-c"])
def test_command_on_sorted_input_matches_gnu(name, args, sh):
    lines = sorted(corpus(3))
    assert run_cli(name, args, lines, ExecEnv()) == gnu(sh, lines)


def test_comm_flag_combos_match_gnu(tmp_path):
    a = sorted(set(corpus(5, 80)))
    b = sorted(set(corpus(6, 80)))
    (tmp_path / "a").write_text("".join(l + "\n" for l in a))
    (tmp_path / "b").write_text("".join(l + "\n" for l in b))
    env = ExecEnv(files={"a": a, "b": b})
    for flags in ([], ["-1"], ["-2"], ["-3"], ["-12"], ["-13"], ["-23"], ["-123"]):
        sh = f"comm {' '.join(flags)} {tmp_path}/a {tmp_path}/b"
        assert run_cli("comm", flags + ["a", "b"], [], env) == gnu(sh, []), flags


@pytest.mark.parametrize("args", [[], ["-c"], ["-ci"], ["-d"]], ids=["plain", "c", "ci", "d"])
@pytest.mark.parametrize("first", ["in.txt", "-"])
def test_uniq_writes_its_second_operand_like_gnu(tmp_path, args, first):
    """GNU uniq's second operand is its output file: uniq prints nothing and
    overwrites that file, so the script is no parallelizable region."""
    lines = sorted(corpus(12, 150) + [l.upper() for l in corpus(13, 60)], key=str.lower)
    old = corpus(14, 5)
    (tmp_path / "in.txt").write_text("".join(l + "\n" for l in lines))
    (tmp_path / "out.txt").write_text("".join(l + "\n" for l in old))
    script = " ".join(["uniq", *args, first, "out.txt"])
    r = subprocess.run(["bash", "-c", script], cwd=tmp_path, capture_output=True, text=True,
                       input="".join(l + "\n" for l in lines), env=GNU_ENV, check=True)
    assert r.stdout == ""
    written = (tmp_path / "out.txt").read_text().split("\n")[:-1]
    env = ExecEnv(files={"in.txt": lines, "out.txt": old})
    assert pash_seq(script, env, stdin=lines) == []
    assert env.files["out.txt"] == written
    assert [step.kind for step in compile_script(script).steps] == ["opaque"]


def test_uniq_rejects_a_third_operand_like_gnu(tmp_path):
    (tmp_path / "a").write_text("x\n")
    r = subprocess.run(["uniq", "a", "b", "c"], cwd=tmp_path, capture_output=True,
                       text=True, env=GNU_ENV)
    assert r.returncode == 1 and "extra operand 'c'" in r.stderr
    with pytest.raises(CommandError, match="extra operand 'c'"):
        run_cli("uniq", ["a", "b", "c"], [], ExecEnv(files={"a": ["x"]}))


def test_sort_k_with_separator_matches_gnu():
    lines = [f"{random.randint(0,9)} {w} {random.randint(0,99)}"
             for w in corpus(7, 100)]
    mine = run_cli("sort", ["-t", " ", "-k", "2"], lines, ExecEnv())
    theirs = gnu("sort -t ' ' -k 2", lines)
    assert mine == theirs


@pytest.mark.parametrize("args,sh", [
    (["-s", "-t", " ", "-k", "2,2"], "sort -s -t ' ' -k 2,2"),
    (["-rs", "-t", " ", "-k", "2,2"], "sort -rs -t ' ' -k 2,2"),
    (["-sn"], "sort -sn"),
    (["-rsn"], "sort -rsn"),
    (["-s"], "sort -s"),
])
def test_sort_stable_keeps_input_order_of_equal_keys(args, sh):
    # -s drops the last-resort whole-line compare, as -u does
    lines = ["b 1", "a 1", "c 0"] + [f"{w} {random.Random(i).randint(0, 3)}"
                                     for i, w in enumerate(corpus(11, 150))]
    assert run_cli("sort", args, lines, ExecEnv()) == gnu(sh, lines)


@pytest.mark.parametrize("args,sh", [(["-n"], "sort -n"), (["-rn"], "sort -rn")])
def test_sort_numeric_reads_ascii_digits_only(args, sh):
    # under LC_ALL=C an Arabic-Indic or full-width digit starts no number
    lines = ["\u0663", "2", "\uff11", "-1", "\u0661\u0660 x", "10"]
    assert run_cli("sort", args, lines, ExecEnv()) == gnu(sh, lines)


def test_sort_file_operand():
    lines = corpus(8)
    env = ExecEnv(files={"f.txt": lines})
    assert run_cli("sort", ["f.txt"], [], env) == sorted(lines)


def test_pipeline_chains_match_gnu():
    lines = corpus(9, 500)
    mine = run_cli("uniq", ["-c"], run_cli(
        "sort", [], run_cli("tr", ["A-Z", "a-z"], lines, ExecEnv()), ExecEnv()),
        ExecEnv())
    theirs = gnu("tr A-Z a-z | sort | uniq -c", lines)
    assert mine == theirs


def test_wf_pipeline_matches_gnu():
    lines = alpha_corpus(10, 400)
    cur = lines
    for name, args in [("tr", ["-cs", "A-Za-z", "\n"]), ("tr", ["A-Z", "a-z"]),
                       ("sort", []), ("uniq", ["-c"]), ("sort", ["-rn"])]:
        cur = run_cli(name, args, cur, ExecEnv())
    theirs = gnu(r"tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn", lines)
    assert cur == theirs


# --------------------------------------------------------------------------
# diff: GNU's hunks, compared on files
# --------------------------------------------------------------------------

needs_gnu_diff = pytest.mark.skipif(shutil.which("diff", path=GNU_ENV["PATH"]) is None,
                                    reason="diff is not on PATH")


def gnu_diff(a, b, operands=("a", "b")):
    """GNU ``diff`` over ``a`` and ``b`` written to files ``a`` and ``b``.
    An operand ``-`` reads stdin, which holds ``a`` when the first operand
    is ``-`` and ``b`` otherwise."""
    with tempfile.TemporaryDirectory() as d:
        for name, lines in (("a", a), ("b", b)):
            Path(d, name).write_bytes("".join(l + "\n" for l in lines).encode())
        with open(Path(d, "a" if operands[0] == "-" else "b"), "rb") as stdin:
            r = subprocess.run(["diff", *operands], stdin=stdin, cwd=d, capture_output=True,
                               encoding="utf-8", env=GNU_ENV)
    assert r.returncode in (0, 1), r.stderr  # 1: the files differ
    return r.stdout.split("\n")[:-1]


def our_diff(a, b, operands=("a", "b")):
    stdin = a if operands[0] == "-" else b
    return run_cli("diff", list(operands), stdin, ExecEnv(files={"a": a, "b": b}))


@st.composite
def diff_inputs(draw, min_lines, max_lines):
    """Two files for ``diff``. A line is, at a drawn rate, a rare line that
    mostly matches nothing in the other file (a definite discard), else one
    of a small alphabet, so it repeats and GNU discards some such lines
    provisionally. The second file is drawn afresh or is the first with
    edits."""
    rnd = draw(st.randoms(use_true_random=False))
    common = draw(st.lists(st.text("ab ", max_size=2), min_size=1, max_size=4, unique=True))
    rare = draw(st.floats(0, 1))

    def line():
        return f"x{rnd.randrange(1000)}" if rnd.random() < rare else rnd.choice(common)

    a = [line() for _ in range(draw(st.integers(min_lines, max_lines)))]
    if draw(st.booleans()):
        return a, [line() for _ in range(draw(st.integers(min_lines, max_lines)))]
    b = list(a)
    for _ in range(draw(st.integers(0, 12))):
        p = rnd.randrange(len(b) + 1)
        b[p:p + rnd.randrange(4)] = [line() for _ in range(rnd.randrange(4))]
    return a, b


# GNU's threshold for a provisional discard doubles at 256 lines
@needs_gnu_diff
@given(diff_inputs(0, 255))
@settings(max_examples=150, deadline=None)
def test_diff_matches_gnu_under_256_lines(pair):
    assert our_diff(*pair) == gnu_diff(*pair)


@needs_gnu_diff
@given(diff_inputs(257, 600))
@settings(max_examples=30, deadline=None)
def test_diff_matches_gnu_over_256_lines(pair):
    assert our_diff(*pair) == gnu_diff(*pair)


DIFF_CASES = {
    "both-empty": ([], []),
    "first-empty": ([], ["a", "b"]),
    "second-empty": (["a", "b"], []),
    "identical": (corpus(12, 40), corpus(12, 40)),
    "all-equal-lines": (["same"] * 20, ["same"] * 13),
    "one-common-line": (["a", "b", "c"], ["x", "b", "y"]),
    # Myers' example: several longest common subsequences
    "non-unique-lcs": (list("abcabba"), list("cbabac")),
    "swapped": (["a", "b"], ["b", "a"]),
    # "c" matches 6 lines of the second file, more than GNU's threshold of
    # 5, and sits inside a run of unmatched lines: GNU discards it, so it
    # is not matched with any of them
    "provisional-discard": ([f"u{i}" for i in range(10)] + ["c"]
                            + [f"u{i}" for i in range(10, 20)], ["c"] * 6),
    "non-ascii-and-empty-lines": (["é", "", "a", "日本", ""], ["a", "", "é", ""]),
    "shifted-boundaries": (["a", "b", "a", "b", "c"], ["a", "b", "c"]),
}


@needs_gnu_diff
@pytest.mark.parametrize("case", list(DIFF_CASES))
def test_diff_cases_match_gnu(case):
    a, b = DIFF_CASES[case]
    assert our_diff(a, b) == gnu_diff(a, b)


@needs_gnu_diff
@pytest.mark.parametrize("operands", [("-", "b"), ("a", "-"), ("-", "-")])
def test_diff_stdin_operand_matches_gnu(operands):
    a, b = corpus(13, 60), corpus(14, 60)
    assert our_diff(a, b, operands) == gnu_diff(a, b, operands)


@needs_gnu_diff
def test_diff_too_expensive_cut_off_matches_gnu(monkeypatch):
    # 8300 lines against 10 over two letters: no line is discarded, and the
    # cheapest edit script costs more than 8192, so the middle snake passes
    # GNU's too_expensive cost of 4096 before its two searches meet and
    # settles for the furthest point one of them reached
    rnd = random.Random(1)
    a = [rnd.choice("ab") for _ in range(8300)]
    b = [rnd.choice("ab") for _ in range(10)]
    midpoints = []
    diag = diffseq._diag

    def recorded(*args):
        midpoints.append(diag(*args))
        return midpoints[-1]

    monkeypatch.setattr(diffseq, "_diag", recorded)
    assert our_diff(a, b) == gnu_diff(a, b)
    # a cut-off leaves one half of the split to be found minimally
    assert any(lo_minimal != hi_minimal for _, _, lo_minimal, hi_minimal in midpoints)
