"""Graph transformations (§4.3): structure and semantics preservation."""
import random

import pytest

from repro.commands.base import ExecEnv
from repro.compiler import compile_script
from repro.compiler.backend_seq import run_dfg_seq, run_seq
from repro.dfg.transform import parallelize


def dfg_of(src):
    steps = compile_script(src).steps
    assert len(steps) == 1 and steps[0].kind == "dfg"
    return steps[0].dfg


def make_env():
    random.seed(7)
    words = ["apple", "banana", "Cherry", "date", "fig", "grape"]
    lines = [" ".join(random.choices(words, k=random.randint(1, 6)))
             for _ in range(400)]
    return ExecEnv(files={
        "in.txt": lines,
        "in2.txt": lines[::-1],
        "dict.txt": sorted(set(w.lower() for w in words[:4])),
    })


SCRIPTS = [
    "cat in.txt | tr A-Z a-z | grep a",
    "cat in.txt | tr A-Z a-z | sort",
    'cat in.txt | tr -cs A-Za-z "\\n" | sort | uniq -c | sort -rn | head -n 5',
    "cat in.txt | tr -cs A-Za-z \"\\n\" | sort | uniq | comm -13 dict.txt -",
    "cat in.txt | tr A-Z a-z | sort | sort -r",
    "cat in.txt in2.txt | sort -u",
    "sort <(cat in.txt | grep a) <(grep b in2.txt)",
    "comm -23 <(cat in.txt | sort) <(cat in2.txt | sort)",
    "diff <(cat in.txt | sort) <(cat in2.txt | sort)",
    "cat in.txt | sha1sum",
    "cat in.txt | grep -c apple",
    'cat in.txt | tr -cs A-Za-z "\\n" | bigrams_aux | sort | uniq',
    "cat in.txt | tac | head -n 3",
    "cat in.txt | cat -n | grep 5",
    # copies of a node with two streaming operands read their chunk on stdin
    "cut -d ' ' -f 2 in.txt in2.txt | sort",
    "sed s/a/A/ in.txt in2.txt | grep -c A",
    # a map_argv clause over two files
    "cat -n in.txt in2.txt | grep 5",
]


@pytest.mark.parametrize("width", [1, 2, 4, 16])
@pytest.mark.parametrize("split", [True, False], ids=["split", "nosplit"])
@pytest.mark.parametrize("eager", [True, False], ids=["eager", "noeager"])
@pytest.mark.parametrize("src", SCRIPTS)
def test_parallelize_preserves_semantics(src, width, split, eager):
    env = make_env()
    expected = run_seq(src, ExecEnv(files=dict(env.files)))
    g = dfg_of(src)
    tg = parallelize(g, width, enable_split=split, enable_eager=eager)
    got = run_dfg_seq(tg, ExecEnv(files=dict(env.files)))
    assert got == expected


class TestStructure:
    def test_stateless_replication(self):
        g = dfg_of("cat in.txt | grep a")
        tg = parallelize(g, 4)
        greps = [n for n in tg.nodes.values() if n.cmd == "grep"]
        assert len(greps) == 4
        assert all(n.kind == "map" for n in greps)

    def test_file_input_chunked_without_split_node(self):
        # graph-input files are statically chunkable: no split runtime node
        g = dfg_of("cat in.txt | grep a")
        tg = parallelize(g, 4)
        assert tg.node_count(["split"]) == 0
        chunked = [e for e in tg.edges.values() if e.chunk is not None]
        assert len(chunked) == 4
        assert [e.chunk for e in chunked] == [(k, 4) for k in range(4)]

    def test_p_becomes_maps_plus_agg_tree(self):
        g = dfg_of("cat in.txt | sort")
        tg = parallelize(g, 8)
        h = tg.kind_histogram()
        sort_maps = [n for n in tg.nodes.values()
                     if n.kind == "map" and n.cmd == "sort"]
        assert len(sort_maps) == 8    # 8 sort maps
        assert h["agg"] == 7          # binary merge tree
        assert h["eager"] == 14       # two eager relays per aggregator
        # the paper's count for Sort at width 8: 8+8+7+14 = 37 processes
        # (8 tr, 8 sort, 7 aggregation, 14 relay); ours has grep->cat's tr
        # replaced by the chunked cat maps

    def test_split_inserted_mid_pipeline(self):
        # after sort's aggregator the width is 1; the second sort needs a
        # runtime split node
        g = dfg_of("cat in.txt | sort | sort -r")
        tg = parallelize(g, 4, enable_split=True)
        assert tg.node_count(["split"]) == 1
        tg2 = parallelize(g, 4, enable_split=False)
        assert tg2.node_count(["split"]) == 0
        # without split the second sort stays sequential (one cmd node)
        sorts2 = [n for n in tg2.nodes.values()
                  if n.cmd == "sort" and n.argv == ("-r",)]
        assert len(sorts2) == 1 and sorts2[0].kind == "cmd"

    def test_no_eager_removes_relays(self):
        g = dfg_of("cat in.txt | sort | sort -r")
        assert parallelize(g, 4, enable_eager=False).node_count(["eager"]) == 0

    def test_width_one_is_identityish(self):
        g = dfg_of("cat in.txt | grep a | sort")
        tg = parallelize(g, 1)
        assert tg.kind_histogram().get("map", 0) == 0
        assert tg.node_count(["split", "eager", "agg"]) == 0

    def test_n_node_is_width_sink(self):
        g = dfg_of("cat in.txt | sha1sum")
        tg = parallelize(g, 4)
        shas = [n for n in tg.nodes.values() if n.cmd == "sha1sum"]
        assert len(shas) == 1 and shas[0].kind == "cmd"
        # the plain cat dissolved and nothing upstream was worth widening:
        # the whole graph stays sequential (no maps, no split)
        assert tg.kind_histogram().get("map", 0) == 0
        assert tg.node_count(["split"]) == 0

    def test_n_node_merges_parallel_bundle_with_cat(self):
        g = dfg_of("cat in.txt | grep a | sha1sum")
        tg = parallelize(g, 4)
        # grep parallelizes (4 maps); sha1sum needs the concatenation back
        assert len([n for n in tg.nodes.values() if n.cmd == "grep"]) == 4
        assert tg.node_count(["cat"]) >= 1

    def test_static_inputs_replicated(self):
        g = dfg_of("cat in.txt | sort | uniq | comm -13 dict.txt -")
        tg = parallelize(g, 4)
        comms = [n for n in tg.nodes.values() if n.cmd == "comm"]
        assert len(comms) == 4
        for n in comms:
            assert len(n.statics) == 1
            assert tg.edges[n.statics[0]].label == "dict.txt"

    def test_pipe_fed_static_teed(self):
        g = dfg_of("comm -23 <(cat in.txt | sort) <(cat in2.txt | sort)")
        tg = parallelize(g, 4)
        tees = [n for n in tg.nodes.values() if n.kind == "relay"]
        assert len(tees) == 1 and len(tees[0].outputs) == 4

    def test_node_counts_grow_with_width(self):
        g = dfg_of('cat in.txt | tr -cs A-Za-z "\\n" | sort | uniq -c | sort -rn')
        n16 = len(parallelize(g, 16).nodes)
        n64 = len(parallelize(g, 64).nodes)
        assert n16 < n64
        assert n64 / n16 > 3  # roughly linear in width, like Tab. 2

    def test_ngrams_gets_nary_agg(self):
        g = dfg_of("cat in.txt | bigrams_aux")
        tg = parallelize(g, 4)
        aggs = [n for n in tg.nodes.values() if n.kind == "agg"]
        assert len(aggs) == 1 and len(aggs[0].inputs) == 4
        maps = [n for n in tg.nodes.values() if n.kind == "map"]
        assert any(n.cmd == "bigrams_aux_map" for n in maps)

    @pytest.mark.parametrize("script,n_aggs", [
        ("cat in.txt | sort", 3), ("cat -n in.txt", 1), ("nl in.txt", 1)])
    def test_rerun_tree_is_binary_only_over_the_commands_own_maps(self, script, n_aggs):
        # cat -n and nl map with plain cat: numbering a numbered part again
        # would be wrong, so they get one n-ary node
        tg = parallelize(dfg_of(script), 4)
        aggs = [n for n in tg.nodes.values() if n.kind == "agg"]
        assert len(aggs) == n_aggs
        assert all(n.agg_name == "rerun" for n in aggs)
        assert sorted(len(n.inputs) for n in aggs) == ([4] if n_aggs == 1 else [2, 2, 2])

    def test_transform_composes(self):
        # transformations compose: re-parallelizing a transformed graph at
        # width 1 (identity pass over non-cmd kinds is not supported) —
        # instead check determinism: same input graph, same output shape
        g = dfg_of("cat in.txt | sort")
        a = parallelize(g, 4).kind_histogram()
        b = parallelize(g, 4).kind_histogram()
        assert a == b
