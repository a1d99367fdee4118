"""Frontend: dataflow-region identification and conservative barriers (§4.1)."""
import pytest

from repro.annotations.model import CLASS_N, CLASS_P, CLASS_S
from repro.compiler import compile_script


def steps_of(src, env=None):
    return compile_script(src, env).steps


class TestRegions:
    def test_single_pipeline_is_one_region(self):
        steps = steps_of("cat f | grep x | sort")
        assert [s.kind for s in steps] == ["dfg"]

    def test_semicolon_is_barrier(self):
        steps = steps_of("cat f | sort; cat g | sort")
        assert [s.kind for s in steps] == ["dfg", "dfg"]

    def test_andor_is_barrier(self):
        steps = steps_of("grep x f && sort g")
        assert [s.kind for s in steps] == ["dfg", "dfg"]

    def test_for_loop_unrolls(self):
        steps = steps_of("for y in {1..3}; do cat f$y | sort; done")
        assert [s.kind for s in steps] == ["dfg"] * 3
        labels = [e.label for s in steps for e in s.dfg.edges.values()
                  if e.src is None]
        assert "f1" in labels and "f3" in labels

    def test_procsub_joins_region(self):
        steps = steps_of("comm -23 <(sort a) <(sort b)")
        assert len(steps) == 1 and steps[0].kind == "dfg"
        g = steps[0].dfg
        assert sum(1 for n in g.nodes.values() if n.cmd == "sort") == 2

    def test_assignment_updates_env(self):
        steps = steps_of('x=in.txt\ncat $x | sort')
        assert [s.kind for s in steps] == ["dfg"]
        labels = [e.label for s in steps for e in s.dfg.edges.values()]
        assert "in.txt" in labels

    def test_output_redirect_is_file_sink(self):
        steps = steps_of("cat f | sort > out.txt")
        g = steps[0].dfg
        outs = [g.edges[e] for e in g.graph_outputs()]
        assert len(outs) == 1
        assert outs[0].kind == "file" and outs[0].label == "out.txt"

    def test_input_redirect(self):
        steps = steps_of("sort < in.txt")
        labels = [e.label for e in steps[0].dfg.edges.values() if e.src is None]
        assert labels == ["in.txt"]


class TestConservatism:
    def test_unknown_command_is_opaque(self):
        steps = steps_of("cat f | frobnicate | sort")
        assert [s.kind for s in steps] == ["opaque"]

    def test_unknown_variable_is_opaque(self):
        steps = steps_of("cat $UNSET_VAR | sort")
        assert [s.kind for s in steps] == ["opaque"]

    def test_command_substitution_is_opaque(self):
        steps = steps_of("cat $(ls) | sort")
        assert [s.kind for s in steps] == ["opaque"]

    def test_unknown_flag_is_opaque(self):
        steps = steps_of("cat f | grep --fancy-new-flag x")
        assert [s.kind for s in steps] == ["opaque"]

    def test_poisoned_variable(self):
        # x reassigned from a command substitution: later uses unresolvable
        steps = steps_of("x=ok\nx=$(date)\ncat $x | sort")
        assert [s.kind for s in steps] == ["opaque"]

    def test_known_variable_through_for(self):
        steps = steps_of("for y in a b; do grep $y f | sort; done")
        assert [s.kind for s in steps] == ["dfg", "dfg"]

    def test_command_ignoring_pipe_is_opaque(self):
        # echo does not consume its pipe input: semantics unclear
        steps = steps_of("cat f | echo hi")
        assert [s.kind for s in steps] == ["opaque"]


class TestNodeConstruction:
    def test_classes_on_nodes(self):
        g = steps_of("cat f | grep x | sort | sha1sum")[0].dfg
        classes = [n.cls for n in g.nodes.values()]
        assert classes == [CLASS_S, CLASS_S, CLASS_P, CLASS_N]

    def test_class_structure_histogram(self):
        g = steps_of("cat f | tr a b | sort | uniq -c | sort -rn")[0].dfg
        assert g.class_structure() == {"S": 2, "P": 3}

    def test_comm_static_edge(self):
        g = steps_of("cat f | sort | comm -13 dict.txt -")[0].dfg
        comm_node = [n for n in g.nodes.values() if n.cmd == "comm"][0]
        assert len(comm_node.statics) == 1 and len(comm_node.inputs) == 1
        static_edge = g.edges[comm_node.statics[0]]
        assert static_edge.label == "dict.txt"

    def test_pipe_edges_connect(self):
        g = steps_of("cat f | grep x | wc -l")[0].dfg
        order = g.topo_order()
        assert len(order) == 3
        for a, b in zip(order, order[1:]):
            out_edge = g.nodes[a].outputs[0]
            assert g.edges[out_edge].dst == b

    def test_stdin_source(self):
        g = steps_of("grep x | sort")[0].dfg
        labels = [e.label for e in g.edges.values() if e.src is None]
        assert labels == ["<stdin>"]
