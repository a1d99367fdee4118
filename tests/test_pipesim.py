"""Pipe-scheduler simulator: the §5 pathologies and the Fig. 9 lattice."""
import pytest

from repro.commands.base import ExecEnv
from repro.pipesim import runtime_lattice, sequential_time, sim_from_dfg, simulate
from repro.pipesim.sim import SimEdge, SimNode
from repro.workloads import ONELINERS
from repro.workloads.inputs import text_corpus


def two_producer_merge(edge_kind: str, *, head_n=None):
    """cat in1 > e0 & cat in2 > e1 & cat e0 e1 [| head -n1] — Fig. 8/§5."""
    nodes = [
        SimNode("prod1", rate=1e6, inputs=[0], outputs=[2],
                in_volume=1e6, out_volume=1e6),
        SimNode("prod2", rate=1e6, inputs=[1], outputs=[3],
                in_volume=1e6, out_volume=1e6),
        SimNode("cat", rate=5e6, inputs=[2, 3], outputs=[4],
                in_volume=2e6, out_volume=2e6, early_exit=head_n),
    ]
    edges = [
        SimEdge("eager", None, 0, preloaded=1e6),
        SimEdge("eager", None, 1, preloaded=1e6),
        SimEdge(edge_kind, 0, 2),
        SimEdge(edge_kind, 1, 2),
        SimEdge("eager", 2, None),
    ]
    return nodes, edges


class TestLaziness:
    def test_fifo_serializes_second_producer(self):
        """Fig. 8a: bounded FIFOs + in-order consumption -> producer 2 is
        blocked until producer 1 finishes (roughly serial)."""
        n_f, e_f = two_producer_merge("fifo")
        n_e, e_e = two_producer_merge("eager")
        t_fifo = simulate(n_f, e_f).time
        t_eager = simulate(n_e, e_e).time
        assert not simulate(n_f, e_f).deadlocked
        # eager lets both producers run concurrently: ~2x faster
        assert t_fifo > 1.6 * t_eager

    def test_file_wait_adds_barrier(self):
        """Fig. 8c: file buffering forces the consumer to wait for EOF."""
        n_w, e_w = two_producer_merge("file")
        n_e, e_e = two_producer_merge("eager")
        assert simulate(n_w, e_w).time > simulate(n_e, e_e).time

    def test_eager_is_fastest_discipline(self):
        times = {}
        for kind in ("fifo", "file", "eager"):
            n, e = two_producer_merge(kind)
            times[kind] = simulate(n, e).time
        assert times["eager"] <= times["fifo"] + 1e-9
        assert times["eager"] <= times["file"] + 1e-9


class TestDeadlock:
    def test_dangling_fifo_deadlocks(self):
        """§5: head exits after its first input's lines; the second
        producer's pipe is never opened -> no PIPE signal -> deadlock."""
        n, e = two_producer_merge("fifo", head_n=1000.0)
        res = simulate(n, e, pash_cleanup=False)
        assert res.deadlocked

    def test_pash_cleanup_resolves_deadlock(self):
        n, e = two_producer_merge("fifo", head_n=1000.0)
        res = simulate(n, e, pash_cleanup=True)
        assert not res.deadlocked

    def test_opened_pipe_gets_pipe_signal(self):
        """A producer whose consumer exits after opening the pipe is killed
        normally — no deadlock even without cleanup."""
        nodes = [
            SimNode("prod1", rate=1e5, inputs=[0], outputs=[1],
                    in_volume=1e6, out_volume=1e6),
            SimNode("head", rate=1e7, inputs=[1], outputs=[2],
                    in_volume=1e6, out_volume=10.0, early_exit=10.0),
        ]
        edges = [SimEdge("eager", None, 0, preloaded=1e6),
                 SimEdge("fifo", 0, 1), SimEdge("eager", 1, None)]
        res = simulate(nodes, edges, pash_cleanup=False)
        assert not res.deadlocked
        assert res.time < 1e6 / 1e5  # far sooner than prod1 alone would take


def _env(n=1500):
    return ExecEnv(files={"in.txt": text_corpus(n, seed=0)})


class TestLattice:
    @pytest.fixture(scope="class")
    def lattices(self):
        scripts = {
            "stateless": 'cat in.txt | tr A-Z a-z | grep -E "((a|b)+)+x" | wc -l',
            "sort": "cat in.txt | tr A-Z a-z | sort",
            "sort-sort": "cat in.txt | tr A-Z a-z | sort | sort -r",
        }
        return {
            name: runtime_lattice(script, _env(), widths=[2, 8, 16], scale=500.0)
            for name, script in scripts.items()
        }

    def test_pash_dominates_lattice(self, lattices):
        """Fig. 9: the full configuration is at the top of the lattice."""
        for name, lat in lattices.items():
            for w in (2, 8, 16):
                best_other = max(lat["no_split"][w], lat["blocking_eager"][w],
                                 lat["no_eager"][w])
                assert lat["pash"][w] >= best_other - 0.05, (name, w)

    def test_stateless_scales_linearly(self, lattices):
        lat = lattices["stateless"]["pash"]
        assert lat[8] > 6 and lat[16] > 12

    def test_sort_speedup_is_capped(self, lattices):
        """§6.5: sort does not scale linearly — every sort-bound script
        plateaus well below width."""
        lat = lattices["sort"]["pash"]
        assert 2 < lat[16] < 12
        assert lat[16] / lat[8] < 1.7  # flattening

    def test_split_unlocks_second_sort(self, lattices):
        """§6.1 sort-sort: without split, the second sort stays sequential."""
        lat = lattices["sort-sort"]
        assert lat["pash"][16] > 1.5 * lat["no_split"][16]

    def test_blocking_eager_not_better_than_eager(self, lattices):
        for name, lat in lattices.items():
            for w in (2, 8, 16):
                assert lat["blocking_eager"][w] <= lat["no_split"][w] + 0.05


def test_set_diff_simulates():
    """comm's pipe-fed static input is teed to every copy through eager
    relays, and each split chunk ends when it is whole: the copies neither
    stall the tee nor wait on the split's other chunks."""
    wl = ONELINERS["set-diff"]
    lat = runtime_lattice(wl.script, wl.make_env(0.002), widths=[2, 16], scale=500.0)
    for name, speedups in lat.items():
        assert all(s > 1 for s in speedups.values()), (name, speedups)


def test_split_closes_each_chunk_when_whole():
    """Chunk 0's reader sees EOF while chunk 1 is still blocked on a full pipe."""
    nodes = [
        SimNode("split", rate=1e6, inputs=[0], outputs=[1, 2], split_even=True,
                in_volume=1e4, out_volume=1e4),
        SimNode("a", rate=1e6, inputs=[1], outputs=[3], in_volume=5e3, out_volume=5e3),
        SimNode("b", rate=1e6, inputs=[2], outputs=[4], in_volume=5e3, out_volume=5e3),
        # reads a's output to its end before b's
        SimNode("cat", rate=1e6, inputs=[3, 4], outputs=[5], in_volume=1e4, out_volume=1e4),
    ]
    edges = [SimEdge("eager", None, 0, preloaded=1e4), SimEdge("eager", 0, 1),
             SimEdge("fifo", 0, 2), SimEdge("fifo", 1, 3), SimEdge("fifo", 2, 3),
             SimEdge("eager", 3, None)]
    assert not simulate(nodes, edges).deadlocked


def test_sequential_time_positive():
    from repro.compiler import compile_script

    g = compile_script("cat in.txt | sort").steps[0].dfg
    from repro.compiler.backend_seq import run_dfg_seq

    vol = {}
    run_dfg_seq(g, _env(), record=vol)
    assert sequential_time(g, vol, scale=10.0) > 0
