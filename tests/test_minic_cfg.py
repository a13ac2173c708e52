"""Tests for CFG construction and the static analyses."""

import pytest

from repro.dperf.minic import (
    analyze_function,
    build_cfg,
    call_graph,
    cast as A,
    count_operations,
    def_use,
    estimate_trip_count,
    find_comm_calls,
    loop_depth_map,
    parse,
)


def cfg_of(src, name=None):
    prog = parse(src)
    func = prog.funcs[0] if name is None else prog.func(name)
    return build_cfg(func)


class TestCfg:
    def test_straight_line_single_block(self):
        cfg = cfg_of("void f() { int a = 1; int b = 2; a = a + b; }")
        # entry (with stmts) → exit
        entry = cfg.block(cfg.entry)
        assert len(entry.stmts) == 3
        assert entry.succs == [cfg.exit]

    def test_if_creates_diamond(self):
        cfg = cfg_of("void f(int x) { if (x > 0) x = 1; x = 2; }")
        entry = cfg.block(cfg.entry)
        assert entry.cond is not None
        assert len(entry.succs) == 2  # then + join

    def test_if_else_two_arms(self):
        cfg = cfg_of("void f(int x) { if (x) x = 1; else x = 2; }")
        entry = cfg.block(cfg.entry)
        then_b, else_b = None, None
        for bid in entry.succs:
            if cfg.block(bid).label == "then":
                then_b = cfg.block(bid)
            if cfg.block(bid).label == "else":
                else_b = cfg.block(bid)
        assert then_b is not None and else_b is not None

    def test_while_loop_depth(self):
        cfg = cfg_of("void f(int n) { while (n) { n--; } }")
        depths = {b.label: b.loop_depth for b in cfg.blocks}
        assert depths["while-body"] == 1
        assert depths["while-exit"] == 0

    def test_nested_loop_depth(self):
        cfg = cfg_of(
            "void f(int n) { for (int i=0;i<n;i++) { for (int j=0;j<n;j++) { n=n; } } }"
        )
        assert cfg.max_loop_depth() == 2

    def test_loop_back_edge_exists(self):
        cfg = cfg_of("void f(int n) { while (n) { n--; } }")
        header = next(b for b in cfg.blocks if b.label == "while-header")
        body = next(b for b in cfg.blocks if b.label == "while-body")
        assert header.bid in body.succs

    def test_break_edges_to_exit_block(self):
        cfg = cfg_of("void f() { while (1) { break; } }")
        body = next(b for b in cfg.blocks if b.label == "while-body")
        wexit = next(b for b in cfg.blocks if b.label == "while-exit")
        assert wexit.bid in body.succs

    def test_continue_edges_to_step_in_for(self):
        cfg = cfg_of("void f(int n) { for (int i=0;i<n;i++) { continue; } }")
        body = next(b for b in cfg.blocks if b.label == "for-body")
        step = next(b for b in cfg.blocks if b.label == "for-step")
        assert step.bid in body.succs

    def test_return_edges_to_function_exit(self):
        cfg = cfg_of("int f(int x) { if (x) return 1; return 0; }")
        exits = [b for b in cfg.blocks if cfg.exit in b.succs]
        assert len(exits) >= 2

    def test_all_reachable_from_entry(self):
        cfg = cfg_of(
            "int f(int n) { int s=0; for (int i=0;i<n;i++) { if (i%2) s+=i; } return s; }"
        )
        reach = set(cfg.reachable())
        assert cfg.exit in reach
        # at most the unreachable-labelled blocks are missing
        for b in cfg.blocks:
            if b.bid not in reach:
                assert b.label == "unreachable" or b.is_empty


class TestLoopDepthMap:
    def test_depths(self):
        prog = parse(
            """
            void f(int n) {
                n = 1;
                for (int i = 0; i < n; i++) {
                    n = 2;
                    while (n) { n = 3; }
                }
            }
            """
        )
        func = prog.func("f")
        depths = loop_depth_map(func)
        by_depth = {}
        for stmt, d in depths.items():
            if isinstance(stmt, A.ExprStmt):
                by_depth.setdefault(d, []).append(stmt)
        assert len(by_depth[0]) == 1  # n = 1
        assert len(by_depth[1]) == 1  # n = 2
        assert len(by_depth[2]) == 1  # n = 3


class TestCommCalls:
    SRC = """
    void exchange(double u[], int n, int rank) {
        for (int it = 0; it < 10; it++) {
            p2psap_isend(rank + 1, u, n);
            p2psap_recv(rank + 1, u, n);
        }
        p2psap_barrier();
    }
    """

    def test_comm_calls_found_with_depth(self):
        sites = find_comm_calls(parse(self.SRC))
        apis = {(s.api, s.loop_depth) for s in sites}
        assert ("p2psap_isend", 1) in apis
        assert ("p2psap_recv", 1) in apis
        assert ("p2psap_barrier", 0) in apis

    def test_send_recv_flags(self):
        sites = find_comm_calls(parse(self.SRC))
        sends = [s for s in sites if s.is_send]
        recvs = [s for s in sites if s.is_recv]
        assert len(sends) == 1 and len(recvs) == 1

    def test_no_comm_calls(self):
        assert find_comm_calls(parse("void f() { }")) == []


class TestDefUse:
    def test_defs_and_uses(self):
        cfg = cfg_of("void f(int a) { int b = a + 1; b = b * 2; }")
        du = def_use(cfg)
        entry_defs = du.defs[cfg.entry]
        entry_uses = du.uses[cfg.entry]
        assert "b" in entry_defs
        assert "a" in entry_uses

    def test_array_target_defs_base(self):
        cfg = cfg_of("void f(double u[], int i) { u[i] = 1.0; }")
        du = def_use(cfg)
        assert "u" in du.defs[cfg.entry]
        assert "i" in du.uses[cfg.entry]

    def test_compound_assign_reads_target(self):
        cfg = cfg_of("void f(int x) { x += 1; }")
        du = def_use(cfg)
        assert "x" in du.defs[cfg.entry] and "x" in du.uses[cfg.entry]

    def test_flows_cross_blocks(self):
        cfg = cfg_of(
            "void f(int n) { int s = 0; while (n) { s = s + n; n--; } }"
        )
        du = def_use(cfg)
        flows = du.flows()
        assert any(var == "s" for _d, _u, var in flows)


class TestCallGraph:
    def test_simple_graph(self):
        prog = parse(
            """
            int leaf(int x) { return x; }
            int mid(int x) { return leaf(x) + 1; }
            int main() { return mid(3); }
            """
        )
        g = call_graph(prog)
        assert g["main"] == {"mid"}
        assert g["mid"] == {"leaf"}
        assert g["leaf"] == set()

    def test_builtins_excluded(self):
        prog = parse("void f() { printf(\"x\"); }")
        assert call_graph(prog)["f"] == set()


class TestTripCount:
    def loop(self, src):
        prog = parse(f"void f(int n, int m) {{ {src} }}")
        return prog.func("f").body.stmts[0]

    def test_literal_bounds(self):
        assert estimate_trip_count(self.loop("for (int i = 0; i < 10; i++) ;")) == 10

    def test_le_bound(self):
        assert estimate_trip_count(self.loop("for (int i = 1; i <= 10; i++) ;")) == 10

    def test_step_two(self):
        assert estimate_trip_count(self.loop("for (int i = 0; i < 10; i += 2) ;")) == 5

    def test_countdown(self):
        assert estimate_trip_count(self.loop("for (int i = 10; i > 0; i--) ;")) == 10

    def test_env_resolves_names(self):
        loop = self.loop("for (int i = 0; i < n; i++) ;")
        assert estimate_trip_count(loop, {"n": 64}) == 64
        assert estimate_trip_count(loop) is None

    def test_arith_bound(self):
        loop = self.loop("for (int i = 1; i < n - 1; i++) ;")
        assert estimate_trip_count(loop, {"n": 10}) == 8

    def test_non_canonical_returns_none(self):
        loop = self.loop("for (int i = 0; i < n; i = i * 2) ;")
        assert estimate_trip_count(loop, {"n": 8}) is None

    def test_zero_or_negative_trips(self):
        assert estimate_trip_count(self.loop("for (int i = 5; i < 5; i++) ;")) == 0

    def test_i_assign_plus(self):
        loop = self.loop("for (int i = 0; i < 9; i = i + 3) ;")
        assert estimate_trip_count(loop) == 3

    def test_leaves_no_cyclic_garbage(self):
        """The constant folder is a module-level function: a recursive
        closure would leave a function <-> cell cycle per call."""
        import gc

        loop = self.loop("for (int i = 1; i < n - 1; i = i + 2) ;")
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                assert estimate_trip_count(loop, {"n": 10}) == 4
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOpCensus:
    def test_counts(self):
        prog = parse(
            "void f(double u[], int i) { u[i] = u[i + 1] * 2.0 + 1.0; if (i) i--; }"
        )
        ops = count_operations(prog.func("f").body)
        assert ops["mem"] == 2
        assert ops["flops"] >= 2
        assert ops["branches"] == 1
        assert ops["assigns"] == 1

    def test_analyze_function_bundle(self):
        prog = parse("int f(int n) { int s = 0; for (int i=0;i<n;i++) s+=i; return s; }")
        info = analyze_function(prog.func("f"))
        assert info["name"] == "f"
        assert info["max_loop_depth"] == 1
        assert info["n_blocks"] >= 4
