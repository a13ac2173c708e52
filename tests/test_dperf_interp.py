"""Interpreter correctness: semantics, accounting, multi-rank runs."""

import math
import time

import pytest

from repro.dperf import InterpError, run_distributed, run_single
from repro.dperf.minic import parse


def run(src, entry="main", args=(), **kw):
    return run_single(parse(src), entry, args, **kw)


class TestScalars:
    def test_return_value(self):
        assert run("int main() { return 41 + 1; }").value == 42

    def test_arith_precedence(self):
        assert run("int main() { return 2 + 3 * 4; }").value == 14

    def test_c_integer_division_truncates_toward_zero(self):
        assert run("int main() { return 7 / 2; }").value == 3
        assert run("int main() { return -7 / 2; }").value == -3

    def test_c_modulo_sign(self):
        assert run("int main() { return -7 % 3; }").value == -1

    def test_division_by_zero_int(self):
        with pytest.raises(InterpError, match="division by zero"):
            run("int main() { return 1 / 0; }")

    def test_float_arithmetic(self):
        assert run("double main() { return 1.5 * 2.0; }").value == pytest.approx(3.0)

    def test_int_var_truncates_float(self):
        assert run("int main() { int x = 0; x = 7.9; return x; }").value == 7

    def test_cast(self):
        assert run("double main() { return (double)7 / (double)2; }").value == 3.5

    def test_compound_assignment(self):
        assert run("int main() { int x = 10; x -= 3; x *= 2; return x; }").value == 14

    def test_pre_post_increment(self):
        src = "int main() { int i = 5; int a = i++; int b = ++i; return a * 100 + b; }"
        assert run(src).value == 507

    def test_ternary(self):
        assert run("int main() { return 1 > 2 ? 10 : 20; }").value == 20

    def test_logical_short_circuit(self):
        # RHS would divide by zero if evaluated
        src = "int main() { int z = 0; return (z != 0) && (1 / z > 0); }"
        assert run(src).value == 0

    def test_comparison_returns_int(self):
        assert run("int main() { return (3 < 4) + (4 < 3); }").value == 1

    def test_uninitialized_scalar_is_zero(self):
        assert run("int main() { int x; return x; }").value == 0

    def test_globals(self):
        assert run("int g = 7; int main() { g += 1; return g; }").value == 8


class TestCompoundAssignment:
    """``a op= b`` shares one implementation with ``a op b``."""

    def test_modulo_assign_by_zero_is_an_interp_error(self):
        with pytest.raises(InterpError, match="modulo by zero"):
            run("int main() { int a = 7; a %= 0; return a; }")

    def test_divide_assign_by_float_zero_gives_inf(self):
        src = "double main() { double a = 1.0; a /= 0.0; return a; }"
        assert run(src).value == math.inf

    def test_long_divide_assign_is_exact(self):
        src = "long main() { long a = 9007199254740993; a /= 1; return a; }"
        assert run(src).value == 9007199254740993

    def test_modulo_assign_on_double_rejected(self):
        with pytest.raises(InterpError) as err:
            run("double main() { double a = 7.0; a %= 2; return a; }")
        assert str(err.value) == "line 1: % requires integers"


class TestControlFlow:
    def test_while_loop(self):
        src = "int main() { int s = 0; int i = 1; while (i <= 10) { s += i; i++; } return s; }"
        assert run(src).value == 55

    def test_for_loop(self):
        src = "int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }"
        assert run(src).value == 10

    def test_break(self):
        src = "int main() { int i = 0; while (1) { if (i == 7) break; i++; } return i; }"
        assert run(src).value == 7

    def test_continue(self):
        src = """
        int main() {
            int s = 0;
            for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
            return s;
        }
        """
        assert run(src).value == 25

    def test_nested_loops(self):
        src = """
        int main() {
            int s = 0;
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 4; j++)
                    s += i * j;
            return s;
        }
        """
        assert run(src).value == 18

    def test_step_limit_catches_infinite_loop(self):
        with pytest.raises(InterpError, match="step limit"):
            run("int main() { while (1) { } return 0; }", max_steps=1000)

    def test_call_arguments_evaluate_left_to_right(self):
        # the first faulting argument is the one reported, even when a
        # later argument is itself a call
        src = """
        int id(int x) { return x; }
        int f(int a, int b, int c) { return a; }
        int main() { int a[4]; return f(a[9], a[10], id(1)); }
        """
        with pytest.raises(InterpError, match="index 9 out of bounds"):
            run(src)

    def test_recursion(self):
        src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { return fib(10); }"
        assert run(src).value == 55


class TestArrays:
    def test_1d_array(self):
        src = """
        int main() {
            double u[10];
            for (int i = 0; i < 10; i++) u[i] = (double)i * 2.0;
            return (int)u[7];
        }
        """
        assert run(src).value == 14

    def test_2d_array(self):
        src = """
        int main() {
            double m[3][4];
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 4; j++)
                    m[i][j] = (double)(i * 10 + j);
            return (int)m[2][3];
        }
        """
        assert run(src).value == 23

    def test_vla_dimension_from_param(self):
        src = """
        double total(int n) {
            double u[n];
            for (int i = 0; i < n; i++) u[i] = 1.0;
            double s = 0.0;
            for (int i = 0; i < n; i++) s += u[i];
            return s;
        }
        """
        assert run(src, "total", [6]).value == 6.0

    def test_array_passed_by_reference(self):
        src = """
        void fill(double u[], int n) { for (int i = 0; i < n; i++) u[i] = 5.0; }
        double main() { double u[4]; fill(u, 4); return u[3]; }
        """
        assert run(src).value == 5.0

    def test_row_view_decay(self):
        src = """
        void set_row(double row[], int n) { for (int j = 0; j < n; j++) row[j] = 9.0; }
        double main() { double m[2][3]; set_row(m[1], 3); return m[1][2] + m[0][2]; }
        """
        assert run(src).value == 9.0

    def test_out_of_bounds_read(self):
        with pytest.raises(InterpError, match="out of bounds"):
            run("int main() { double u[3]; return (int)u[3]; }")

    def test_out_of_bounds_negative(self):
        with pytest.raises(InterpError, match="out of bounds"):
            run("int main() { double u[3]; int i = -1; return (int)u[i]; }")

    def test_zero_dim_rejected(self):
        with pytest.raises(InterpError, match="<= 0"):
            run("int main() { int n = 0; double u[n]; return 0; }")

    def test_int_array_truncation(self):
        src = "int main() { int a[2]; a[0] = 3.99; return a[0]; }"
        assert run(src).value == 3


class TestBuiltins:
    def test_math(self):
        src = "double main() { return sqrt(16.0) + fabs(-2.0) + fmax(1.0, 3.0) + fmin(1.0, 3.0); }"
        assert run(src).value == pytest.approx(4 + 2 + 3 + 1)

    def test_pow_exp_log(self):
        src = "double main() { return pow(2.0, 10.0) + exp(0.0) + log(1.0); }"
        assert run(src).value == pytest.approx(1025.0)

    def test_sqrt_negative_raises(self):
        with pytest.raises(InterpError, match="sqrt"):
            run("double main() { return sqrt(-1.0); }")

    def test_printf_captured(self):
        result = run('int main() { printf("x=%d y=%f s=%s\\n", 3, 2.5, "hi"); return 0; }')
        assert result.output == ["x=3 y=2.500000 s=hi\n"]

    def test_printf_octal_and_upper_hex(self):
        src = 'int main() { printf("%o|%X|%d", 8, 255, 3); return 0; }'
        assert run(src).output == ["10|FF|3"]

    def test_printf_percent_escape(self):
        assert run('int main() { printf("100%%"); return 0; }').output == ["100%"]


class TestAccounting:
    def test_census_nonempty(self):
        res = run("int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; return s; }")
        assert res.census.total_ops > 100

    def test_flops_counted_for_float_ops(self):
        res = run("double main() { double a = 1.0; double b = 2.0; return a * b + a / b; }")
        assert res.census.get("fp_mul", 0) >= 1
        assert res.census.get("fp_div", 0) >= 1

    def test_mem_ops_counted(self):
        res = run("int main() { double u[4]; u[1] = 1.0; return (int)u[1]; }")
        assert res.census.get("mem_store", 0) >= 1
        assert res.census.get("mem_load", 0) >= 1

    def test_census_scales_linearly_with_trip_count(self):
        def ops(n):
            return run(
                f"int main() {{ int s = 0; for (int i = 0; i < {n}; i++) s += i; return s; }}"
            ).census.total_ops

        assert ops(200) / ops(100) == pytest.approx(2.0, rel=0.05)


class TestDistributed:
    RING = """
    int main(int token) {
        int rank = p2psap_rank();
        int size = p2psap_size();
        double buf[1];
        if (rank == 0) {
            buf[0] = (double)token;
            p2psap_send((rank + 1) % size, buf, 1);
            p2psap_recv(size - 1, buf, 1);
        } else {
            p2psap_recv(rank - 1, buf, 1);
            buf[0] = buf[0] + 1.0;
            p2psap_send((rank + 1) % size, buf, 1);
        }
        return (int)buf[0];
    }
    """

    def test_ring_passes_real_data(self):
        runs = run_distributed(parse(self.RING), "main", 4, args=[100])
        # token incremented by ranks 1,2,3 → rank 0 sees 103
        assert runs[0].value == 103

    def test_comm_events_recorded(self):
        runs = run_distributed(parse(self.RING), "main", 3, args=[0])
        from repro.dperf import CommRecord

        kinds = [e.kind for e in runs[0].entries if isinstance(e, CommRecord)]
        assert kinds == ["send", "recv"]

    def test_allreduce_max(self):
        src = """
        double main() {
            double x = (double)p2psap_rank() * 2.0;
            return p2psap_allreduce_max(x);
        }
        """
        runs = run_distributed(parse(src), "main", 4)
        assert all(r.value == 6.0 for r in runs)

    def test_barrier_all_ranks(self):
        src = "int main() { p2psap_barrier(); p2psap_barrier(); return p2psap_rank(); }"
        runs = run_distributed(parse(src), "main", 3)
        assert [r.value for r in runs] == [0, 1, 2]

    def test_recv_count_mismatch_detected(self):
        src = """
        int main() {
            double buf[8];
            if (p2psap_rank() == 0) { p2psap_send(1, buf, 4); }
            else { p2psap_recv(0, buf, 8); }
            return 0;
        }
        """
        with pytest.raises(InterpError, match="count"):
            run_distributed(parse(src), "main", 2)

    def test_rank_failure_reported_not_hung(self):
        src = """
        int main() {
            if (p2psap_rank() == 1) { int z = 0; return 1 / z; }
            p2psap_barrier();
            return 0;
        }
        """
        with pytest.raises(InterpError, match="rank 1|barrier"):
            run_distributed(parse(src), "main", 2)

    def test_deadlock_reported_at_once(self):
        src = """
        int main() {
            double buf[1];
            p2psap_recv(1 - p2psap_rank(), buf, 1);
            return 0;
        }
        """
        start = time.perf_counter()
        with pytest.raises(InterpError) as err:
            run_distributed(parse(src), "main", 2)
        assert str(err.value) == (
            "deadlock: rank 0 blocked in recv from 1;"
            " rank 1 blocked in recv from 0"
        )
        assert time.perf_counter() - start < 1.0

    def test_barrier_after_peer_finished_is_a_deadlock(self):
        src = "int main() { if (p2psap_rank() == 0) p2psap_barrier(); return 0; }"
        with pytest.raises(InterpError, match=r"^deadlock: rank 0 blocked in barrier$"):
            run_distributed(parse(src), "main", 2)

    def test_per_rank_args_callable(self):
        src = "int main(int x) { return x * 10; }"
        runs = run_distributed(parse(src), "main", 3, args=lambda r: [r + 1])
        assert [r.value for r in runs] == [10, 20, 30]

    def test_null_comm_send_rejected(self):
        with pytest.raises(InterpError, match="no peers"):
            run("int main() { double b[1]; p2psap_send(0, b, 1); return 0; }")
