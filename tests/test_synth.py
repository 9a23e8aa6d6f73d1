"""Tests for the logic-synthesis package."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl import parse_module
from repro.synth import (Aig, CecResult, FALSE, TRUE, SynthesisError,
                         check_aigs, check_against_simulation, estimate_ppa,
                         lit_node, map_to_cells, map_to_luts, negate,
                         optimize, synthesize_module)
from repro.synth.optimize import balance, rewrite, sweep


def _eval(aig, **values):
    """One pattern through the word evaluator, as ``{output: bool}``."""
    words = aig.evaluate_words({n: int(v) for n, v in values.items()}, bits=1)
    return {name: bool(word) for name, word in words.items()}


class TestAig:
    def test_constant_folding(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.and_(a, FALSE) == FALSE
        assert aig.and_(a, TRUE) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, negate(a)) == FALSE

    def test_structural_hashing(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        assert aig.and_(a, b) == aig.and_(b, a)
        assert aig.num_ands == 1

    def test_or_demorgan(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.or_(a, b))
        assert _eval(aig, a=True, b=False)["y"] is True
        assert _eval(aig, a=False, b=False)["y"] is False

    def test_xor_truth_table(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.xor_(a, b))
        for va in (False, True):
            for vb in (False, True):
                assert _eval(aig, a=va, b=vb)["y"] == (va != vb)

    def test_mux(self):
        aig = Aig()
        s = aig.add_input("s")
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.mux(s, a, b))
        assert _eval(aig, s=True, a=True, b=False)["y"]
        assert not _eval(aig, s=False, a=True, b=False)["y"]

    def test_depth_and_cleanup(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        c = aig.add_input("c")
        aig.and_(a, b)  # dangling
        aig.add_output("y", aig.and_(aig.and_(a, b), c))
        cleaned = aig.cleanup()
        assert cleaned.num_ands == 2
        assert cleaned.depth() == 2

    def test_evaluate_words_matches_scalar(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.xor_(a, b))
        words = aig.evaluate_words({"a": 0b1100, "b": 0b1010}, bits=4)
        assert words["y"] == 0b0110

    def test_missing_input_raises(self):
        aig = Aig()
        aig.add_input("a")
        aig.add_output("y", 2)
        with pytest.raises(KeyError, match="missing input 'a'"):
            aig.evaluate_words({})


def _random_aig(rng: random.Random) -> Aig:
    """Random AIG with shared fanins, dangling nodes and constant outputs."""
    aig = Aig()
    lits = [aig.add_input(f"i{j}") for j in range(rng.randint(0, 6))]
    lits.append(rng.choice([FALSE, TRUE]))
    for _ in range(rng.randint(0, 40)):
        a, b = rng.choice(lits), rng.choice(lits)
        lits.append(aig.and_(a ^ rng.getrandbits(1), b ^ rng.getrandbits(1)))
    for k in range(rng.randint(0, 4)):
        aig.add_output(f"o{k}", rng.choice(lits) ^ rng.getrandbits(1))
    return aig


def _reference_order(aig: Aig) -> list[int]:
    """Recursive post-order DFS: outputs in turn, fanin 1 before fanin 0."""
    order: list[int] = []
    done = {0}

    def visit(node: int) -> None:
        if node in done:
            return
        if not aig.is_input(node):
            a, b = aig.fanins(node)
            visit(lit_node(b))
            visit(lit_node(a))
        done.add(node)
        order.append(node)

    for _, out in aig.outputs:
        visit(lit_node(out))
    return order


class TestTopologicalOrder:
    def test_matches_recursive_dfs(self):
        rng = random.Random(2024)
        for _ in range(200):
            aig = _random_aig(rng)
            assert aig.topological_order() == _reference_order(aig)

    def test_memo_not_pickled(self):
        aig = _random_aig(random.Random(3))
        before = pickle.dumps(aig)
        aig.topological_order()
        aig.depth()
        assert pickle.dumps(aig) == before
        assert pickle.loads(before) == aig
        assert "memo" not in repr(aig)

    def test_growth_invalidates_memo(self):
        aig = Aig()
        a, b, c = (aig.add_input(n) for n in "abc")
        ab = aig.and_(a, b)
        aig.add_output("y", ab)
        assert aig.topological_order() == [2, 1, 4]
        abc = aig.and_(ab, c)
        aig.add_output("z", abc)
        assert aig.topological_order() == [2, 1, 4, 3, 5]
        aig.add_output("w", negate(c))
        assert aig.topological_order() == [2, 1, 4, 3, 5]
        aig.and_(a, negate(c))          # dangling: not reachable
        assert aig.topological_order() == [2, 1, 4, 3, 5]
        aig.add_output("v", aig.and_(a, negate(c)))
        assert aig.topological_order() == [2, 1, 4, 3, 5, 6]


def _synth(src, name=None):
    return synthesize_module(parse_module(src, name))


class TestSynthesize:
    def test_adder_equivalent_to_sim(self):
        src = """
module add(input [3:0] a, input [3:0] b, output [4:0] y);
  assign y = a + b;
endmodule"""
        s = _synth(src)
        cec = check_against_simulation(s, src, parse_module(src), vectors=30)
        assert cec.equivalent, cec.counterexample

    def test_subtract_and_compare(self):
        src = """
module cmp(input [3:0] a, input [3:0] b, output lt, output [3:0] d);
  assign lt = a < b;
  assign d = a - b;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_multiplier(self):
        src = """
module mul(input [3:0] a, input [3:0] b, output [7:0] y);
  assign y = a * b;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_comb_always_case(self):
        src = """
module alu(input [3:0] a, input [3:0] b, input [1:0] op, output reg [3:0] y);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a & b;
      2'd2: y = a | b;
      default: y = a ^ b;
    endcase
  end
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_dynamic_shift(self):
        src = """
module sh(input [7:0] a, input [2:0] n, output [7:0] y);
  assign y = a << n;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_ternary_and_concat(self):
        src = """
module t(input s, input [3:0] a, input [3:0] b, output [7:0] y);
  assign y = s ? {a, b} : {b, a};
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=30).equivalent

    def test_for_loop_unrolled(self):
        src = """
module rev(input [3:0] a, output reg [3:0] y);
  integer i;
  always @(*) begin
    for (i = 0; i < 4; i = i + 1)
      y[i] = a[3 - i];
  end
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=16).equivalent

    def test_function_lowering(self):
        src = """
module f(input [3:0] a, output [3:0] y);
  function [3:0] inc;
    input [3:0] v;
    begin
      inc = v + 1;
    end
  endfunction
  assign y = inc(a);
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=16).equivalent

    def test_sequential_flops_extracted(self):
        s = _synth("""
module ctr(input clk, input rst, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule""")
        assert s.is_sequential
        assert s.flops[0].name == "q" and s.flops[0].width == 4
        out_names = {name for name, _ in s.aig.outputs}
        assert "q$next[0]" in out_names

    def test_latch_raises(self):
        with pytest.raises(SynthesisError):
            _synth("""
module l(input s, input d, output reg q);
  always @(*) begin
    if (s) q = d;
  end
endmodule""")

    def test_comb_loop_raises(self):
        with pytest.raises(SynthesisError):
            _synth("""
module loop(output a);
  wire b;
  assign a = ~b;
  assign b = a;
endmodule""")

    def test_multiple_drivers_raises(self):
        with pytest.raises(SynthesisError):
            _synth("""
module m(input a, output y);
  assign y = a;
  assign y = ~a;
endmodule""")

    def test_division_by_nonconst_raises(self):
        with pytest.raises(SynthesisError):
            _synth("module d(input [3:0] a, input [3:0] b, output [3:0] y); "
                   "assign y = a / b; endmodule")

    def test_division_by_power_of_two(self):
        src = """
module d(input [7:0] a, output [7:0] q, output [7:0] r);
  assign q = a / 4;
  assign r = a % 4;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=30).equivalent


class TestOptimizeAndMap:
    def _example(self):
        return _synth("""
module f(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = (a & b) | (a ^ b);
endmodule""")

    def test_passes_preserve_function(self):
        s = self._example()
        for fn in (sweep, rewrite, balance):
            out = fn(s.aig)
            cec = check_aigs(s.aig, out)
            assert cec.equivalent, f"{fn.__name__} broke equivalence"

    def test_optimize_script_runs_and_records(self):
        s = self._example()
        result = optimize(s.aig)
        assert result.history[0]["pass"] == "initial"
        assert len(result.history) >= 4
        assert check_aigs(s.aig, result.aig).equivalent

    def test_optimize_never_grows_much(self):
        s = self._example()
        result = optimize(s.aig)
        assert result.aig.num_ands <= s.aig.num_ands * 2

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            optimize(self._example().aig, ("bogus",))

    def test_lut_mapping(self):
        s = self._example()
        mapping = map_to_luts(s.aig, k=4)
        assert mapping.lut_count > 0
        assert mapping.depth >= 1
        # LUT count never exceeds AND count.
        assert mapping.lut_count <= s.aig.num_ands

    def test_lut_size_validation(self):
        with pytest.raises(ValueError):
            map_to_luts(self._example().aig, k=1)

    def test_cell_mapping_area_positive(self):
        cells = map_to_cells(self._example().aig)
        assert cells.area > 0 and cells.gate_count > 0

    def test_ppa_report(self):
        s = _synth("""
module ctr(input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 1;
endmodule""")
        report = estimate_ppa(s)
        assert report.flop_count == 4
        assert report.area_um2 > 0 and report.delay_ns > 0
        assert report.power_uw > 0
        assert report.max_frequency_mhz > 0
        assert "area" in report.summary()


class TestCec:
    def test_exhaustive_counterexample(self):
        a = Aig()
        x = a.add_input("x")
        a.add_output("y", x)
        b = Aig()
        x2 = b.add_input("x")
        b.add_output("y", negate(x2))
        cec = check_aigs(a, b)
        assert not cec.equivalent and cec.exhaustive
        assert cec.counterexample is not None

    def test_no_shared_outputs(self):
        a = Aig()
        a.add_output("p", a.add_input("x"))
        b = Aig()
        b.add_output("q", b.add_input("x"))
        assert not check_aigs(a, b).equivalent

    def test_zero_random_vectors(self):
        a, b = Aig(), Aig()
        a.add_output("y", a.add_input("x"))
        b.add_output("y", negate(b.add_input("x")))
        assert check_aigs(a, b, max_exhaustive_inputs=0, random_vectors=0) \
            == CecResult(True, None, [], 0)

    def test_inputs_in_one_aig_only(self):
        a, b = Aig(), Aig()
        a.add_output("y", a.and_(a.add_input("p"), a.add_input("q")))
        b.add_output("y", b.and_(b.add_input("p"), b.add_input("r")))
        assert check_aigs(a, b) == CecResult(
            False, {"p": 1, "q": 0, "r": 1}, ["y"], 6, exhaustive=True)

    def test_zero_input_aigs(self):
        a, b = Aig(), Aig()
        a.add_output("y", TRUE)
        b.add_output("y", FALSE)
        assert check_aigs(a, a) == CecResult(True, None, [], 1, exhaustive=True)
        assert check_aigs(a, b) == CecResult(False, {}, ["y"], 1,
                                             exhaustive=True)

    @pytest.mark.parametrize("vector", [0, 4095, 4096, 8191])
    def test_mismatch_at_chunk_edges(self, vector):
        n = 13
        a, b = Aig(), Aig()
        term = TRUE
        for j in range(n):
            bit = vector >> (n - 1 - j) & 1
            x = a.add_input(f"x{j:02d}")
            b.add_input(f"x{j:02d}")
            term = a.and_(term, x if bit else negate(x))
        a.add_output("y", term)
        b.add_output("y", FALSE)
        cec = check_aigs(a, b, max_exhaustive_inputs=n)
        assert cec.vectors_checked == vector + 1 and cec.exhaustive
        assert [cec.counterexample[f"x{j:02d}"] for j in range(n)] \
            == [vector >> (n - 1 - j) & 1 for j in range(n)]
        assert check_aigs(a, a, max_exhaustive_inputs=n).vectors_checked \
            == 1 << n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_synthesized_adder_matches_python(a, b):
    src = """
module add(input [7:0] a, input [7:0] b, output [8:0] y);
  assign y = a + b;
endmodule"""
    s = synthesize_module(parse_module(src))
    assign = {}
    for i in range(8):
        assign[f"a[{i}]"] = bool((a >> i) & 1)
        assign[f"b[{i}]"] = bool((b >> i) & 1)
    out = _eval(s.aig, **{n: assign.get(n, False) for n in s.aig.inputs})
    value = sum(1 << i for i in range(9) if out.get(f"y[{i}]", False))
    assert value == a + b
