"""Built-in Verilog generation benchmark suite.

Shaped like VerilogEval (the set AutoChip evaluates on): each problem has a
natural-language spec, a golden reference design, and a *quality testbench*
that prints PASS/FAIL lines and ``$finish`` — the harness contract the
paper's feedback loops consume.  Complexity runs from novice textbook
problems (the DAVE regime) to multi-module open-ended designs (the
Chip-Chat regime).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Problem:
    problem_id: str
    name: str
    spec: str
    reference: str
    testbench: str
    module_name: str
    tb_name: str = "tb"
    complexity: int = 2
    sequential: bool = False
    open_ended: bool = False
    category: str = "combinational"


_PROBLEMS: dict[str, Problem] = {}


def _register(problem: Problem) -> None:
    if problem.problem_id in _PROBLEMS:
        raise ValueError(f"duplicate problem '{problem.problem_id}'")
    _PROBLEMS[problem.problem_id] = problem


def get_problem(problem_id: str) -> Problem:
    if problem_id not in _PROBLEMS:
        raise KeyError(f"unknown problem '{problem_id}'; "
                       f"known: {sorted(_PROBLEMS)}")
    return _PROBLEMS[problem_id]


def all_problems() -> list[Problem]:
    return [p for _, p in sorted(_PROBLEMS.items())]


def problems_by(complexity: int | None = None, sequential: bool | None = None,
                category: str | None = None) -> list[Problem]:
    out = all_problems()
    if complexity is not None:
        out = [p for p in out if p.complexity == complexity]
    if sequential is not None:
        out = [p for p in out if p.sequential == sequential]
    if category is not None:
        out = [p for p in out if p.category == category]
    return out


# ===========================================================================
# Complexity 1 — novice textbook problems (the DAVE regime)
# ===========================================================================

_register(Problem(
    "c1_mux2", "2-to-1 multiplexer",
    "Write a Verilog module 'mux2' with inputs a, b, sel and output y. "
    "When sel is 0, y is a; when sel is 1, y is b.",
    """module mux2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule
""",
    """module tb;
  reg a, b, sel; wire y;
  integer i;
  mux2 dut(.a(a), .b(b), .sel(sel), .y(y));
  initial begin
    for (i = 0; i < 8; i = i + 1) begin
      a = i[0]; b = i[1]; sel = i[2];
      #1;
      if (y == (sel ? b : a)) $display("PASS: case %0d", i);
      else $display("FAIL: case %0d y=%b", i, y);
    end
    $finish;
  end
endmodule
""",
    "mux2", complexity=1))

_register(Problem(
    "c1_half_adder", "half adder",
    "Write a Verilog module 'half_adder' with inputs a and b, outputs sum "
    "and carry, implementing a half adder.",
    """module half_adder(input a, input b, output sum, output carry);
  assign sum = a ^ b;
  assign carry = a & b;
endmodule
""",
    """module tb;
  reg a, b; wire sum, carry;
  integer i;
  half_adder dut(.a(a), .b(b), .sum(sum), .carry(carry));
  initial begin
    for (i = 0; i < 4; i = i + 1) begin
      a = i[0]; b = i[1];
      #1;
      if (sum == (a ^ b) && carry == (a & b)) $display("PASS: %0d", i);
      else $display("FAIL: %0d sum=%b carry=%b", i, sum, carry);
    end
    $finish;
  end
endmodule
""",
    "half_adder", complexity=1))

_register(Problem(
    "c1_parity", "even parity generator",
    "Write a Verilog module 'parity8' with an 8-bit input d and output p "
    "that is the XOR of all bits of d (even parity).",
    """module parity8(input [7:0] d, output p);
  assign p = ^d;
endmodule
""",
    """module tb;
  reg [7:0] d; wire p;
  integer i;
  reg expected;
  parity8 dut(.d(d), .p(p));
  initial begin
    for (i = 0; i < 16; i = i + 1) begin
      d = i * 37 + i;
      #1;
      expected = d[0]^d[1]^d[2]^d[3]^d[4]^d[5]^d[6]^d[7];
      if (p == expected) $display("PASS: %0d", i);
      else $display("FAIL: %0d d=%h p=%b", i, d, p);
    end
    $finish;
  end
endmodule
""",
    "parity8", complexity=1))

_register(Problem(
    "c1_and4", "4-input AND",
    "Write a Verilog module 'and4' with a 4-bit input x and output y that "
    "is 1 only when all bits of x are 1.",
    """module and4(input [3:0] x, output y);
  assign y = &x;
endmodule
""",
    """module tb;
  reg [3:0] x; wire y;
  integer i;
  and4 dut(.x(x), .y(y));
  initial begin
    for (i = 0; i < 16; i = i + 1) begin
      x = i;
      #1;
      if (y == (x == 4'hf)) $display("PASS: %0d", i);
      else $display("FAIL: %0d y=%b", i, y);
    end
    $finish;
  end
endmodule
""",
    "and4", complexity=1))

# ===========================================================================
# Complexity 2 — simple datapath blocks
# ===========================================================================

_register(Problem(
    "c2_adder8", "8-bit adder with carry",
    "Write a Verilog module 'adder8' with 8-bit inputs a and b, input cin, "
    "8-bit output sum and output cout implementing a full 8-bit adder.",
    """module adder8(input [7:0] a, input [7:0] b, input cin,
              output [7:0] sum, output cout);
  wire [8:0] total;
  assign total = a + b + cin;
  assign sum = total[7:0];
  assign cout = total[8];
endmodule
""",
    """module tb;
  reg [7:0] a, b; reg cin;
  wire [7:0] sum; wire cout;
  integer i;
  reg [8:0] expected;
  adder8 dut(.a(a), .b(b), .cin(cin), .sum(sum), .cout(cout));
  initial begin
    for (i = 0; i < 20; i = i + 1) begin
      a = i * 13 + 7; b = i * 29 + 3; cin = i[0];
      #1;
      expected = a + b + cin;
      if (sum == expected[7:0] && cout == expected[8])
        $display("PASS: %0d", i);
      else
        $display("FAIL: %0d sum=%h cout=%b", i, sum, cout);
    end
    $finish;
  end
endmodule
""",
    "adder8", complexity=2))

_register(Problem(
    "c2_comparator", "4-bit comparator",
    "Write a Verilog module 'cmp4' with 4-bit inputs a and b and outputs "
    "lt, eq, gt indicating a<b, a==b, a>b respectively.",
    """module cmp4(input [3:0] a, input [3:0] b,
            output lt, output eq, output gt);
  assign lt = a < b;
  assign eq = a == b;
  assign gt = a > b;
endmodule
""",
    """module tb;
  reg [3:0] a, b;
  wire lt, eq, gt;
  integer i;
  cmp4 dut(.a(a), .b(b), .lt(lt), .eq(eq), .gt(gt));
  initial begin
    for (i = 0; i < 25; i = i + 1) begin
      a = i * 7; b = i * 3 + 2;
      #1;
      if (lt == (a < b) && eq == (a == b) && gt == (a > b))
        $display("PASS: %0d", i);
      else
        $display("FAIL: %0d a=%d b=%d", i, a, b);
    end
    $finish;
  end
endmodule
""",
    "cmp4", complexity=2))

_register(Problem(
    "c2_decoder", "3-to-8 decoder",
    "Write a Verilog module 'dec3to8' with a 3-bit input sel, input en, "
    "and an 8-bit one-hot output y. y is all zero when en is 0.",
    """module dec3to8(input [2:0] sel, input en, output [7:0] y);
  assign y = en ? (8'b1 << sel) : 8'b0;
endmodule
""",
    """module tb;
  reg [2:0] sel; reg en;
  wire [7:0] y;
  integer i;
  dec3to8 dut(.sel(sel), .en(en), .y(y));
  initial begin
    en = 1;
    for (i = 0; i < 8; i = i + 1) begin
      sel = i;
      #1;
      if (y == (8'h01 << i)) $display("PASS: sel %0d", i);
      else $display("FAIL: sel %0d y=%b", i, y);
    end
    en = 0; sel = 3;
    #1;
    if (y == 8'h00) $display("PASS: disabled");
    else $display("FAIL: disabled y=%b", y);
    $finish;
  end
endmodule
""",
    "dec3to8", complexity=2))

_register(Problem(
    "c2_absdiff", "absolute difference",
    "Write a Verilog module 'absdiff' with 8-bit unsigned inputs a and b "
    "and an 8-bit output y equal to the absolute difference |a - b|.",
    """module absdiff(input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = (a > b) ? (a - b) : (b - a);
endmodule
""",
    """module tb;
  reg [7:0] a, b; wire [7:0] y;
  integer i;
  reg [7:0] expected;
  absdiff dut(.a(a), .b(b), .y(y));
  initial begin
    for (i = 0; i < 20; i = i + 1) begin
      a = i * 11; b = 255 - i * 17;
      #1;
      if (a > b) expected = a - b; else expected = b - a;
      if (y == expected) $display("PASS: %0d", i);
      else $display("FAIL: %0d y=%d expected=%d", i, y, expected);
    end
    $finish;
  end
endmodule
""",
    "absdiff", complexity=2))

_register(Problem(
    "c2_gray", "binary to Gray code",
    "Write a Verilog module 'bin2gray' converting a 4-bit binary input b "
    "to its Gray code output g.",
    """module bin2gray(input [3:0] b, output [3:0] g);
  assign g = b ^ (b >> 1);
endmodule
""",
    """module tb;
  reg [3:0] b; wire [3:0] g;
  integer i;
  bin2gray dut(.b(b), .g(g));
  initial begin
    for (i = 0; i < 16; i = i + 1) begin
      b = i;
      #1;
      if (g == (b ^ (b >> 1))) $display("PASS: %0d", i);
      else $display("FAIL: %0d g=%b", i, g);
    end
    $finish;
  end
endmodule
""",
    "bin2gray", complexity=2))

_register(Problem(
    "c2_counter", "4-bit counter with synchronous reset",
    "Write a Verilog module 'counter4' with inputs clk and rst and a 4-bit "
    "output q. On each rising clock edge q increments; when rst is high at "
    "the clock edge q becomes 0. Reset is synchronous.",
    """module counter4(input clk, input rst, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else q <= q + 4'd1;
  end
endmodule
""",
    """module tb;
  reg clk, rst; wire [3:0] q;
  integer i;
  counter4 dut(.clk(clk), .rst(rst), .q(q));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1;
    @(posedge clk); #1;
    if (q == 0) $display("PASS: reset"); else $display("FAIL: reset q=%d", q);
    rst = 0;
    for (i = 1; i <= 5; i = i + 1) begin
      @(posedge clk); #1;
      if (q == i) $display("PASS: count %0d", i);
      else $display("FAIL: count %0d q=%d", i, q);
    end
    $finish;
  end
endmodule
""",
    "counter4", complexity=2, sequential=True, category="sequential"))

_register(Problem(
    "c2_shiftreg", "8-bit shift register",
    "Write a Verilog module 'shiftreg8' with inputs clk, rst, din and an "
    "8-bit output q. On each rising clock edge the register shifts left by "
    "one and din enters bit 0. rst synchronously clears the register.",
    """module shiftreg8(input clk, input rst, input din, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else q <= {q[6:0], din};
  end
endmodule
""",
    """module tb;
  reg clk, rst, din; wire [7:0] q;
  shiftreg8 dut(.clk(clk), .rst(rst), .din(din), .q(q));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1; din = 0;
    @(posedge clk); #1;
    rst = 0; din = 1;
    @(posedge clk); #1;
    if (q == 8'h01) $display("PASS: shift 1"); else $display("FAIL: q=%h", q);
    din = 0;
    @(posedge clk); #1;
    if (q == 8'h02) $display("PASS: shift 2"); else $display("FAIL: q=%h", q);
    din = 1;
    @(posedge clk); #1;
    if (q == 8'h05) $display("PASS: shift 3"); else $display("FAIL: q=%h", q);
    $finish;
  end
endmodule
""",
    "shiftreg8", complexity=2, sequential=True, category="sequential"))

# ===========================================================================
# Complexity 3 — compound blocks
# ===========================================================================

_register(Problem(
    "c3_alu", "8-bit ALU",
    "Write a Verilog module 'alu8' with 8-bit inputs a and b, a 2-bit "
    "input op, and an 8-bit output y. op=0: a+b, op=1: a-b, op=2: a AND b, "
    "op=3: a XOR b.",
    """module alu8(input [7:0] a, input [7:0] b, input [1:0] op,
            output reg [7:0] y);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a - b;
      2'd2: y = a & b;
      default: y = a ^ b;
    endcase
  end
endmodule
""",
    """module tb;
  reg [7:0] a, b; reg [1:0] op;
  wire [7:0] y;
  integer i;
  reg [7:0] expected;
  alu8 dut(.a(a), .b(b), .op(op), .y(y));
  initial begin
    for (i = 0; i < 24; i = i + 1) begin
      a = i * 23 + 5; b = i * 7 + 99; op = i % 4;
      #1;
      case (op)
        2'd0: expected = a + b;
        2'd1: expected = a - b;
        2'd2: expected = a & b;
        default: expected = a ^ b;
      endcase
      if (y == expected) $display("PASS: %0d", i);
      else $display("FAIL: %0d op=%d y=%h expected=%h", i, op, y, expected);
    end
    $finish;
  end
endmodule
""",
    "alu8", complexity=3))

_register(Problem(
    "c3_priority", "8-bit priority encoder",
    "Write a Verilog module 'prienc8' with an 8-bit input req and outputs: "
    "3-bit grant (index of the highest-priority set bit, bit 7 highest) and "
    "valid (1 when any bit of req is set; grant is 0 when valid is 0).",
    """module prienc8(input [7:0] req, output reg [2:0] grant, output valid);
  assign valid = |req;
  always @(*) begin
    if (req[7]) grant = 3'd7;
    else if (req[6]) grant = 3'd6;
    else if (req[5]) grant = 3'd5;
    else if (req[4]) grant = 3'd4;
    else if (req[3]) grant = 3'd3;
    else if (req[2]) grant = 3'd2;
    else if (req[1]) grant = 3'd1;
    else grant = 3'd0;
  end
endmodule
""",
    """module tb;
  reg [7:0] req;
  wire [2:0] grant; wire valid;
  integer i, j;
  reg [2:0] expected;
  prienc8 dut(.req(req), .grant(grant), .valid(valid));
  initial begin
    req = 0;
    #1;
    if (valid == 0) $display("PASS: idle"); else $display("FAIL: idle");
    for (i = 0; i < 16; i = i + 1) begin
      req = i * 37 + 1;
      #1;
      expected = 0;
      for (j = 0; j < 8; j = j + 1)
        if (req[j]) expected = j;
      if (grant == expected && valid == 1) $display("PASS: %0d", i);
      else $display("FAIL: %0d req=%b grant=%d", i, req, grant);
    end
    $finish;
  end
endmodule
""",
    "prienc8", complexity=3))

_register(Problem(
    "c3_updown", "4-bit up/down counter with enable",
    "Write a Verilog module 'updown4' with inputs clk, rst, en, up and a "
    "4-bit output q. When en is high at a rising clock edge, q increments "
    "if up is 1 and decrements if up is 0. rst synchronously clears q.",
    """module updown4(input clk, input rst, input en, input up,
               output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (en) begin
      if (up) q <= q + 4'd1;
      else q <= q - 4'd1;
    end
  end
endmodule
""",
    """module tb;
  reg clk, rst, en, up; wire [3:0] q;
  updown4 dut(.clk(clk), .rst(rst), .en(en), .up(up), .q(q));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1; en = 0; up = 1;
    @(posedge clk); #1;
    rst = 0; en = 1;
    @(posedge clk); #1;
    if (q == 1) $display("PASS: up"); else $display("FAIL: up q=%d", q);
    @(posedge clk); #1;
    if (q == 2) $display("PASS: up2"); else $display("FAIL: up2 q=%d", q);
    up = 0;
    @(posedge clk); #1;
    if (q == 1) $display("PASS: down"); else $display("FAIL: down q=%d", q);
    en = 0;
    @(posedge clk); #1;
    if (q == 1) $display("PASS: hold"); else $display("FAIL: hold q=%d", q);
    $finish;
  end
endmodule
""",
    "updown4", complexity=3, sequential=True, category="sequential"))

_register(Problem(
    "c3_edge", "rising edge detector",
    "Write a Verilog module 'edgedet' with inputs clk, rst and din, and "
    "output pulse that is high for exactly one cycle after din transitions "
    "from 0 to 1. rst synchronously clears internal state.",
    """module edgedet(input clk, input rst, input din, output pulse);
  reg prev;
  always @(posedge clk) begin
    if (rst) prev <= 1'b0;
    else prev <= din;
  end
  assign pulse = din & ~prev;
endmodule
""",
    """module tb;
  reg clk, rst, din; wire pulse;
  edgedet dut(.clk(clk), .rst(rst), .din(din), .pulse(pulse));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1; din = 0;
    @(posedge clk); #1;
    rst = 0;
    @(posedge clk); #1;
    din = 1;
    #1;
    if (pulse == 1) $display("PASS: edge seen");
    else $display("FAIL: no pulse");
    @(posedge clk); #1;
    if (pulse == 0) $display("PASS: pulse one cycle");
    else $display("FAIL: pulse still high");
    din = 0;
    @(posedge clk); #1;
    if (pulse == 0) $display("PASS: idle low");
    else $display("FAIL: pulse on falling edge");
    $finish;
  end
endmodule
""",
    "edgedet", complexity=3, sequential=True, category="sequential"))

_register(Problem(
    "c3_lfsr", "4-bit Fibonacci LFSR",
    "Write a Verilog module 'lfsr4' with inputs clk and rst and a 4-bit "
    "output q. On reset q loads 4'b0001. Each rising clock edge shifts "
    "left with the new bit 0 equal to q[3] XOR q[2].",
    """module lfsr4(input clk, input rst, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'b0001;
    else q <= {q[2:0], q[3] ^ q[2]};
  end
endmodule
""",
    """module tb;
  reg clk, rst; wire [3:0] q;
  integer i;
  reg [3:0] model;
  lfsr4 dut(.clk(clk), .rst(rst), .q(q));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1;
    @(posedge clk); #1;
    rst = 0; model = 4'b0001;
    for (i = 0; i < 8; i = i + 1) begin
      @(posedge clk); #1;
      model = {model[2:0], model[3] ^ model[2]};
      if (q == model) $display("PASS: step %0d", i);
      else $display("FAIL: step %0d q=%b model=%b", i, q, model);
    end
    $finish;
  end
endmodule
""",
    "lfsr4", complexity=3, sequential=True, category="sequential"))

# ===========================================================================
# Complexity 4 — control-dominated designs
# ===========================================================================

_register(Problem(
    "c4_seqdet", "sequence detector FSM (101, overlapping)",
    "Write a Verilog module 'seq101' with inputs clk, rst, din and output "
    "found, a Mealy FSM that raises found for one cycle whenever the "
    "serial input din has produced the pattern 1-0-1 (overlap allowed). "
    "rst synchronously returns to the idle state.",
    """module seq101(input clk, input rst, input din, output found);
  reg [1:0] state;
  always @(posedge clk) begin
    if (rst) state <= 2'd0;
    else begin
      case (state)
        2'd0: state <= din ? 2'd1 : 2'd0;
        2'd1: state <= din ? 2'd1 : 2'd2;
        default: state <= din ? 2'd1 : 2'd0;
      endcase
    end
  end
  assign found = (state == 2'd2) & din;
endmodule
""",
    """module tb;
  reg clk, rst, din; wire found;
  seq101 dut(.clk(clk), .rst(rst), .din(din), .found(found));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1; din = 0;
    @(posedge clk); #1;
    rst = 0;
    din = 1; @(posedge clk); #1;
    din = 0; @(posedge clk); #1;
    din = 1;
    #1;
    if (found == 1) $display("PASS: detect 101");
    else $display("FAIL: no detect");
    @(posedge clk); #1;
    din = 0; @(posedge clk); #1;
    din = 1;
    #1;
    if (found == 1) $display("PASS: overlap 101");
    else $display("FAIL: no overlap detect");
    @(posedge clk); #1;
    din = 1;
    #1;
    if (found == 0) $display("PASS: 11 not detected");
    else $display("FAIL: false positive");
    $finish;
  end
endmodule
""",
    "seq101", complexity=4, sequential=True, category="fsm"))

_register(Problem(
    "c4_sat_counter", "saturating up/down counter",
    "Write a Verilog module 'satcnt' with inputs clk, rst, inc, dec and a "
    "4-bit output q. Each rising edge: if inc and not dec, q increments "
    "but saturates at 15; if dec and not inc, q decrements but saturates "
    "at 0; otherwise q holds. rst synchronously clears q.",
    """module satcnt(input clk, input rst, input inc, input dec,
              output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (inc && !dec) begin
      if (q != 4'd15) q <= q + 4'd1;
    end else if (dec && !inc) begin
      if (q != 4'd0) q <= q - 4'd1;
    end
  end
endmodule
""",
    """module tb;
  reg clk, rst, inc, dec; wire [3:0] q;
  integer i;
  satcnt dut(.clk(clk), .rst(rst), .inc(inc), .dec(dec), .q(q));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1; inc = 0; dec = 0;
    @(posedge clk); #1;
    rst = 0; dec = 1;
    @(posedge clk); #1;
    if (q == 0) $display("PASS: floor"); else $display("FAIL: floor q=%d", q);
    dec = 0; inc = 1;
    for (i = 0; i < 17; i = i + 1) begin
      @(posedge clk); #1;
    end
    if (q == 15) $display("PASS: ceiling"); else $display("FAIL: ceil q=%d", q);
    inc = 1; dec = 1;
    @(posedge clk); #1;
    if (q == 15) $display("PASS: both hold"); else $display("FAIL: hold q=%d", q);
    inc = 0;
    @(posedge clk); #1;
    if (q == 14) $display("PASS: down"); else $display("FAIL: down q=%d", q);
    $finish;
  end
endmodule
""",
    "satcnt", complexity=4, sequential=True, category="fsm"))

# ===========================================================================
# Complexity 5 — open-ended / hierarchical (the Chip-Chat regime)
# ===========================================================================

_register(Problem(
    "c5_accumulator_cpu", "accumulator-based micro-datapath",
    "Design a small accumulator-based datapath 'accproc' with inputs clk, "
    "rst, a 2-bit instruction ins (0: load literal, 1: add literal, "
    "2: xor literal, 3: shift accumulator left by 1) and an 8-bit literal "
    "operand lit. The 8-bit accumulator acc is an output and updates on "
    "each rising clock edge; rst synchronously clears it. You have freedom "
    "in internal structure; match the architectural behaviour.",
    """module accproc(input clk, input rst, input [1:0] ins,
               input [7:0] lit, output reg [7:0] acc);
  always @(posedge clk) begin
    if (rst) acc <= 8'd0;
    else begin
      case (ins)
        2'd0: acc <= lit;
        2'd1: acc <= acc + lit;
        2'd2: acc <= acc ^ lit;
        default: acc <= {acc[6:0], 1'b0};
      endcase
    end
  end
endmodule
""",
    """module tb;
  reg clk, rst; reg [1:0] ins; reg [7:0] lit;
  wire [7:0] acc;
  accproc dut(.clk(clk), .rst(rst), .ins(ins), .lit(lit), .acc(acc));
  initial clk = 0;
  always #5 clk = ~clk;
  initial begin
    rst = 1; ins = 0; lit = 0;
    @(posedge clk); #1;
    rst = 0;
    ins = 2'd0; lit = 8'h3c;
    @(posedge clk); #1;
    if (acc == 8'h3c) $display("PASS: load"); else $display("FAIL: load acc=%h", acc);
    ins = 2'd1; lit = 8'h11;
    @(posedge clk); #1;
    if (acc == 8'h4d) $display("PASS: add"); else $display("FAIL: add acc=%h", acc);
    ins = 2'd2; lit = 8'hff;
    @(posedge clk); #1;
    if (acc == 8'hb2) $display("PASS: xor"); else $display("FAIL: xor acc=%h", acc);
    ins = 2'd3; lit = 8'h00;
    @(posedge clk); #1;
    if (acc == 8'h64) $display("PASS: shift"); else $display("FAIL: shift acc=%h", acc);
    $finish;
  end
endmodule
""",
    "accproc", complexity=5, sequential=True, open_ended=True,
    category="processor"))

_register(Problem(
    "c5_crypto_round", "toy cipher round (hierarchical)",
    "Design a combinational toy cipher round 'cround' with 16-bit input "
    "blk and 16-bit key, producing a 16-bit output out. The round XORs the "
    "block with the key, then substitutes each 4-bit nibble n with "
    "(n*5 + 3) mod 16, then rotates the whole 16-bit word left by 3. "
    "Structure the design as you see fit (submodules welcome).",
    """module sbox4(input [3:0] n, output [3:0] s);
  assign s = (n * 4'd5) + 4'd3;
endmodule

module cround(input [15:0] blk, input [15:0] key, output [15:0] out);
  wire [15:0] x;
  wire [15:0] subbed;
  assign x = blk ^ key;
  sbox4 s0(.n(x[3:0]), .s(subbed[3:0]));
  sbox4 s1(.n(x[7:4]), .s(subbed[7:4]));
  sbox4 s2(.n(x[11:8]), .s(subbed[11:8]));
  sbox4 s3(.n(x[15:12]), .s(subbed[15:12]));
  assign out = {subbed[12:0], subbed[15:13]};
endmodule
""",
    """module tb;
  reg [15:0] blk, key;
  wire [15:0] out;
  integer i;
  reg [15:0] x, subbed, expected;
  cround dut(.blk(blk), .key(key), .out(out));
  initial begin
    for (i = 0; i < 12; i = i + 1) begin
      blk = i * 4097 + 13; key = i * 257 + 911;
      #1;
      x = blk ^ key;
      subbed[3:0] = x[3:0] * 5 + 3;
      subbed[7:4] = x[7:4] * 5 + 3;
      subbed[11:8] = x[11:8] * 5 + 3;
      subbed[15:12] = x[15:12] * 5 + 3;
      expected = {subbed[12:0], subbed[15:13]};
      if (out == expected) $display("PASS: %0d", i);
      else $display("FAIL: %0d out=%h expected=%h", i, out, expected);
    end
    $finish;
  end
endmodule
""",
    "cround", complexity=5, open_ended=True, category="crypto"))
