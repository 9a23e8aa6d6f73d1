// fuzz finding: oracle=seed-corpus kind=hand-picked
// campaign seed=0 case=7 top=tb dut=slow_toggle
// replay: (hand-seeded edge case, not generated)
// detail: dynamic delay amount (#d where d is a register) — outside the
//   compiled engine's subset, so engine selection must fall back to
//   the event-driven simulator and still complete the testbench; pins the
//   selector's ineligible path (run_testbench tries compiled first)
// expect: pass
module slow_toggle(output reg q);
  reg [3:0] d = 2;
  initial q = 0;
  always begin
    #d q = ~q;
  end
endmodule
module tb();
  wire q;
  slow_toggle u0(.q(q));
  initial begin
    #3;
    if (q == 1'b1) $display("PASS: toggled at t=2");
    else $display("FAIL: q=%b at t=3", q);
    #2;
    if (q == 1'b0) $display("PASS: toggled back at t=4");
    else $display("FAIL: q=%b at t=5", q);
    $finish;
  end
endmodule
