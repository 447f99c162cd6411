"""Tests for Verilog/BLIF export."""

import itertools

import pytest

from repro.bist import build_pipeline
from repro.encoding import encode_machine
from repro.exceptions import NetlistError
from repro.logic import synthesize_table
from repro.netlist import (
    GateKind,
    Netlist,
    controller_to_verilog,
    cover_to_netlist,
    netlist_to_blif,
    netlist_to_verilog,
    parse_blif_eval,
)
from repro.ostr import search_ostr


@pytest.fixture(scope="module")
def example_netlist(request):
    from repro.suite import paper_example

    encoded = encode_machine(paper_example())
    return cover_to_netlist(synthesize_table(encoded.table))


class TestVerilog:
    def test_structure(self, example_netlist):
        text = netlist_to_verilog(example_netlist)
        assert text.count("module ") == 1
        assert text.count("endmodule") == 1
        assert text.count("assign") == example_netlist.n_gates

    def test_identifiers_are_legal(self, example_netlist):
        import re

        text = netlist_to_verilog(example_netlist)
        for line in text.splitlines():
            if line.strip().startswith("assign"):
                target = line.split()[1]
                assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", target), target

    def test_const_gates(self):
        netlist = Netlist("c")
        netlist.add_input("a")
        netlist.add_gate(GateKind.CONST1, "one", [])
        netlist.add_gate(GateKind.NOT, "na", ["a"])
        netlist.add_gate(GateKind.XOR, "y", ["na", "one"])
        netlist.mark_output("y")
        netlist.freeze()
        text = netlist_to_verilog(netlist)
        assert "1'b1" in text
        assert "~" in text and "^" in text

    def test_output_equals_input_rejected(self):
        netlist = Netlist("bad")
        netlist.add_input("a")
        netlist.mark_output("a")
        netlist.freeze()
        with pytest.raises(NetlistError):
            netlist_to_verilog(netlist)

    def test_block_name_sanitised(self, example_netlist):
        text = netlist_to_verilog(example_netlist, module_name="weird name{x}")
        assert "module weird_name_x_" in text


class TestControllerVerilog:
    @pytest.fixture(scope="class")
    def controller(self):
        from repro.suite import shift_register

        machine = shift_register(3)
        return build_pipeline(search_ostr(machine).realization())

    def test_module_set(self, controller):
        text = controller_to_verilog(controller, module_name="sr")
        assert text.count("endmodule") == 4  # c1, c2, lambda, top
        assert "module sr (" in text
        assert "posedge clk" in text

    def test_register_widths_and_reset(self, controller):
        text = controller_to_verilog(controller, module_name="sr")
        assert f"reg  [{controller.w1 - 1}:0] r1;" in text
        assert f"reg  [{controller.w2 - 1}:0] r2;" in text
        r1_reset, r2_reset = controller.registers(controller.machine.reset_state)
        assert f"r1 <= {controller.w1}'d{r1_reset};" in text

    def test_cross_coupling_direction(self, controller):
        """C1 must feed next_r2 and C2 next_r1 (the Figure-4 pipeline)."""
        text = controller_to_verilog(controller, module_name="sr")
        c1_line = next(l for l in text.splitlines() if "u_c1" in l)
        c2_line = next(l for l in text.splitlines() if "u_c2" in l)
        assert "next_r2" in c1_line and "next_r1" not in c1_line
        assert "next_r1" in c2_line and "next_r2" not in c2_line


class TestBlif:
    def test_roundtrip_functional_equivalence(self, example_netlist):
        """Our BLIF, interpreted, equals the netlist on every pattern."""
        text = netlist_to_blif(example_netlist)
        inputs = list(example_netlist.inputs)
        for bits in itertools.product((0, 1), repeat=len(inputs)):
            pattern = dict(zip(inputs, bits))
            expected = example_netlist.evaluate_outputs(pattern)
            actual = parse_blif_eval(text, pattern)
            assert actual == expected

    def test_header(self, example_netlist):
        text = netlist_to_blif(example_netlist, model_name="m1")
        lines = text.splitlines()
        assert lines[0] == ".model m1"
        assert lines[1].startswith(".inputs")
        assert lines[2].startswith(".outputs")
        assert lines[-1] == ".end"

    def test_xor_and_const_rows(self):
        netlist = Netlist("mix")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate(GateKind.XOR, "x", ["a", "b"])
        netlist.add_gate(GateKind.CONST0, "zero", [])
        netlist.add_gate(GateKind.OR, "y", ["x", "zero"])
        netlist.mark_output("y")
        netlist.freeze()
        text = netlist_to_blif(netlist)
        for bits in itertools.product((0, 1), repeat=2):
            pattern = {"a": bits[0], "b": bits[1]}
            assert (
                parse_blif_eval(text, pattern)["y"]
                == netlist.evaluate_outputs(pattern)["y"]
            )

    def test_pipeline_blocks_roundtrip(self):
        from repro.suite import paper_example

        controller = build_pipeline(search_ostr(paper_example()).realization())
        for block in (controller.c1, controller.c2, controller.lambda_net):
            text = netlist_to_blif(block)
            inputs = list(block.inputs)
            for bits in itertools.product((0, 1), repeat=len(inputs)):
                pattern = dict(zip(inputs, bits))
                assert parse_blif_eval(text, pattern) == block.evaluate_outputs(
                    pattern
                )
