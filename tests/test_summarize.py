import pytest
from hypothesis import given, strategies as st

from clinnote.errors import InvalidInput, RequestFailed
from clinnote.extraction import parse_structured_output
from clinnote.summarize import (
    SummaryRecord,
    Summarizer,
    contains_digits,
    reduction_pct,
    reduction_stats,
    render_structural,
    word_count,
)


class TestWordCount:
    @pytest.mark.parametrize("text,n", [
        ("", 0), ("   ", 0), ("one", 1), ("one two", 2),
        ("one  two\nthree\tfour", 4), ("hyphen-stays one", 2),
    ])
    def test_counts(self, text, n):
        assert word_count(text) == n

    @given(st.lists(st.text(alphabet="abcXYZ.,-", min_size=1), max_size=20))
    def test_join_invariant(self, words):
        assert word_count(" ".join(words)) == len(words)


class TestContainsDigits:
    def test_cases(self):
        assert contains_digits("BP 130/80")
        assert contains_digits("x9")
        assert not contains_digits("one hundred and four")
        assert not contains_digits("")


class TestReductionPct:
    def test_basic(self):
        assert reduction_pct(100, 25) == pytest.approx(75.0)
        assert reduction_pct(100, 100) == pytest.approx(0.0)
        assert reduction_pct(100, 150) == pytest.approx(-50.0)

    def test_zero_raw(self):
        assert reduction_pct(0, 0) == 100.0
        assert reduction_pct(0, 5) == 0.0

    @given(st.integers(1, 5000), st.integers(0, 5000))
    def test_bounded_above_by_100(self, raw, summ):
        assert reduction_pct(raw, summ) <= 100.0


NOTE = "The patient is a seventy-year-old man admitted with dyspnea. " * 20


class TestSummarizer:
    def test_overall_counts(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["Short summary of the stay."])
        rec = Summarizer(gw).summarize(NOTE, "overall", hadm_id="H1")
        assert rec.status == "ok"
        assert rec.word_count_raw == word_count(NOTE)
        assert rec.word_count_summary == 5
        assert rec.reduction_pct == pytest.approx(
            (1 - 5 / word_count(NOTE)) * 100
        )
        assert backend.calls == 1

    def test_summary_temperature_from_config(self, scripted_gateway_factory):
        seen = []
        gw, backend = scripted_gateway_factory(["ok"])
        original = backend.chat

        def spy(request):
            seen.append(request.temperature)
            return original(request)

        backend.chat = spy
        Summarizer(gw).summarize(NOTE, "overall")
        assert seen == [gw.config.summary_temperature]

    def test_no_number_clean_first_try(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["No numerals here."])
        rec = Summarizer(gw).summarize(NOTE, "no_number")
        assert rec.status == "ok"
        assert backend.calls == 1

    def test_no_number_reprompt_fixes(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(
            ["BP was 130/80.", "Blood pressure was mildly elevated."]
        )
        rec = Summarizer(gw).summarize(NOTE, "no_number")
        assert rec.status == "ok"
        assert backend.calls == 2
        assert not contains_digits(rec.text)

    def test_no_number_flagged_after_two_tries(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["HR 88.", "Still HR 88."])
        rec = Summarizer(gw).summarize(NOTE, "no_number")
        assert rec.status == "contains_numbers"
        assert backend.calls == 2

    def test_gateway_failure_yields_failed_record(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])

        def boom(request):
            raise RequestFailed("down")

        backend.chat = boom
        rec = Summarizer(gw).summarize(NOTE, "overall", hadm_id="H1")
        assert rec.status == "failed"
        assert rec.text == ""

    def test_programming_error_propagates(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])

        def bug(request):
            raise TypeError("bug in the backend")

        backend.chat = bug
        with pytest.raises(TypeError):
            Summarizer(gw).summarize(NOTE, "overall", hadm_id="H1")

    def test_bad_inputs(self, mock_gateway):
        s = Summarizer(mock_gateway)
        with pytest.raises(InvalidInput):
            s.summarize("  ", "overall")
        with pytest.raises(InvalidInput):
            s.summarize(NOTE, "structural")  # rendered, not prompted


class TestRenderStructural:
    def _record(self):
        return parse_structured_output(
            '{"Charted_SDOHs": {"Gender": "M", "Age": "72"},'
            ' "Clinical_Info": {"Vitals": {"Heart_Rate": "88"}},'
            ' "Diagnoses": [{"Condition": "CHF", "Details": "diuresed"},'
            '               {"Condition": "AFib"}]}',
            hadm_id="H1",
        )

    def test_stable_order_and_nulls_omitted(self):
        rec = render_structural(self._record(), note_text=NOTE)
        assert rec.text.splitlines() == [
            "gender: M",
            "age: 72",
            "heart_rate: 88",
            "diagnosis: CHF (diuresed)",
            "diagnosis: AFib",
        ]
        assert rec.variant == "structural"

    def test_deterministic(self):
        a = render_structural(self._record(), NOTE)
        b = render_structural(self._record(), NOTE)
        assert a.text == b.text


class TestReductionStats:
    def test_grouped_by_variant_excluding_failures(self):
        records = [
            SummaryRecord("H1", "overall", "", 100, 20, 80.0),
            SummaryRecord("H2", "overall", "", 100, 40, 60.0),
            SummaryRecord("H3", "overall", "", 100, 90, 10.0, status="failed"),
            SummaryRecord("H1", "no_number", "", 100, 30, 70.0),
            SummaryRecord("H2", "no_number", "", 100, 50, 50.0,
                          status="contains_numbers"),
        ]
        stats = reduction_stats(records)
        assert stats["overall"] == {"mean": 70.0, "median": 70.0, "n": 2}
        assert stats["no_number"] == {"mean": 70.0, "median": 70.0, "n": 1}
        assert "structural" not in stats
