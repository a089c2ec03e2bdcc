"""Record IO and span splicing."""

from __future__ import annotations

import pytest

from kgfaith.dialogue import DialogueRecord, read_dialogues, splice, write_dialogues
from kgfaith.errors import MalformedLine


class TestSplice:
    def test_single_replacement(self):
        text, spans = splice("I love The BFG", [(7, 14, "The Hobbit")])
        assert text == "I love The Hobbit"
        assert spans == [(7, 17)]

    def test_offsets_shift_after_earlier_edit(self):
        text, spans = splice("aa bb cc", [(0, 2, "xxxx"), (6, 8, "y")])
        assert text == "xxxx bb y"
        assert spans == [(0, 4), (8, 9)]

    def test_edit_order_does_not_matter(self):
        out1 = splice("aa bb cc", [(6, 8, "y"), (0, 2, "xxxx")])
        assert out1[0] == "xxxx bb y"
        assert out1[1] == [(8, 9), (0, 4)]

    def test_swap_round_trips(self):
        text = "alice saw bob"
        swapped, spans = splice(text, [(0, 5, "bob"), (10, 13, "alice")])
        assert swapped == "bob saw alice"
        back, _ = splice(swapped, [(spans[0][0], spans[0][1], "alice"),
                                   (spans[1][0], spans[1][1], "bob")])
        assert back == text

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            splice("abcdef", [(0, 3, "x"), (2, 5, "y")])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            splice("abc", [(1, 9, "x")])


class TestRecordIo:
    def test_round_trip(self, tmp_path):
        recs = [
            DialogueRecord(
                history=["hi"],
                triples=[("a", "r", "b")],
                response="b is nice",
                gold_response="b is fine",
                spans=[("b", 0, 1)],
            ),
            DialogueRecord(history=[], triples=[], response="plain"),
        ]
        path = tmp_path / "d.jsonl"
        assert write_dialogues(path, (r.to_json() for r in recs)) == 2
        back = read_dialogues(path)
        assert back == recs

    def test_extra_keys_survive(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"history": [], "triples": [], "response": "x", "note": "kept"}\n'
        )
        rec = read_dialogues(path)[0]
        assert rec.extra == {"note": "kept"}
        assert rec.to_json()["note"] == "kept"

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"history": [], "triples": [], "response": "x"}\nnot json\n')
        with pytest.raises(MalformedLine) as exc:
            read_dialogues(path)
        assert exc.value.line_number == 2

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"history": [], "response": "x"}\n')
        with pytest.raises(MalformedLine):
            read_dialogues(path)

    def test_span_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"history": [], "triples": [], "response": "x", "spans": [["e", 0, 9]]}\n'
        )
        with pytest.raises(MalformedLine):
            read_dialogues(path)

    def test_spans_not_a_list_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"history": [], "triples": [], "response": "x", "spans": 5}\n')
        with pytest.raises(MalformedLine, match="spans must be a list"):
            read_dialogues(path)

    @pytest.mark.parametrize("offset", ["null", '"one"', "[1]", "Infinity"])
    def test_span_offset_not_a_number_reports_line(self, tmp_path, offset):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"history": [], "triples": [], "response": "x"}\n'
            '{"history": [], "triples": [], "response": "xy", '
            f'"spans": [["e", {offset}, 1]]}}\n'
        )
        with pytest.raises(MalformedLine, match="span offsets must be numbers") as exc:
            read_dialogues(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "span, message",
        [
            ('[null, 0, 1]', "span entity must be a non-empty string"),
            ('[7, 0, 1]', "span entity must be a non-empty string"),
            ('["", 0, 1]', "span entity must be a non-empty string"),
            ('["e", "0", 1]', "span offsets must be numbers"),
            ('["e", 0.9, 1]', "span offsets must be numbers"),
            ('["e", 0, 1.0]', "span offsets must be numbers"),
            ('["e", true, 2]', "span offsets must be numbers"),
            ('["e", 0, true]', "span offsets must be numbers"),
        ],
    )
    def test_span_part_of_wrong_type_reports_line(self, tmp_path, span, message):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"history": [], "triples": [], "response": "x"}\n'
            f'{{"history": [], "triples": [], "response": "xy", "spans": [{span}]}}\n'
        )
        with pytest.raises(MalformedLine, match=message) as exc:
            read_dialogues(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("part", ["null", "7", '""', '["r"]'])
    def test_triple_part_not_a_string_reports_line(self, tmp_path, part):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"history": [], "triples": [], "response": "x"}\n'
            f'{{"history": [], "triples": [["a", {part}, "b"]], "response": "a b"}}\n'
        )
        with pytest.raises(MalformedLine, match="triple parts must be non-empty strings") as exc:
            read_dialogues(path)
        assert exc.value.line_number == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('\n{"history": [], "triples": [], "response": "x"}\n\n')
        assert len(read_dialogues(path)) == 1

    def test_toy_corpus_parses(self, data_dir):
        recs = read_dialogues(data_dir / "toy_dialogues.jsonl")
        assert len(recs) == 3
        assert recs[0].gold_response is not None
