import csv
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcom import ingest
from dcom.core import ColumnInstance
from dcom.errors import ConfigError, DcomError, FormatError, ParseError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadJsonl:
    def test_day_example(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"label":"day","values":["1","2","3","4","5","6","7","8"]}'])
        instances, vocab = ingest.load_dataset(f, "jsonl")
        assert len(instances) == 1
        assert instances[0].values == tuple("12345678")
        assert instances[0].label == "day"
        assert vocab.names == ("day",)

    def test_gender_example(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"label":"gender","values":["F","M"]}'])
        instances, _ = ingest.load_dataset(f, "jsonl")
        assert instances[0].n == 2
        assert instances[0].label == "gender"

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.jsonl"
        f.write_text("", encoding="utf-8")
        instances, vocab = ingest.load_dataset(f, "jsonl")
        assert instances == [] and len(vocab) == 0

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"label":"a","values":["x"]}', "{broken"])
        with pytest.raises(ParseError, match="line 2"):
            ingest.load_dataset(f, "jsonl")

    def test_empty_values_rejected(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"label":"a","values":[]}'])
        with pytest.raises(ParseError, match="empty value list"):
            ingest.load_dataset(f, "jsonl")

    @pytest.mark.parametrize("value", ["null", '{"a": 1}', "[1]"])
    def test_non_scalar_value_rejected(self, tmp_path, value):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"label":"a","values":["x"]}', '{"label":"a","values":["x",%s]}' % value])
        with pytest.raises(ParseError, match="line 2"):
            ingest.load_dataset(f, "jsonl")

    @pytest.mark.parametrize("line", [
        b'{"label":"a","values":["\xff"]}',  # not UTF-8
        b'{"label":"a","values":[' + b"1" * 5000 + b"]}",  # too long to convert
        b"[" * 100_000 + b"]" * 100_000,  # nested too deeply to decode
    ], ids=["not-utf8", "long-int", "deep"])
    def test_undecodable_line_reports_number(self, tmp_path, line):
        f = tmp_path / "d.jsonl"
        f.write_bytes(b'{"label":"a","values":["x"]}\n' + line + b"\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest.load_dataset(f, "jsonl")

    def test_order_preserved_and_round_trip(self, tmp_path):
        records = [
            {"label": "a", "values": ["1", "", "3"]},
            {"label": "b", "values": ["x y", "z"]},
        ]
        f = tmp_path / "d.jsonl"
        write_lines(f, [json.dumps(r) for r in records])
        instances, _ = ingest.load_dataset(f, "jsonl")
        out = tmp_path / "o.jsonl"
        ingest.save_jsonl(instances, out)
        reloaded, _ = ingest.load_dataset(out, "jsonl")
        assert reloaded == instances
        assert [i.label for i in instances] == ["a", "b"]

    def test_separator_values_kept_byte_for_byte(self, tmp_path):
        # the separator is only an id between values, so no value is rewritten
        values = ["<SEP>", "<\\SEP>", "a <SEP> b", "<SEP><SEP>"]
        jsonl = tmp_path / "d.jsonl"
        write_lines(jsonl, [json.dumps({"label": "a", "values": values})])
        long = tmp_path / "d.csv"
        with open(long, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["column_id", "label", "value"])
            writer.writerows(["c1", "a", v] for v in values)
        saved = tmp_path / "saved.jsonl"
        for path, fmt in ((jsonl, "jsonl"), (long, "csv_long")):
            instances, _ = ingest.load_dataset(path, fmt)
            assert instances[0].values == tuple(values)
            ingest.save_jsonl(instances, saved)
            reloaded, _ = ingest.load_dataset(saved, "jsonl")
            assert reloaded == instances


class TestLoadCsvLong:
    def test_basic(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["column_id,label,value", "c1,day,1", "c1,day,2", "c2,gender,F"])
        instances, vocab = ingest.load_dataset(f, "csv_long")
        assert instances[0].values == ("1", "2")
        assert instances[1].label == "gender"
        assert vocab.names == ("day", "gender")

    def test_bad_header(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["a,b,c", "c1,day,1"])
        with pytest.raises(FormatError):
            ingest.load_dataset(f, "csv_long")

    def test_conflicting_labels(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["column_id,label,value", "c1,day,1", "c1,rank,2"])
        with pytest.raises(ParseError, match="conflicting"):
            ingest.load_dataset(f, "csv_long")


    @pytest.mark.parametrize("row,error", [
        (b"c1,b,2", "conflicting"),
        (b"c1,b", "3 fields"),
    ])
    def test_error_after_multiline_value_reports_file_line(self, tmp_path, row, error):
        # the quoted value spans file lines 2-4, so the bad row is on line 5
        f = tmp_path / "d.csv"
        f.write_bytes(b'column_id,label,value\nc1,a,"x\ny\nz"\n' + row + b"\n")
        with pytest.raises(ParseError, match=f"line 5: .*{error}"):
            ingest.load_dataset(f, "csv_long")

    @pytest.mark.parametrize("value", [
        b"\xfe",  # not UTF-8
        b"y" * 140_000,  # longer than csv.field_size_limit()
    ], ids=["not-utf8", "over-field-limit"])
    def test_unreadable_value_reports_line(self, tmp_path, value):
        f = tmp_path / "d.csv"
        f.write_bytes(b"column_id,label,value\nc1,day,1\nc2,day," + value + b"\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest.load_dataset(f, "csv_long")


class TestMakeSplit:
    def test_exact_division(self):
        s = ingest.make_split(10, seed=7)
        assert (len(s.train), len(s.validation), len(s.test)) == (6, 2, 2)

    def test_largest_remainder_n5(self):
        s = ingest.make_split(5, seed=7)
        assert (len(s.train), len(s.validation), len(s.test)) == (3, 1, 1)

    def test_deterministic(self):
        a = ingest.make_split(100, seed=42)
        b = ingest.make_split(100, seed=42)
        assert a == b

    def test_partition(self):
        s = ingest.make_split(37, seed=3)
        all_idx = set(s.train) | set(s.validation) | set(s.test)
        assert all_idx == set(range(37))
        assert len(s.train) + len(s.validation) + len(s.test) == 37

    def test_stratified_proportions(self):
        labels = ["a"] * 30 + ["b"] * 20
        s = ingest.make_split(50, seed=1, stratify_labels=labels)
        train_a = sum(1 for i in s.train if labels[i] == "a")
        assert train_a == 18  # 60% of 30
        assert sum(1 for i in s.test if labels[i] == "b") == 4

    def test_stratified_with_unlabeled_columns(self):
        # an unlabeled column (None) used to end the label sort in a TypeError
        labels = ["b"] * 10 + [None] * 5 + ["a"] * 10
        s = ingest.make_split(25, seed=1, stratify_labels=labels)
        assert sum(1 for i in s.train if labels[i] is None) == 3
        assert sorted(s.train + s.validation + s.test) == list(range(25))

    def test_small_class_warns(self):
        labels = ["a"] * 10 + ["b"] * 2
        with pytest.warns(UserWarning, match="fewer than 3"):
            ingest.make_split(12, seed=1, stratify_labels=labels)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            ingest.make_split(10, ratios=(0.5, 0.2, 0.2), seed=0)

    def test_manifest_round_trip(self, tmp_path):
        s = ingest.make_split(20, seed=5)
        path = tmp_path / "split.json"
        s.save(path)
        assert ingest.DatasetSplit.load(path) == s

    @pytest.mark.parametrize("text", [
        "", "not json", "null",
        '{"indices": {"train": [], "validation": [], "test": []}, "seed": 1}',
        '{"indices": [], "seed": 1, "ratios": [0.6, 0.2, 0.2]}',
        '{"indices": {"train": [true], "validation": [], "test": []}, "seed": 1, "ratios": [1]}',
        '{"indices": {"train": [], "validation": [], "test": []}, "seed": "1", "ratios": [1]}',
        '{"indices": {"train": [], "validation": [], "test": []}, "seed": 1, "ratios": 1}',
        pytest.param('{"indices": {"train": [0, 1, 2, 3], "validation": [0, 1], "test": [0, 1]},'
                     ' "seed": 1, "ratios": [0.6, 0.2, 0.2]}', id="shared"),
        pytest.param('{"indices": {"train": [0, 1], "validation": [2], "test": [3, 3]},'
                     ' "seed": 1, "ratios": [0.6, 0.2, 0.2]}', id="repeated"),
        pytest.param("[" * 100_000, id="deep"),
        pytest.param(b'{"seed": 1, "\xff": 0}', id="not-utf8"),
    ])
    def test_malformed_manifest_format_error(self, tmp_path, text):
        path = tmp_path / "split.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(FormatError, match="split"):
            ingest.DatasetSplit.load(path)


VALID_FILES = {
    "jsonl": b'{"label": "day", "values": ["1", 2, 3.5]}\n\n{"values": ["F", true]}\n',
    "csv": b'column_id,label,value\r\nc1,day,1\r\nc1,day,"2,\n3"\r\nc2,,F\r\n',
    "split": json.dumps({"seed": 1, "ratios": [0.6, 0.2, 0.2], "stratified": True,
                         "indices": {"train": [0, 3], "validation": [1], "test": [2]}}).encode(),
}
LOADERS = {"jsonl": ingest.load_jsonl, "csv": ingest.load_csv_long,
           "split": ingest.DatasetSplit.load}


@st.composite
def damaged(draw, valid):
    """Arbitrary bytes, or a valid file with one span of bytes replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    start = draw(st.integers(0, len(valid)))
    stop = draw(st.integers(start, min(len(valid), start + 8)))
    return valid[:start] + draw(st.binary(max_size=8)) + valid[stop:]


class TestLoadersOnAnyBytes:
    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_valid_file_loads(self, fuzz_dir, kind):
        path = fuzz_dir / f"valid.{kind}"
        path.write_bytes(VALID_FILES[kind])
        assert LOADERS[kind](path)

    @pytest.mark.parametrize("kind", list(LOADERS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_result_or_dcom_error(self, fuzz_dir, kind, data):
        path = fuzz_dir / f"fuzz.{kind}"
        path.write_bytes(data.draw(damaged(VALID_FILES[kind])))
        try:
            LOADERS[kind](path)
        except DcomError:
            pass


class TestSyntheticCorpus:
    def test_counts(self):
        spec = {"day": "day_numbers", "gender": "gender_codes"}
        corpus = ingest.generate_synthetic_corpus(spec, 2, seed=1)
        assert len(corpus) == 4
        assert sum(1 for c in corpus if c.label == "day") == 2

    def test_isbn_pattern(self):
        corpus = ingest.generate_synthetic_corpus(
            {"isbn": "isbn_like", "day": "day_numbers"}, 5, seed=2
        )
        pattern = re.compile(r"^97[89]-\d-\d{3}-\d{5}-\d$")
        for inst in corpus:
            if inst.label == "isbn":
                for v in inst.values:
                    assert pattern.match(v), v
                    assert sum(ch.isdigit() for ch in v) == 13

    def test_reproducible(self):
        spec = ingest.DEFAULT_CLASS_SPEC
        a = ingest.generate_synthetic_corpus(spec, 3, seed=9)
        b = ingest.generate_synthetic_corpus(spec, 3, seed=9)
        assert a == b

    def test_unknown_generator(self):
        with pytest.raises(ConfigError, match="unknown generator"):
            ingest.generate_synthetic_corpus({"a": "nope", "b": "ages"}, 1, seed=0)

    def test_generator_must_be_a_name(self):
        with pytest.raises(ConfigError, match="unknown generator"):
            ingest.generate_synthetic_corpus({"a": {"generator": "ages"}, "b": "ages"}, 1, seed=0)

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            ingest.generate_synthetic_corpus({"a": "ages"}, 1, seed=0)


def test_empty_instance_rejected():
    with pytest.raises(ParseError):
        ColumnInstance(())
