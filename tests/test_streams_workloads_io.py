"""Tests for query/packet workloads, stream I/O, and the Stream model."""

import pytest

from repro.streams.io import (
    StreamFormatError,
    TextStreamReader,
    iter_stream_text,
    read_stream_jsonl,
    read_stream_text,
    write_stream_jsonl,
    write_stream_text,
)
from repro.streams.model import Stream
from repro.streams.packets import Flow, FlowStreamGenerator
from repro.streams.queries import Burst, QueryStreamGenerator


class TestStreamModel:
    def test_sequence_protocol(self):
        stream = Stream(["a", "b", "a"])
        assert len(stream) == 3
        assert stream[0] == "a"
        assert list(stream) == ["a", "b", "a"]

    def test_counts(self):
        stream = Stream(["a", "b", "a"])
        assert stream.counts() == {"a": 2, "b": 1}

    def test_distinct(self):
        assert Stream(["a", "b", "a"]).distinct() == 2

    def test_describe_includes_params(self):
        stream = Stream([1], name="test", params={"z": 1.0})
        text = stream.describe()
        assert "test" in text
        assert "z=1.0" in text

    def test_reiterable(self):
        """Streams must support multiple passes (the 2-pass algorithms)."""
        stream = Stream([1, 2, 3])
        assert list(stream) == list(stream)


class TestQueryStream:
    def test_vocabulary_size(self):
        generator = QueryStreamGenerator(vocabulary_size=100, seed=0)
        assert len(generator.vocabulary) == 100
        assert len(set(generator.vocabulary)) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryStreamGenerator(vocabulary_size=0)

    def test_generate_strings(self):
        stream = QueryStreamGenerator(vocabulary_size=50, seed=1).generate(200)
        assert len(stream) == 200
        assert all(isinstance(item, str) for item in stream)

    def test_popularity_is_skewed(self):
        generator = QueryStreamGenerator(vocabulary_size=200, z=1.0, seed=2)
        stream = generator.generate(20_000)
        counts = stream.counts()
        top_query = generator.query_for_rank(1)
        mid_query = generator.query_for_rank(100)
        assert counts[top_query] > counts.get(mid_query, 0)

    def test_burst_injection(self):
        generator = QueryStreamGenerator(vocabulary_size=500, seed=3)
        burst = Burst("BREAKING", start=100, end=600, fraction=0.5)
        stream = generator.generate(1000, bursts=(burst,))
        counts = stream.counts()
        assert 150 < counts["BREAKING"] < 350
        # Burst confined to its window.
        assert "BREAKING" not in stream[:100]
        assert "BREAKING" not in stream[600:]

    def test_burst_validation(self):
        generator = QueryStreamGenerator(vocabulary_size=10, seed=0)
        with pytest.raises(ValueError):
            generator.generate(100, bursts=(Burst("x", 50, 200, 0.5),))
        with pytest.raises(ValueError):
            generator.generate(100, bursts=(Burst("x", 0, 50, 0.0),))

    def test_deterministic(self):
        a = QueryStreamGenerator(vocabulary_size=50, seed=7).generate(100)
        b = QueryStreamGenerator(vocabulary_size=50, seed=7).generate(100)
        assert list(a) == list(b)


class TestFlowStream:
    def test_flow_structure(self):
        generator = FlowStreamGenerator(num_flows=20, seed=0)
        stream = generator.generate(100)
        packet = stream[0]
        assert isinstance(packet, Flow)
        assert packet.protocol in ("tcp", "udp", "icmp")
        assert 0 < packet.src_port < 65536

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowStreamGenerator(num_flows=0)

    def test_elephant_flow_dominates(self):
        generator = FlowStreamGenerator(num_flows=500, z=1.3, seed=1)
        stream = generator.generate(20_000)
        counts = stream.counts()
        elephant = generator.flow_for_rank(1)
        assert counts[elephant] == max(counts.values())

    def test_flows_are_distinct(self):
        generator = FlowStreamGenerator(num_flows=100, seed=2)
        assert len(set(generator.flows)) == 100

    def test_deterministic(self):
        a = FlowStreamGenerator(num_flows=20, seed=3).generate(50)
        b = FlowStreamGenerator(num_flows=20, seed=3).generate(50)
        assert list(a) == list(b)


class TestStreamIO:
    def test_text_roundtrip_strings(self, tmp_path):
        path = tmp_path / "stream.txt"
        items = ["alpha", "beta", "alpha"]
        assert write_stream_text(path, items) == 3
        assert read_stream_text(path) == items

    def test_text_roundtrip_ints(self, tmp_path):
        path = tmp_path / "stream.txt"
        items = [5, 3, 5, 1]
        write_stream_text(path, items)
        assert read_stream_text(path, as_int=True) == items

    def test_text_rejects_newlines(self, tmp_path):
        with pytest.raises(ValueError):
            write_stream_text(tmp_path / "x.txt", ["bad\nitem"])

    def test_iter_stream_text(self, tmp_path):
        path = tmp_path / "stream.txt"
        write_stream_text(path, [1, 2, 3])
        assert list(iter_stream_text(path, as_int=True)) == [1, 2, 3]

    def test_text_rejects_carriage_returns(self, tmp_path):
        with pytest.raises(ValueError):
            write_stream_text(tmp_path / "x.txt", ["bad\ritem"])

    def test_crlf_and_lf_files_read_identically(self, tmp_path):
        """A CRLF rewrite of a stream file must yield the same items —
        trailing ``\\r`` would encode (and hash) differently, silently
        splitting one item's counts in two."""
        items = ["alpha", "beta", "alpha", "42"]
        lf = tmp_path / "lf.txt"
        crlf = tmp_path / "crlf.txt"
        lf.write_bytes(("\n".join(items) + "\n").encode())
        crlf.write_bytes(("\r\n".join(items) + "\r\n").encode())
        assert read_stream_text(crlf) == items
        assert read_stream_text(crlf) == read_stream_text(lf)
        assert list(iter_stream_text(crlf)) == items
        from repro.streams.io import TextStreamReader

        assert list(TextStreamReader(crlf)) == items

    def test_crlf_int_keys(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"5\r\n3\r\n5\r\n")
        assert read_stream_text(path, as_int=True) == [5, 3, 5]
        assert list(iter_stream_text(path, as_int=True)) == [5, 3, 5]

    def test_crlf_file_without_trailing_newline(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a\r\nb")
        assert read_stream_text(path) == ["a", "b"]

    def test_jsonl_roundtrip_tuples(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        items = [("10.0.0.1", "10.0.0.2", 80, 443, "tcp"), ("a", 1, "b")]
        write_stream_jsonl(path, items)
        assert read_stream_jsonl(path) == items

    def test_jsonl_roundtrip_mixed(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        items = ["query", 42, 3.5, ("nested", ("pair", 1))]
        write_stream_jsonl(path, items)
        assert read_stream_jsonl(path) == items

    def test_jsonl_rejects_unserializable(self, tmp_path):
        with pytest.raises(TypeError):
            write_stream_jsonl(tmp_path / "x.jsonl", [{"a": 1}])

    def test_flow_roundtrip_preserves_hashing(self, tmp_path):
        """Persisted flows must encode identically after a round-trip."""
        from repro.hashing.encode import encode_key

        generator = FlowStreamGenerator(num_flows=5, seed=4)
        items = list(generator.generate(20))
        path = tmp_path / "flows.jsonl"
        write_stream_jsonl(path, items)
        revived = read_stream_jsonl(path)
        for original, loaded in zip(items, revived, strict=True):
            assert encode_key(tuple(original)) == encode_key(loaded)


class TestStreamFormatError:
    """A line that cannot be read is one error naming the file and line."""

    def test_non_integer_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "ints.txt"
        path.write_bytes(b"1\n2\nx\n4\n")
        items = iter_stream_text(path, as_int=True)
        assert [next(items), next(items)] == [1, 2]
        with pytest.raises(StreamFormatError) as caught:
            next(items)
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == f"{path}, line 3: not an integer: 'x'"

    def test_crlf_non_integer_line_reports_the_stripped_value(
        self, tmp_path
    ):
        path = tmp_path / "ints.txt"
        path.write_bytes(b"1\r\nbad\r\n")
        with pytest.raises(StreamFormatError,
                           match=r"line 2: not an integer: 'bad'$"):
            list(iter_stream_text(path, as_int=True))

    @pytest.mark.parametrize(
        ("content", "line"),
        [
            (b"\xff\xfe\nok\n", 1),
            # Far past the decoder's read-ahead block.
            (b"item-12345\n" * 14_999 + b"bad-\xff\n" + b"ok\n" * 10,
             15_000),
            (b"a\nb\nc\xff", 3),
            (b"caf\xc3\xa9\ncaf\xc3\n", 2),
        ],
        ids=["first-line", "deep-line", "last-line-no-newline",
             "truncated-sequence"],
    )
    def test_undecodable_line_is_named(self, tmp_path, content, line):
        path = tmp_path / "stream.txt"
        path.write_bytes(content)
        with pytest.raises(StreamFormatError) as caught:
            list(iter_stream_text(path))
        assert str(caught.value) == f"{path}, line {line}: not UTF-8 text"

    def test_readers_built_on_iter_stream_text_raise_it(self, tmp_path):
        path = tmp_path / "ints.txt"
        path.write_bytes(b"7\nseven\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream_text(path, as_int=True)
        with pytest.raises(StreamFormatError, match="line 2"):
            list(TextStreamReader(path, as_int=True))
