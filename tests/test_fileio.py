"""The typed reader of JSON documents: one test per annotation form it meets
in the documents the CLI reads, and the messages it gives."""

import json
import types
import typing
from dataclasses import dataclass, field
from typing import Literal

import pytest

from dumpwatch._fileio import parse, read_document


@dataclass(frozen=True)
class Inner:
    x: float
    y: float = 0.0

    def __post_init__(self):
        if self.x < 0:
            raise ValueError(f"x: must be >= 0, got {self.x}")
        if self.x > self.y + 10:
            raise ValueError("too far from y")
        if self.x == 7:
            10**400 / 3  # an arithmetic fault of a range check


@dataclass(frozen=True)
class Document:
    kind: Literal["doc"]
    count: int
    inner: Inner
    flag: bool = False
    name: str = ""
    names: tuple[str, ...] | None = None
    pair: tuple[int, int] = (0, 0)
    weight: float | Literal["auto"] = "auto"
    digests: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _document(**fields):
    return {"kind": "doc", "count": 1, "inner": {"x": 1.5}, **fields}


def _fault(**fields) -> str:
    with pytest.raises(ValueError) as exc:
        parse(Document, _document(**fields))
    return str(exc.value)


class TestUnionOrigins:
    def test_pep_604_unions_of_classes_and_of_literals(self):
        # the reader takes both: a Literal member makes ``|`` a typing.Union
        hints = typing.get_type_hints(Document)
        assert typing.get_origin(hints["names"]) is types.UnionType
        assert typing.get_origin(hints["weight"]) is typing.Union


class TestParse:
    def test_a_whole_document(self):
        doc = parse(
            Document,
            _document(
                flag=True, name="a", names=["R", "G"], pair=[3, 4], weight=2, digests={"s": "ab"}, extra={"k": [1]}
            ),
        )
        assert doc == Document(
            "doc", 1, Inner(1.5), True, "a", ("R", "G"), (3, 4), 2, {"s": "ab"}, {"k": [1]}
        )
        assert type(doc.weight) is int  # a number is kept as given

    def test_defaults_fill_missing_optional_keys(self):
        assert parse(Document, _document()) == Document("doc", 1, Inner(1.5))

    @pytest.mark.parametrize("value", [1.0, True, "1", None, 10**400])
    def test_int_takes_an_integer_only(self, value):
        if value == 10**400:
            assert parse(Document, _document(count=value)).count == value
        else:
            assert _fault(count=value) == f"count: expected integer, got {json.dumps(value)}"

    @pytest.mark.parametrize(
        "value, shown",
        [(True, "true"), ("0.1", '"0.1"'), (float("inf"), "Infinity"), (10**400, "1" + "0" * 56 + "...")],
    )
    def test_float_takes_a_number_whose_float_is_finite(self, value, shown):
        assert _fault(inner={"x": value}) == f"inner.x: expected finite number, got {shown}"

    def test_bool_and_str(self):
        assert _fault(flag=1) == "flag: expected boolean, got 1"
        assert _fault(name=["a"]) == 'name: expected string, got ["a"]'

    def test_literal_takes_its_values_of_their_type(self):
        assert _fault(kind="other") == 'kind: expected "doc", got "other"'
        assert _fault(weight="x") == 'weight: expected finite number or "auto", got "x"'

    def test_variable_tuple_names_the_item(self):
        assert _fault(names="RG") == 'names: expected list of strings or null, got "RG"'
        assert _fault(names=["R", 2]) == "names[1]: expected string, got 2"
        assert parse(Document, _document(names=None)).names is None

    def test_fixed_tuple_takes_its_length(self):
        assert _fault(pair=[1, 2, 3]) == "pair: expected list of 2 integers, got [1, 2, 3]"
        assert _fault(pair=[1, "2"]) == 'pair[1]: expected integer, got "2"'

    def test_dicts(self):
        assert _fault(digests={"s": 5}) == "digests.s: expected string, got 5"
        assert _fault(digests=[]) == "digests: expected object, got []"
        assert _fault(extra="x") == 'extra: expected object, got "x"'

    def test_nested_dataclass(self):
        assert _fault(inner=[1]) == "inner: expected object, got [1]"
        assert _fault(inner={}) == "inner.x: missing"

    def test_missing_and_unknown_keys(self):
        with pytest.raises(ValueError, match="^count: missing$"):
            parse(Document, {"kind": "doc", "inner": {"x": 1}})
        assert _fault(colour=1) == "colour: unknown field"
        assert _fault(inner={"x": 1, "z": 2}) == "inner.z: unknown field"

    def test_not_an_object(self):
        with pytest.raises(ValueError, match=r"^expected object, got \[1\]$"):
            parse(Document, [1])

    def test_range_checks_join_the_path(self):
        assert _fault(inner={"x": -1}) == "inner.x: must be >= 0, got -1"
        assert _fault(inner={"x": 11}) == "inner: too far from y"
        assert _fault(inner={"x": 7}) == "inner: integer division result too large for a float"

    def test_long_values_are_cut_short(self):
        message = _fault(name=list(range(100)))
        assert message.startswith("name: expected string, got [0, 1, 2") and message.endswith("...")
        assert len(message) < 100


class TestReadDocument:
    def test_a_fault_names_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_document(pair=[1])))
        with pytest.raises(ValueError, match=rf"^{path}: pair: expected list of 2 integers, got \[1\]$"):
            read_document(Document, path)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"kind": "doc", "count": NaN}')
        with pytest.raises(ValueError, match=f"^invalid JSON in {path}: non-standard constant NaN"):
            read_document(Document, path)

    def test_reads_a_document(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_document()))
        assert read_document(Document, path) == Document("doc", 1, Inner(1.5))
