"""The JSON matroid interchange format: round trips and validation."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cremfan.cli import main
from cremfan.errors import InputError
from cremfan.field import Field, primitive_int_vector
from cremfan.isomorphism import find_isomorphism
from cremfan.matroid import VectorBackend
from cremfan.quad import QuadSqrt5
from cremfan.serialize import (
    dumps,
    load_matroid,
    matroid_from_dict,
    matroid_to_dict,
    save_matroid,
)


def census(M):
    return {
        k: {F.elements for F in M.flats_of_rank(k)}
        for k in range(M.full_rank() + 1)
    }


class TestRoundTrips:
    def test_vectors_q(self, a3, tmp_path):
        path = tmp_path / "a3.json"
        save_matroid(a3, path, name="fixture")
        loaded = load_matroid(path)
        assert loaded.ground.labels == a3.ground.labels
        assert census(loaded) == census(a3)
        assert loaded.name == "fixture"

    def test_vectors_qsqrt5(self, tmp_path):
        from cremfan.generators import coxeter_matroid
        h3 = coxeter_matroid("H3")
        path = tmp_path / "h3.json"
        save_matroid(h3, path)
        loaded = load_matroid(path)
        assert loaded.size == 15
        assert census(loaded) == census(h3)

    def test_loaded_entries_are_field_elements(self, tmp_path):
        # integer entries load through int(), but the vectors hold field
        # elements, never bare ints (int / int is a float)
        from cremfan.generators import coxeter_matroid
        for spec, kind in (("B4", Fraction), ("H3", QuadSqrt5)):
            path = tmp_path / f"{spec}.json"
            save_matroid(coxeter_matroid(spec), path)
            vectors = load_matroid(path).backend.vectors
            assert all(type(x) is kind for vec in vectors for x in vec)
            if kind is QuadSqrt5:
                assert all(type(x.a) is type(x.b) is Fraction for vec in vectors for x in vec)
        M = matroid_from_dict({"schema": 1, "kind": "matroid", "elements": ["a", "b"],
                               "backend": "vectors", "field": "Q",
                               "data": [["1", "-0_2"], [" 3/6", "1.5"]]})
        assert M.backend.vectors == [[1, -2], [Fraction(1, 2), Fraction(3, 2)]]
        assert all(type(x) is Fraction for vec in M.backend.vectors for x in vec)

    def test_vectors_fp(self, tmp_path):
        from cremfan.field import Field
        from cremfan.matroid import Matroid, VectorBackend
        f2 = Field.from_spec("Fp:2")
        M = Matroid(VectorBackend(f2, [(1, 0), (0, 1), (1, 1)]))
        doc = matroid_to_dict(M)
        assert doc["field"] == "Fp:2"
        loaded = matroid_from_dict(doc)
        assert census(loaded) == census(M)

    def test_lines(self, fano_m, tmp_path):
        path = tmp_path / "fano.json"
        save_matroid(fano_m, path)
        loaded = load_matroid(path)
        assert json.loads(path.read_text())["backend"] == "lines"
        assert census(loaded) == census(fano_m)

    def test_circuits(self, u23, tmp_path):
        path = tmp_path / "u23.json"
        save_matroid(u23, path)
        loaded = load_matroid(path)
        assert census(loaded) == census(u23)

    def test_oracle_backend_materializes(self, a3, tmp_path):
        # a contraction minor has no native serialization; it is written via
        # its circuits
        C, _q = a3.contract(0).simplify()
        doc = matroid_to_dict(C)
        assert doc["backend"] == "circuits"
        loaded = matroid_from_dict(doc)
        assert find_isomorphism(loaded, C) is not None

    def test_dumps_deterministic(self, a3):
        doc = matroid_to_dict(a3)
        assert dumps(doc) == dumps(json.loads(dumps(doc)))
        assert dumps(doc).endswith("\n")


def q_vectors_doc(data):
    return {"schema": 1, "kind": "matroid", "elements": [str(i) for i in range(len(data))],
            "backend": "vectors", "field": "Q", "data": data}


class TestIntegerEntries:
    """A row of integers over Q goes through int() straight into the
    kernels' row, with one gcd; the backend's vectors, the entries as
    Fractions, are built on first read. Other rows take Field.parse."""

    def test_integer_rows_load_with_no_fraction(self):
        data = [["2", "-4", "0"], ["0", "0", "0"], ["-6", " 9 ", "+3"], ["1_0", "0", "5"]]
        backend = matroid_from_dict(q_vectors_doc(data)).backend
        assert backend._rows == [(1, -2, 0), (0, 0, 0), (-2, 3, 1), (2, 0, 1)]
        assert "vectors" not in vars(backend)
        assert backend.vectors == [[Fraction(int(x)) for x in row] for row in data]
        assert all(type(x) is Fraction for vec in backend.vectors for x in vec)
        assert backend._rows == [primitive_int_vector(vec) for vec in backend.vectors]

    def test_integer_and_rational_rows_load_as_before(self):
        data = [["1", "1/2", "0"], ["3", "0", "-9"], ["0.5", "2", " 3/6"]]
        backend = matroid_from_dict(q_vectors_doc(data)).backend
        fractions = [[Fraction(x.strip()) for x in row] for row in data]
        assert backend.vectors == fractions
        assert backend._rows == [(2, 1, 0), (1, 0, -3), (1, 4, 1)]
        assert backend._rows == VectorBackend(Field.from_spec("Q"), fractions)._rows

    @pytest.mark.parametrize("data,message", [
        ([["1", 2], ["0", "1"]], "each vector must be a list of entry strings"),
        ([["1", "0"], ["1/0", "1"]], "bad vector entry: bad rational '1/0'"),
        ([["1", "0"], ["1"]], "vectors of mixed dimension"),
        ([["1", "0"], ["1/2"]], "vectors of mixed dimension"),
    ])
    def test_bad_files_exit_2(self, data, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(q_vectors_doc(data)))
        code = main(["cremona", str(path), "--enumerate"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines()[0] == f"error: {message}"

    def test_gen_a3_file_is_unchanged(self, tmp_path, capsys):
        # the sha256 of the file `gen A3` writes, which its report echoes;
        # saving the loaded file again writes the same bytes
        path = tmp_path / "a3.json"
        assert main(["gen", "A3", "--out", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        digest = "b9de14d42225dafd2a4ca845d6bf0b56c77a01ba33d9ede4d702b66abae85942"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert report["input"]["sha256"] == digest
        again = tmp_path / "again.json"
        save_matroid(load_matroid(path), again, name="A3")
        assert again.read_bytes() == path.read_bytes()


# strings with non-ASCII, control and lone surrogate characters
_text = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from('\ud800\udfff\x00\x1f\x7f"\\\u2028')),
    max_size=6,
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2 ** 200), 2 ** 200), _text,
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
# every key type json accepts; keys of mixed types make json's sort raise TypeError
_keys = st.one_of(_text, st.integers(), st.floats(), st.booleans(), st.none())
# values json cannot encode, and keys it refuses
_unencodable = st.sampled_from([Fraction(1, 2), {1, 2}, b"x", {(1, 2): 0}])
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=24,
)


class TestDumps:
    """``dumps`` against the ``json.dumps`` call it replaces (reference)."""

    @staticmethod
    def assert_as_json(doc):
        try:
            want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        except TypeError as exc:
            with pytest.raises(TypeError) as info:
                dumps(doc)
            assert str(info.value) == str(exc)
        else:
            assert dumps(doc) == want

    @given(_documents)
    @settings(max_examples=300, deadline=None)
    def test_text_of_json_dumps(self, doc):
        self.assert_as_json(doc)

    @given(_documents, _unencodable)
    @settings(max_examples=100, deadline=None)
    def test_same_type_error(self, doc, bad):
        self.assert_as_json([doc, bad])
        self.assert_as_json({"a": doc, "b": {"c": [bad]}})


class TestValidation:
    def make_doc(self, **overrides):
        doc = {
            "schema": 1,
            "kind": "matroid",
            "elements": ["a", "b", "c"],
            "backend": "circuits",
            "data": [[0, 1, 2]],
        }
        doc.update(overrides)
        return doc

    def test_minimal_circuit_doc(self):
        M = matroid_from_dict(self.make_doc())
        assert M.size == 3 and M.full_rank() == 2

    def test_bad_schema(self):
        with pytest.raises(InputError):
            matroid_from_dict(self.make_doc(schema=99))

    def test_bad_kind(self):
        with pytest.raises(InputError):
            matroid_from_dict(self.make_doc(kind="graph"))

    def test_bad_labels(self):
        with pytest.raises(InputError):
            matroid_from_dict(self.make_doc(elements=["a", "a", "b"]))
        with pytest.raises(InputError):
            matroid_from_dict(self.make_doc(elements=["a", 2, "b"]))

    def test_bad_backend(self):
        with pytest.raises(InputError):
            matroid_from_dict(self.make_doc(backend="widget"))

    def test_index_out_of_range(self):
        with pytest.raises(InputError):
            matroid_from_dict(self.make_doc(data=[[0, 1, 7]]))

    def test_bool_is_not_an_index(self):
        with pytest.raises(InputError):
            matroid_from_dict(self.make_doc(data=[[0, 1, True]]))

    def test_vectors_need_field(self):
        doc = self.make_doc(backend="vectors", data=[["1"], ["0"]],
                            elements=["a", "b"])
        with pytest.raises(InputError):
            matroid_from_dict(doc)  # field key missing entirely
        doc["field"] = "Fp:4"  # 4 is not prime
        with pytest.raises(InputError):
            matroid_from_dict(doc)

    def test_bad_field_element(self):
        doc = self.make_doc(backend="vectors", field="Q",
                            data=[["1"], ["nope"]], elements=["a", "b"])
        with pytest.raises(InputError):
            matroid_from_dict(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_matroid(tmp_path / "does_not_exist.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_matroid(path)

    def test_json_integer_past_the_digit_limit(self, tmp_path):
        # json.loads raises a plain ValueError for it, not a JSONDecodeError
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self.make_doc()).replace("2]]", "2" * 4301 + "]]"))
        with pytest.raises(InputError, match="invalid JSON"):
            load_matroid(path)

    def test_huge_exponent_in_a_vector_entry(self):
        doc = self.make_doc(backend="vectors", field="Q", data=[["1e10000000"], ["1"], ["2"]])
        with pytest.raises(InputError, match="bad rational '1e10000000'"):
            matroid_from_dict(doc)
