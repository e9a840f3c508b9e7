"""JSON and CSV codec round trips and determinism."""

import math

import numpy as np
import pytest

from qeffort import (
    ValidationError,
    constant_hamiltonian,
    csv_text,
    dump_json,
    hamiltonian_from_json,
    hamiltonian_to_json,
    interpolated_hamiltonian,
    matrix_from_json,
    matrix_to_json,
    piecewise_hamiltonian,
    state_from_json,
    state_to_json,
    write_csv,
    write_json,
)
from conftest import random_hermitian


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(81)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_malformed(self):
        with pytest.raises(ValidationError, match="malformed complex matrix"):
            matrix_from_json([[["a", "b"]]])
        with pytest.raises(ValidationError, match=r"rows of \[re, im\] pairs"):
            matrix_from_json([[1.0, 2.0], [3.0, 4.0]])

    def test_error_carries_the_name(self):
        with pytest.raises(ValidationError, match="drive:"):
            matrix_from_json([[1.0]], name="drive")


class TestStateCodec:
    def test_round_trip(self):
        v = np.array([1.0 + 2.0j, -0.5j])
        np.testing.assert_array_equal(state_from_json(state_to_json(v)), v)

    def test_malformed(self):
        with pytest.raises(ValidationError, match=r"list of \[re, im\] pairs"):
            state_from_json([1.0, 0.0])


class TestHamiltonianCodec:
    def test_constant_round_trip(self):
        rng = np.random.default_rng(82)
        h = constant_hamiltonian(random_hermitian(rng, 3, 1.0))
        back = hamiltonian_from_json(hamiltonian_to_json(h))
        assert back.kind == "constant"
        np.testing.assert_allclose(back.at(0.0), h.at(0.0))

    def test_piecewise_round_trip(self):
        rng = np.random.default_rng(83)
        h = piecewise_hamiltonian(
            [(0.5, random_hermitian(rng, 2, 1.0)), (0.25, random_hermitian(rng, 2, 1.0))]
        )
        back = hamiltonian_from_json(hamiltonian_to_json(h))
        assert back.kind == "piecewise"
        assert back.total_duration() == pytest.approx(0.75)
        np.testing.assert_allclose(back.at(0.6), h.at(0.6))

    def test_interpolated_round_trip(self):
        rng = np.random.default_rng(84)
        h = interpolated_hamiltonian(
            (t, random_hermitian(rng, 2, 1.0)) for t in (0.0, 0.4, 1.0)
        )
        back = hamiltonian_from_json(hamiltonian_to_json(h))
        assert back.kind == "interpolated"
        np.testing.assert_allclose(back.at(0.7), h.at(0.7))

    def test_round_trip_keeps_the_blocks(self):
        rng = np.random.default_rng(85)
        mats = [random_hermitian(rng, 3, 1.0) for _ in range(4)]
        durations = rng.uniform(0.05, 1.5, 4)  # two come back one ulp off
        exact = [
            constant_hamiltonian(mats[0]),
            interpolated_hamiltonian(zip([-0.1, 0.2, 0.7, 1.0 / 3.0 + 1.0], mats)),
        ]
        for h in exact + [piecewise_hamiltonian(zip(durations, mats))]:
            back = hamiltonian_from_json(hamiltonian_to_json(h))
            assert (back.dim, back.kind, len(back.blocks)) == (h.dim, h.kind, len(h.blocks))
            for (t0, t1, desc), (b0, b1, back_desc) in zip(h.blocks, back.blocks):
                if h in exact:
                    assert (b0, b1) == (t0, t1)
                else:  # durations pass through t1 - t0 and back
                    assert b0 == pytest.approx(t0, rel=4e-16, abs=0.0)
                    assert b1 == pytest.approx(t1, rel=4e-16, abs=0.0)
                assert len(back_desc) == len(desc) and back_desc[0] == desc[0]
                for x, y in zip(desc[1:], back_desc[1:]):
                    np.testing.assert_array_equal(y, x)

    @pytest.mark.parametrize(
        "obj, match",
        [
            ({"kind": "piecewise", "segments": [[0.5, [[[1, 0]]]]]}, "segment 0 must be a JSON"),
            ({"kind": "piecewise", "segments": [{"matrix": [[[1, 0]]]}]}, "segment 0 duration"),
            (
                {"kind": "interpolated", "samples": [{"time": 0.0, "matrix": [[[1, 0]]]},
                                                     {"matrix": [[[1, 0]]]}]},
                "sample 1 time",
            ),
            ({"kind": "constant", "dim": "two", "matrix": [[[1, 0]]]}, "declared dim 'two'"),
        ],
        ids=["segment-not-object", "no-duration", "no-time", "dim-not-integer"],
    )
    def test_malformed_entries_are_validation_errors(self, obj, match):
        with pytest.raises(ValidationError, match=match):
            hamiltonian_from_json(obj)

    def test_validation(self):
        with pytest.raises(ValidationError, match="expected a JSON object"):
            hamiltonian_from_json([1, 2])
        with pytest.raises(ValidationError, match="unknown kind"):
            hamiltonian_from_json({"kind": "fourier"})
        with pytest.raises(ValidationError, match="'segments' must be a non-empty"):
            hamiltonian_from_json({"kind": "piecewise", "segments": []})
        with pytest.raises(ValidationError, match="at least two points"):
            hamiltonian_from_json(
                {"kind": "interpolated", "samples": [{"time": 0.0, "matrix": [[[1, 0]]]}]}
            )
        with pytest.raises(ValidationError, match="declared dim 3 but"):
            hamiltonian_from_json(
                {"kind": "constant", "dim": 3, "matrix": matrix_to_json(np.eye(2))}
            )


class TestJsonText:
    def test_trailing_newline_and_determinism(self):
        payload = {"b": 1, "a": [1.5, 2.5]}
        text = dump_json(payload)
        assert text.endswith("\n")
        assert text == dump_json({"b": 1, "a": [1.5, 2.5]})

    def test_numpy_scalars_serialize(self):
        text = dump_json(
            {"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}
        )
        assert '"i": 3' in text
        assert '"f": 0.5' in text
        assert '"b": true' in text

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_json({"m": np.eye(2)})

    def test_write_json_uses_lf(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"x": 1})
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestCsvText:
    def test_cell_formats(self):
        text = csv_text(
            ("a", "b", "c", "d"),
            [(1, math.pi, True, "label"), (2, 0.5, False, "x")],
        )
        lines = text.split("\n")
        assert lines[0] == "a,b,c,d"
        assert lines[1] == "1,3.1415926535897931,1,label"
        assert lines[2] == "2,0.5,0,x"
        assert text.endswith("\n")

    def test_matches_the_per_cell_route_on_mixed_rows(self):
        def cell(x):
            # The per-cell formatter csv_text used to call on every cell.
            if isinstance(x, (bool, np.bool_)):
                return "1" if x else "0"
            if isinstance(x, (int, np.integer)):
                return str(int(x))
            if isinstance(x, (float, np.floating)):
                return "%.17g" % float(x)
            return str(x)

        rows = [
            (True, np.bool_(False), 7, np.int64(-3), 0.1, np.float64(2.5e-300)),
            (np.bool_(True), False, np.int32(12), 2**70, -0.0, math.inf),
            (math.nan, -math.inf, np.float32(0.1), np.uint8(255), "a,b%s", 1e22),
            (1.5, 2, np.float64(math.pi), "label"),
            [np.int64(4), np.float64(-0.0), np.bool_(False), "x"],
            (),
            (3, 0.5, True),
        ]
        want = "\n".join(
            [",".join(("h1", "h2"))] + [",".join(cell(x) for x in row) for row in rows]
        ) + "\n"
        assert csv_text(("h1", "h2"), rows) == want
        assert csv_text(("h1", "h2"), iter(rows)) == want

    def test_seventeen_digits_round_trip(self):
        value = 0.1 + 0.2
        cell = csv_text(("v",), [(value,)]).split("\n")[1]
        assert float(cell) == value

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("x",), [(1,), (2,)])
        assert path.read_bytes() == b"x\n1\n2\n"