"""Vendored sequence fixtures and the checks that recompute them."""

import pytest

from riordanlbp.oeis import check_sequence, known_ids, load_fixture


class TestLoadFixture:
    def test_known_ids_all_load(self):
        for sequence_id in known_ids():
            fixture = load_fixture(sequence_id)
            assert len(fixture) >= 10, sequence_id
            assert fixture.offset == 0, sequence_id

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_fixture("A000001", tmp_path)

    # int() accepts "5_0", "+5" and the fullwidth digit 5
    @pytest.mark.parametrize("line", ["1 2 3", "1 x", "2 2.5", "a 1", "1 5_0", "1 +5",
                                      "1 \uff15"])
    def test_malformed_line(self, tmp_path, line):
        path = tmp_path / "A000001.txt"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError) as info:
            load_fixture("A000001", tmp_path)
        assert str(info.value) == f"{path}:2: expected '<index> <integer>'"

    def test_non_consecutive_indices(self, tmp_path):
        (tmp_path / "A000001.txt").write_text("0 1\n2 2\n")
        with pytest.raises(ValueError):
            load_fixture("A000001", tmp_path)

    def test_empty_file(self, tmp_path):
        (tmp_path / "A000001.txt").write_text("\n")
        with pytest.raises(ValueError):
            load_fixture("A000001", tmp_path)


class TestCheckSequence:
    @pytest.mark.parametrize("sequence_id", sorted(known_ids()))
    def test_vendored_sequence_passes(self, sequence_id):
        check = check_sequence(sequence_id)
        assert check.passed, check.line()

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            check_sequence("A999999")

    def test_detects_corrupt_fixture(self, tmp_path):
        good = load_fixture("A000108")
        lines = [f"{i} {v}" for i, v in enumerate(good.terms)]
        lines[3] = "3 999"
        (tmp_path / "A000108.txt").write_text("\n".join(lines) + "\n")
        check = check_sequence("A000108", tmp_path)
        assert not check.passed
        assert "3" in check.detail
