"""Tests for placement JSON (de)serialization."""

import json

import numpy as np
import pytest

from repro.placement import Placement, load_placement, save_placement


@pytest.fixture
def placement():
    return Placement(np.array([[0, 1, 2], [2, 1, 0]]), name="vela")


class TestPlacementIO:
    def test_roundtrip(self, placement, tmp_path):
        path = str(tmp_path / "p.json")
        save_placement(placement, path, model_name="mixtral-8x7b-sim")
        loaded = load_placement(path)
        assert loaded == placement
        assert loaded.name == "vela"

    def test_human_readable(self, placement, tmp_path):
        path = str(tmp_path / "p.json")
        save_placement(placement, path, extra={"note": "test"})
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["num_layers"] == 2
        assert payload["extra"]["note"] == "test"

    def test_model_guard(self, placement, tmp_path):
        path = str(tmp_path / "p.json")
        save_placement(placement, path, model_name="mixtral-8x7b-sim")
        load_placement(path, expect_model="mixtral-8x7b-sim")
        with pytest.raises(ValueError, match="computed for model"):
            load_placement(path, expect_model="gritlm-8x7b-sim")

    def test_version_guard(self, placement, tmp_path):
        path = str(tmp_path / "p.json")
        save_placement(placement, path)
        with open(path) as handle:
            payload = json.load(handle)
        payload["format_version"] = 99
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="format version"):
            load_placement(path)

    def test_shape_guard(self, placement, tmp_path):
        path = str(tmp_path / "p.json")
        save_placement(placement, path)
        with open(path) as handle:
            payload = json.load(handle)
        payload["num_layers"] = 5
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="does not match"):
            load_placement(path)

    @pytest.mark.parametrize("worker", [1.7, True, "1"],
                             ids=["float", "bool", "string"])
    def test_non_integer_worker_rejected(self, placement, tmp_path, worker):
        """A hand-edited worker id that is not a JSON integer is refused,
        not cast to the nearest worker."""
        path = str(tmp_path / "p.json")
        save_placement(placement, path)
        with open(path) as handle:
            payload = json.load(handle)
        payload["assignment"][1][1] = worker
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="not an integer"):
            load_placement(path)

    def test_creates_directories(self, placement, tmp_path):
        path = str(tmp_path / "a" / "b" / "p.json")
        save_placement(placement, path)
        assert load_placement(path) == placement
