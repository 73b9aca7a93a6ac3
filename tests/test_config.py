"""Config schema: strict parsing, defaults, cross-field validation."""

import pytest

from torusobs import ConfigError, RunConfig
from torusobs.config import ToleranceSchedule, WindowSchedule


def minimal(**overrides):
    base = {
        "schema": 1,
        "space": {"dim": 1},
        "prototype": {"boxes": [[0, "1/4"]]},
        "model": "schrodinger",
        "duration": 1.0,
        "sim_window": 2,
    }
    base.update(overrides)
    return base


def test_minimal_config_fills_defaults():
    config = RunConfig.from_dict(minimal())
    assert config.dim == 1
    assert config.measure == 0.25
    assert config.interval_count == 1
    assert config.windows == WindowSchedule()  # stride 5 capped at 7
    assert config.tolerances == ToleranceSchedule()
    assert config.datum.window == config.sim_window
    assert config.datum.seed == 0
    assert config.design.method == "equispaced"
    assert config.schedule.speeds == (10.0, 100.0, 1000.0, 10000.0)
    assert config.window_at(1) == 1
    assert config.tolerance_at(1) == pytest.approx(0.125)


def test_unknown_keys_are_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict(minimal(flavor="spicy"))
    with pytest.raises(ConfigError, match="config.datum"):
        RunConfig.from_dict(minimal(datum={"window": 1, "flavor": "mild"}))
    with pytest.raises(ConfigError, match="config.windows"):
        RunConfig.from_dict(minimal(windows={"kind": "stride", "value": 3}))
    # the grid candidates are always 4*cutoff+2 per axis: no count is read
    with pytest.raises(ConfigError, match="config.design.*grid_per_axis"):
        RunConfig.from_dict(minimal(design={"method": "solver", "grid_per_axis": 6}))


def test_schema_version_is_checked():
    with pytest.raises(ConfigError, match="schema"):
        RunConfig.from_dict(minimal(schema=2))
    data = minimal()
    del data["schema"]
    with pytest.raises(ConfigError, match="schema"):
        RunConfig.from_dict(data)


def test_dimension_must_be_one_or_two():
    with pytest.raises(ConfigError, match="dim"):
        RunConfig.from_dict(minimal(space={"dim": 3}))


def test_box_parsing():
    config = RunConfig.from_dict(
        minimal(prototype={"boxes": [[0, 0.1], ["1/2", "7/10"]]})
    )
    assert config.measure == pytest.approx(0.3)

    two_d = RunConfig.from_dict(
        minimal(
            space={"dim": 2},
            prototype={"boxes": [[[0, "1/2"], [0, "1/2"]]]},
        )
    )
    assert two_d.measure == 0.25

    with pytest.raises(ConfigError, match="fraction"):
        RunConfig.from_dict(minimal(prototype={"boxes": [[0, "1/0"]]}))
    with pytest.raises(ConfigError, match="fraction"):
        RunConfig.from_dict(minimal(prototype={"boxes": [[0, "abc"]]}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(minimal(prototype={"boxes": [[0]]}))
    with pytest.raises(ConfigError, match="per-axis"):
        RunConfig.from_dict(
            minimal(space={"dim": 2}, prototype={"boxes": [[[0, "1/2"]]]})
        )
    with pytest.raises(ConfigError):
        RunConfig.from_dict(minimal(prototype={"boxes": []}))
    # overlap is caught by the cross-field validation pass
    with pytest.raises(ConfigError, match="prototype"):
        RunConfig.from_dict(
            minimal(prototype={"boxes": [[0, "1/2"], ["1/4", "3/4"]]})
        )


def test_model_mass_pairing():
    with pytest.raises(ConfigError, match="mass"):
        RunConfig.from_dict(minimal(model="wave", mass=0.5))
    with pytest.raises(ConfigError, match="mass"):
        RunConfig.from_dict(minimal(model="klein_gordon"))
    with pytest.raises(ConfigError, match="mass"):
        RunConfig.from_dict(minimal(model="schrodinger", mass=1.0))
    config = RunConfig.from_dict(minimal(model="klein_gordon", mass=1.0))
    assert config.mass == 1.0
    with pytest.raises(ConfigError, match="model"):
        RunConfig.from_dict(minimal(model="heat"))


def test_cross_field_guards():
    with pytest.raises(ConfigError, match="duration"):
        RunConfig.from_dict(minimal(duration=0.0))
    with pytest.raises(ConfigError, match="interval_count"):
        RunConfig.from_dict(minimal(interval_count=0))
    with pytest.raises(ConfigError, match="datum.window"):
        RunConfig.from_dict(minimal(datum={"window": 3}))
    with pytest.raises(ConfigError, match="sim_window"):
        RunConfig.from_dict(minimal(windows={"kind": "fixed", "value": 2}))
    with pytest.raises(ConfigError, match="tolerances"):
        RunConfig.from_dict(
            minimal(tolerances={"kind": "fixed", "value": 0.25})
        )
    with pytest.raises(ConfigError, match="tolerances"):
        RunConfig.from_dict(
            minimal(tolerances={"kind": "fixed", "value": 0.0})
        )
    with pytest.raises(ConfigError, match="expected an integer"):
        RunConfig.from_dict(minimal(sim_window=True))


@pytest.mark.parametrize("key", ["interval", "emit_intervals"])
@pytest.mark.parametrize("index", [0, 4])
def test_schedule_intervals_lie_inside_the_run(key, index):
    def config(m):
        value = m if key == "interval" else [1, m]
        return minimal(interval_count=3, schedule={key: value})

    with pytest.raises(ConfigError, match=f"config\\.schedule\\.{key}: "):
        RunConfig.from_dict(config(index))
    assert RunConfig.from_dict(config(3)).interval_count == 3


@pytest.mark.parametrize(
    "speeds,index,value",
    [([100.0, 100.0], 1, "100.0"), ([10, 100.0, 10.0], 2, "10.0")],
)
def test_speed_ladder_entries_are_distinct(speeds, index, value):
    # a repeated speed would write its continuous records twice
    with pytest.raises(
        ConfigError, match=rf"config\.schedule\.speeds\[{index}\]: repeats {value}"
    ):
        RunConfig.from_dict(minimal(schedule={"speeds": speeds}))
    distinct = RunConfig.from_dict(minimal(schedule={"speeds": [100.0, 10.0]}))
    assert distinct.schedule.speeds == (100.0, 10.0)


def test_window_schedules():
    stride = RunConfig.from_dict(
        minimal(
            sim_window=3,
            interval_count=4,
            windows={"kind": "stride", "stride": 2, "cap": 2},
        )
    )
    assert [stride.window_at(m) for m in (1, 2, 3, 4)] == [1, 1, 2, 2]

    explicit = RunConfig.from_dict(
        minimal(
            sim_window=3,
            interval_count=5,
            windows={"kind": "explicit", "values": [1, 2]},
        )
    )
    assert [explicit.window_at(m) for m in (1, 2, 3, 5)] == [1, 2, 2, 2]

    fixed = RunConfig.from_dict(
        minimal(sim_window=3, windows={"kind": "fixed", "value": 2})
    )
    assert fixed.window_at(17) == 2


def test_tolerance_schedules():
    config = RunConfig.from_dict(minimal(sim_window=3, interval_count=6))
    for m in range(1, 7):
        assert config.tolerance_at(m) == pytest.approx(0.25 / (m + 1), rel=1e-15)

    explicit = RunConfig.from_dict(
        minimal(tolerances={"kind": "explicit", "values": [0.1, 0.05]})
    )
    assert explicit.tolerance_at(1) == 0.1
    assert explicit.tolerance_at(9) == 0.05


def test_from_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_file(bad)


def test_from_file_round_trip(tmp_path):
    import json

    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal()))
    config = RunConfig.from_file(path)
    assert config == RunConfig.from_dict(minimal())
