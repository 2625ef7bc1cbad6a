from dataclasses import fields
from pathlib import Path

import pytest

from rislink.cli import PAPER_SCALE
from rislink.config import ConfigError, ScenarioConfig, load_scenario


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_file_gives_evaluation_defaults(self, tmp_path):
        # desk-scale arrays; the evaluation's sizes are --paper-scale's
        cfg = load_scenario(write(tmp_path, ""))
        assert (cfg.n_users, cfg.n_ris_elements, cfg.n_bs_antennas) == (4, 16, 32)
        paper = cfg.replace(**PAPER_SCALE)
        assert (paper.n_users, paper.n_ris_elements, paper.n_bs_antennas) == (8, 64, 128)
        assert cfg.rician_factor == 10.0
        assert cfg.speed == 50.0
        assert cfg.carrier_f1 == 5.9e9
        assert cfg.symbol_period == 8e-6
        assert cfg.pathloss_exponents == (2.5, 2.3, 2.1)
        assert cfg.blocks_per_frame == 40 and cfg.symbols_per_block == 25

    def test_comment_only_file(self, tmp_path):
        cfg = load_scenario(write(tmp_path, "# just a comment\n\n"))
        assert cfg == ScenarioConfig()

    def test_derived_quantities(self):
        cfg = ScenarioConfig()
        assert abs(cfg.doppler_max - 50.0 * 5.9e9 / 3e8) < 1e-6
        assert cfg.ris_grid == (4, 4)
        assert ScenarioConfig(n_ris_elements=12).ris_grid == (4, 3)


class TestParsing:
    def test_zero_speed_valid(self, tmp_path):
        cfg = load_scenario(write(tmp_path, "speed: 0\n"))
        assert cfg.speed == 0.0
        assert cfg.doppler_max == 0.0

    def test_zero_antennas_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_scenario(write(tmp_path, "n_bs_antennas: 0\n"))
        assert "n_bs_antennas" in str(err.value)

    def test_equals_separator_and_comments(self, tmp_path):
        cfg = load_scenario(write(tmp_path, "n_users = 2  # inline comment\n"))
        assert cfg.n_users == 2

    def test_vector_values(self, tmp_path):
        cfg = load_scenario(write(tmp_path, "bs_position: 1, 2, 3\n"))
        assert cfg.bs_position == (1.0, 2.0, 3.0)

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_scenario(write(tmp_path, "\nnot_a_key: 3\n"))
        assert "line 2" in str(err.value)

    def test_removed_samples_per_symbol_is_unknown(self, tmp_path):
        for key in ("samples_per_symbol", "pilot_len", "rician_K", "rician_V",
                    "ebn0_db_grid"):
            with pytest.raises(ConfigError) as err:
                load_scenario(write(tmp_path, f"{key}: 16\n"))
            assert f"unknown key '{key}'" in str(err.value)

    def test_bad_value_reports_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_scenario(write(tmp_path, "speed: fast\n"))
        assert "speed" in str(err.value)

    def test_missing_separator(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(write(tmp_path, "just words\n"))

    def test_phase_mode_choices(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(write(tmp_path, "ris_phase_mode: sideways\n"))
        cfg = load_scenario(write(tmp_path, "ris_phase_mode: random\n"))
        assert cfg.ris_phase_mode == "random"

    def test_noise_override(self, tmp_path):
        cfg = load_scenario(write(tmp_path, "noise_sigma2: 0\n"))
        assert cfg.noise_sigma2 == 0.0


class TestEveryKey:
    VALUES = dict(
        bs_position=(1.0, -2.0, 3.5), ris_position=(0.0, 40.0, 12.0),
        coverage_length=80.0, n_users=3, n_ris_elements=12, n_bs_antennas=16,
        rician_factor=2.5,
        pathloss_exponents=(2.0, 2.2, 2.4), carrier_f1=2.4e9, symbol_period=4e-6,
        speed=12.5, blocks_per_frame=10, symbols_per_block=5,
        noise_sigma2=0.125, ebn0_db=3.5,
        seed=2 ** 64 - 1, ris_phase_mode="random", direct_link=True,
        mc_min_errors=7, mc_min_trials=9, mc_trial_ceiling=11, mc_symbol_chunk=13,
        mc_symbol_ceiling=17, snr_channel_draws=19, pdf_fit_samples=23)

    @staticmethod
    def text(value):
        if isinstance(value, tuple):
            return ", ".join(map(str, value))
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def test_every_field_is_a_key_that_round_trips(self, tmp_path):
        assert set(self.VALUES) == {f.name for f in fields(ScenarioConfig)}
        defaults = ScenarioConfig()
        assert all(getattr(defaults, k) != v for k, v in self.VALUES.items())
        body = "".join(f"{k}: {self.text(v)}\n" for k, v in self.VALUES.items())
        cfg = load_scenario(write(tmp_path, body))
        assert cfg == ScenarioConfig(**self.VALUES)


class TestReplace:
    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            ScenarioConfig().replace(n_users=0)


REAL_FIELDS = [f.name for f in fields(ScenarioConfig)
               if f.type in ("float", "float | None", "tuple")]


class TestNonFinite:
    def test_every_real_field_is_covered(self):
        # a real-valued field under another annotation would escape the check
        others = {f.type for f in fields(ScenarioConfig) if f.name not in REAL_FIELDS}
        assert others == {"int", "str", "bool"}

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", REAL_FIELDS)
    def test_rejected(self, tmp_path, key, bad):
        # nan compares false against every bound, so a sign check alone lets it through
        default = getattr(ScenarioConfig(), key)
        if isinstance(default, tuple):
            text = ", ".join(map(str, default[:-1] + (bad,)))
        else:
            text = bad
        with pytest.raises(ConfigError) as err:
            load_scenario(write(tmp_path, f"{key}: {text}\n"))
        assert f"[key: {key}]" in str(err.value)
        assert "finite" in str(err.value)

    def test_replace_rejects_nan(self):
        with pytest.raises(ConfigError):
            ScenarioConfig().replace(ebn0_db=float("nan"))


COUNT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type == "int" and f.name != "seed"]


def test_count_fields_read_off_the_annotations():
    # the >= 1 rule takes its keys from the annotations, so a new integer
    # key is checked without an edit; the seed alone may be 0
    assert {"n_users", "n_bs_antennas", "blocks_per_frame", "mc_symbol_chunk",
            "snr_channel_draws", "pdf_fit_samples"} <= set(COUNT_FIELDS)
    ScenarioConfig(seed=0)


@pytest.mark.parametrize("key", COUNT_FIELDS)
def test_integer_key_below_one_is_refused(tmp_path, key):
    with pytest.raises(ConfigError) as err:
        load_scenario(write(tmp_path, f"{key}: 0\n"))
    assert err.value.key == key
    assert f"{key} must be >= 1" in str(err.value)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_scenario_loads(tmp_path):
    # the example under "Configuration files" must name only live keys
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Configuration files are"):]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    cfg = load_scenario(write(tmp_path, block))
    assert (cfg.n_users, cfg.n_bs_antennas, cfg.speed) == (2, 8, 30.0)
