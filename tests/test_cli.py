"""Command-line driver: config parsing, dispatch, artifacts, exit codes."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from affine_lab.cli import (_BLOCK_ROWS, _GENERATOR_STATES, _SCHEMA,
                            COMMANDS, ConfigError, RunConfig, _write_csv,
                            main, parse_config, run, serialize_config,
                            write_paths_csv, write_transform_csv)
from affine_lab.noise import (generate_noise, steps_for, substream_seed,
                              substream_seed_array)
from affine_lab.params import AdmissibilityError
from affine_lab.sde import (simulate_affine, simulate_catalytic,
                            simulate_reactant_pair)
from affine_lab.transform import solve_transforms


def make_config(**blocks):
    """A RunConfig from keyword blocks (JSON-shaped dicts)."""
    return parse_config(json.dumps(blocks))


# every part of a ParameterSplit, zero: the canonical split of
# symmetric_split
ZERO_SPLIT = {k: 0.0 for k in
              ("sigma0_pos", "sigma0_neg", "sigma21_pos", "sigma21_neg",
               "sigma22_pos", "sigma22_neg", "b2_pos", "b2_neg",
               "beta21_pos", "beta21_neg")}

SMALL = {
    "params": {"preset": "jump_affine"},
    "grid": {"t_max": 1.0, "dt": 2.0 ** -8},
    "mc": {"n_paths": 200, "seed": 7, "u_bound": 24.0},
    "validate": {"checks": ["semigroup"]},
}


def read_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# every key a config can give, as the path of block names down to it
KEY_PATHS = [(block, key) for block, schema in _SCHEMA.items()
             for key in schema] + [("validate", "generator_states", key)
                                   for key in _GENERATOR_STATES]


# -- parsing and defaults ---------------------------------------------------

class TestParseConfig:
    def test_minimal_document_defaults(self):
        config = parse_config("{}")
        assert config.tol == 1e-9
        assert config.dt == 2.0 ** -10
        assert config.t_max == 1.0
        assert config.seed == 0
        assert config.n_paths == 1000
        assert config.u_bound == 16.0
        assert config.out_dir == "out"
        assert config.formats == ["csv", "json"]
        assert config.resolved["params"] == {"preset": "jump_affine"}
        assert config.resolved["validate"]["checks"] == [
            "semigroup", "affine_formula", "moments", "generator",
            "uniqueness"]
        assert config.resolved["limit"]["theta_ladder"] == [
            4.0, 16.0, 64.0, 256.0]
        assert len(config.u_list) == 3

    def test_serialize_parse_round_trip(self):
        doc = json.dumps({
            "params": {"a": 0.5, "beta": [[-0.4, 0.0], [0.1, -0.9]],
                       "m": {"kind": "finite_atomic",
                             "atoms": [[1.0, -0.5, 2.0]]}},
            "grid": {"t_max": 2.0, "dt": 2.0 ** -7},
            "mc": {"seed": 11, "n_paths": 64},
        })
        config = parse_config(doc)
        text = serialize_config(config)
        again = parse_config(text)
        assert again == config
        assert serialize_config(again) == text  # canonical fixed point

    def test_scalar_coefficient_entries(self):
        config = make_config(params={"a": 1.0, "alpha11": 0.5,
                                     "alpha12": 0.25, "alpha22": 0.25,
                                     "b1": 1.0, "beta11": -1.0,
                                     "beta22": -0.5})
        assert config.resolved["params"]["alpha"] == [[0.5, 0.25],
                                                      [0.25, 0.25]]
        assert config.resolved["params"]["b"] == [1.0, 0.0]
        assert config.params.beta[0, 0] == -1.0

    def test_matrix_and_scalar_forms_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            make_config(params={"beta": [[-1.0, 0.0], [0.0, -1.0]],
                                "beta11": -1.0})

    def test_preset_excludes_other_keys(self):
        with pytest.raises(ConfigError, match=r"unknown key at \$\.params\.a"):
            make_config(params={"preset": "ou", "a": 1.0})

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ConfigError, match="choose from"):
            make_config(params={"preset": "nope"})

    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"unknown key at \$\.grids"):
            parse_config('{"grids": {}}')
        with pytest.raises(ConfigError,
                           match=r"unknown key at \$\.mc\.n_path"):
            make_config(mc={"n_path": 5})
        with pytest.raises(
                ConfigError,
                match=r"unknown key at \$\.params\.m\.weight"):
            make_config(params={"m": {"kind": "finite_atomic",
                                      "weight": 1.0}})
        with pytest.raises(
                ConfigError,
                match=r"unknown key at \$\.validate\.generator_states\.x"):
            make_config(validate={"generator_states": {"x": [1.0, 1.0]}})

    def test_syntax_error_cites_line_and_column(self):
        with pytest.raises(ConfigError,
                           match="syntax error at line 2, column 10"):
            parse_config('{\n  "mc": {,}\n}')

    def test_beta12_cites_clause_iv(self):
        with pytest.raises(AdmissibilityError, match=r"\(iv\)"):
            make_config(params={"beta12": 0.1})
        with pytest.raises(AdmissibilityError, match=r"\(iv\)"):
            make_config(params={"beta": [[-1.0, 0.1], [0.0, -1.0]]})

    def test_u_list_entries_validated_with_path(self):
        with pytest.raises(ConfigError, match=r"\$\.transform\.u_list\[0\]"):
            make_config(transform={"u_list": [[[0.5, 0.0], [0.0, 0.0]]]})
        with pytest.raises(ConfigError,
                           match=r"u_list\[0\]\[0\].*list of 2"):
            make_config(transform={"u_list": [[0.5, 0.0]]})

    def test_stability_rule_named(self):
        with pytest.raises(ConfigError,
                           match=r"\$\.grid\.dt.*stability rule"):
            make_config(params={"beta11": -8.0}, grid={"dt": 0.25,
                                                       "t_max": 1.0})
        with pytest.raises(ConfigError,
                           match=r"\$\.validate\.delta.*stability rule"):
            make_config(params={"beta11": -8.0},
                        validate={"delta": 0.25})

    def test_grid_multiple_enforced(self):
        with pytest.raises(ConfigError, match=r"\$\.grid"):
            make_config(grid={"t_max": 1.0, "dt": 0.3})

    def test_t_list_constraints(self):
        with pytest.raises(ConfigError, match="exceeds grid.t_max"):
            make_config(grid={"t_max": 0.5, "dt": 2.0 ** -8},
                        validate={"t_list": [1.0]})
        with pytest.raises(ConfigError, match="not a positive multiple"):
            make_config(validate={"t_list": [0.3]})

    def test_t_list_duplicates_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"\$\.validate\.t_list: duplicate"):
            make_config(validate={"t_list": [0.5, 0.5]})
        with pytest.raises(ConfigError,
                           match=r"\$\.validate\.t_list: duplicate"):
            make_config(validate={"t_list": [0.5, 1.0, 0.5 + 1e-13]})

    @pytest.mark.parametrize("key, entries", [
        ("checks", ["moments", "semigroup", "moments"]),
        ("generator_modes", ["cbi", "cbi"])])
    def test_validate_list_duplicates_rejected(self, key, entries):
        with pytest.raises(ConfigError,
                           match=rf"^\$\.validate\.{key}: duplicate entries$"):
            make_config(validate={key: entries})

    def test_transform_tol_range(self):
        for tol in (1e-13, 2e-4):
            with pytest.raises(ConfigError,
                               match=r"\$\.transform\.tol: tol must lie "
                                     r"in \[1e-12, 0\.0001\]"):
                make_config(transform={"tol": tol})
        for tol in (1e-12, 1e-4):
            assert make_config(transform={"tol": tol}).tol == tol

    def test_t_list_default_fits_horizon(self):
        config = make_config(grid={"t_max": 0.5, "dt": 2.0 ** -8})
        assert config.resolved["validate"]["t_list"] == [0.25, 0.5]
        odd = make_config(grid={"t_max": 3 * 2.0 ** -8, "dt": 2.0 ** -8})
        assert odd.resolved["validate"]["t_list"] == [3 * 2.0 ** -8]

    def test_theta_ladder_validation(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            make_config(limit={"theta_ladder": [4.0, 4.0]})
        with pytest.raises(ConfigError, match=">= 1"):
            make_config(limit={"theta_ladder": [0.5, 4.0]})
        with pytest.raises(ConfigError, match="at least two"):
            make_config(limit={"theta_ladder": [4.0]})

    def test_split_parsed_and_checked(self):
        split = ZERO_SPLIT
        config = make_config(params={"preset": "symmetric_split"},
                             limit={"split": dict(split, b2_pos=0.25,
                                                  b2_neg=0.25)})
        assert config.split.b2_pos == 0.25
        with pytest.raises(ConfigError, match="missing split parts"):
            make_config(limit={"split": {"b2_pos": 1.0}})
        with pytest.raises(ConfigError, match="reassemble"):
            make_config(params={"preset": "symmetric_split"},
                        limit={"split": dict(split, b2_pos=1.0)})

    def test_split_refused_where_a_single_reactant_reads_it(self):
        """A single reactant has no split to take: a split is refused when
        the limit ladder or a simulated reactant runs in single mode."""
        base = {"params": {"preset": "symmetric_split"}}
        for blocks, key in (
                ({"limit": {"split": ZERO_SPLIT, "mode": "single"}},
                 "$.limit.mode"),
                ({"limit": {"split": ZERO_SPLIT},
                  "simulate": {"system": "reactant", "mode": "single"}},
                 "$.simulate.mode")):
            with pytest.raises(ConfigError) as err:
                make_config(**base, **blocks)
            assert str(err.value) == (f"$.limit.split: a split applies only "
                                      f"in pair mode, but {key} is "
                                      f"\"single\"")
        # the simulate mode is read only by the reactant system
        config = make_config(**base, limit={"split": ZERO_SPLIT},
                             simulate={"system": "affine", "mode": "single"})
        assert config.split.b2_pos == 0.0

    def test_measure_forms(self):
        config = make_config(params={
            "b1": 1.0, "beta11": -0.5,
            "m": {"kind": "finite_atomic", "atoms": [[1.0, 0.0, 2.0]]},
            "mu": {"kind": "product_exponential", "total_rate": 0.5,
                   "rate1": 2.0, "rate2": 3.0, "sign_mix": 0.25}})
        assert config.params.m.mass() == pytest.approx(2.0)
        assert config.params.mu.total_rate == 0.5
        with pytest.raises(ConfigError, match=r"\$\.params\.m\.atoms\[0\]"):
            make_config(params={"m": {"kind": "finite_atomic",
                                      "atoms": [[1.0, 0.0]]}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            make_config(mc={"n_paths": 10.5})
        with pytest.raises(ConfigError, match="expected a number"):
            make_config(grid={"dt": True})
        with pytest.raises(ConfigError, match="expected true or false"):
            make_config(limit={"deterministic_rate_check": 1})
        with pytest.raises(ConfigError, match="must be positive"):
            make_config(mc={"u_bound": 0.0})

    @pytest.mark.parametrize("names", KEY_PATHS, ids=".".join)
    def test_wrong_json_type_names_key_path(self, names):
        default = parse_config("{}").resolved
        for name in names:
            default = default[name]
        # true is no key's type but the one boolean key's
        doc = "x" if isinstance(default, bool) else True
        for name in reversed(names):
            doc = {name: doc}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value).startswith("$." + ".".join(names) + ": ")

    def test_single_reactant_start_must_be_nonnegative(self):
        # the single reactant starts at theta + z0
        with pytest.raises(ConfigError, match=r"^\$\.simulate\.z0: theta "
                           r"\+ z0 must be nonnegative, got -0\.5$"):
            make_config(simulate={"system": "reactant", "mode": "single",
                                  "theta": 1.0, "z0": -1.5})
        with pytest.raises(ConfigError, match=r"^\$\.limit\.z0: theta "
                           r"\+ z0 must be nonnegative"):
            make_config(limit={"mode": "single", "theta_ladder": [1.0, 4.0],
                               "z0": -1.5})
        make_config(simulate={"mode": "single", "theta": 1.0, "z0": -1.5},
                    limit={"theta_ladder": [1.0, 4.0], "z0": -1.5})

    def test_simulate_theta_at_least_one(self):
        with pytest.raises(ConfigError,
                           match=r"^\$\.simulate: theta must be >= 1$"):
            make_config(simulate={"system": "reactant", "theta": 0.5})
        config = make_config(simulate={"system": "reactant", "theta": 1.0})
        assert config.resolved["simulate"]["theta"] == 1.0

    def test_simulate_reactant_needs_negative_beta22(self):
        """The reactant's own rules run at parse time, before any noise."""
        with pytest.raises(ConfigError,
                           match=r"^\$\.simulate: reactant scaling requires "
                                 r"beta22 < 0, got 0\.5$"):
            make_config(params={"b": [1.0, 0.0],
                                "beta": [[-1.0, 0.0], [0.2, 0.5]]},
                        simulate={"system": "reactant"})

    @pytest.mark.parametrize("system", ["affine", "catalytic"])
    def test_simulate_theta_ignored_without_reactant(self, system,
                                                     tmp_path):
        """Only the reactant system has a scale, so only it checks one."""
        config = make_config(grid={"t_max": 0.25, "dt": 2.0 ** -6},
                             simulate={"system": system, "theta": 0.5,
                                       "n_saved_paths": 2})
        assert run("simulate", config, out_dir=tmp_path,
                   stdout=io.StringIO()) == 0
        text = (tmp_path / "paths.csv").read_text()
        assert text.count("# dt = ") == 1

    @pytest.mark.parametrize("block, key", [("simulate", "l"),
                                            ("validate", "flow_r"),
                                            ("validate", "flow_t")])
    def test_zero_accepted_like_the_library(self, block, key):
        """``simulate_catalytic`` takes ``l = 0`` and ``sc_semigroup_check``
        takes ``r = 0`` and ``t = 0``, so the config takes them too."""
        config = make_config(**{block: {key: 0.0}})
        assert config.resolved[block][key] == 0.0
        with pytest.raises(ConfigError, match=rf"^\$\.{block}\.{key}: must "
                                              r"be nonnegative$"):
            make_config(**{block: {key: -0.5}})

    def test_resolved_document_follows_schema(self):
        resolved = parse_config("{}").resolved
        assert set(resolved) == {"params", *_SCHEMA}
        for block, schema in _SCHEMA.items():
            assert set(resolved[block]) == set(schema), block

    def test_with_seed_returns_updated_copy(self):
        config = parse_config("{}")
        reseeded = config.with_seed(42)
        assert reseeded.seed == 42
        assert config.seed == 0
        assert reseeded.resolved["mc"]["seed"] == 42
        assert reseeded != config

    def test_seed_must_fit_64_bits(self):
        assert make_config(mc={"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1
        with pytest.raises(ConfigError,
                           match=r"\$\.mc\.seed: must be < 2\*\*64"):
            make_config(mc={"seed": 2 ** 64})


# -- subcommand execution ---------------------------------------------------

class TestRun:
    def test_transform_writes_metadata_and_curves(self, tmp_path):
        config = make_config(**SMALL)
        status = run("transform", config, out_dir=tmp_path,
                     stdout=io.StringIO())
        assert status == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["run_meta.json", "transform_u00.csv",
                         "transform_u01.csv", "transform_u02.csv"]
        text = (tmp_path / "transform_u00.csv").read_text()
        assert text.startswith("# artifact_version = 4\n# rng = philox4x64\n"
                               "# seed = 7\n# dt = 0.00390625\n"
                               "# u_bound = 24.0\n# u = ")
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data[0] == "t,re_psi1,im_psi1,re_psi2,im_psi2,re_phi,im_phi"
        last = np.array(data[-1].split(","), dtype=float)
        assert np.isfinite(last).all()
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["command"] == "transform"
        assert meta["rng"] == "philox4x64"
        assert meta["seed"] == 7
        assert meta["config"] == config.resolved
        assert "eps" not in meta and "eps" not in meta["config"]["mc"]

    def test_simulate_writes_requested_paths(self, tmp_path):
        config = make_config(**dict(SMALL, simulate={"n_saved_paths": 3}))
        assert run("simulate", config, out_dir=tmp_path,
                   stdout=io.StringIO()) == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "path_id,t,x,z"
        ids = {ln.split(",")[0] for ln in lines if not ln.startswith("#")
               and ln != header}
        assert ids == {"0", "1", "2"}

    def test_simulate_systems_route(self, tmp_path):
        base = {"params": {"preset": "symmetric_split"},
                "grid": {"t_max": 0.25, "dt": 2.0 ** -8},
                "mc": {"n_paths": 4, "seed": 2, "u_bound": 16.0}}
        for system, columns in (("catalytic", "path_id,t,x,y"),
                                ("reactant",
                                 "path_id,t,x,y_plus,y_minus,z_k")):
            config = make_config(**dict(
                base, simulate={"system": system, "n_saved_paths": 2}))
            out = tmp_path / system
            assert run("simulate", config, out_dir=out,
                       stdout=io.StringIO()) == 0
            lines = (out / "paths.csv").read_text().splitlines()
            header = next(ln for ln in lines if not ln.startswith("#"))
            assert header == columns

    @pytest.mark.parametrize("system, preset, n_aborted", [
        ("affine", "jump_affine", 10), ("catalytic", "jump_affine", 11),
        ("reactant", "symmetric_split", 10)])
    def test_simulate_records_aborted_paths(self, tmp_path, system, preset,
                                            n_aborted):
        # u_bound 1.6 against x0 = 1: most paths but not all outgrow it
        doc = {"params": {"preset": preset},
               "grid": {"t_max": 1.0, "dt": 2.0 ** -8},
               "mc": {"n_paths": 12, "seed": 4, "u_bound": 1.6},
               "simulate": {"system": system, "x0": 1.0, "theta": 1.0,
                            "n_saved_paths": 12}}
        config = make_config(**doc)
        params, sim = config.params, config.resolved["simulate"]
        expected, aborted = [], []
        for i in range(12):
            noise = generate_noise(params.m, params.mu, 1.0, 2.0 ** -8,
                                   substream_seed(4, i), 1.6)
            if system == "affine":
                out = simulate_affine(params, 1.0, sim["z0"], noise)
            elif system == "catalytic":
                out = simulate_catalytic(params, 1.0, sim["y0"], sim["l"],
                                         noise)
            else:
                out = simulate_reactant_pair(params, 1.0, 1.0, 1.0, 1.0,
                                             noise)
            comps, aborted_at, _ = out
            expected.append(np.column_stack(
                [noise.grid, *(arr[0] for arr in comps.values())]))
            if not np.isnan(aborted_at[0]):
                aborted.append(i)
        assert len(aborted) == n_aborted

        outputs = []
        for attempt in ("a", "b"):
            stdout = io.StringIO()
            assert run("simulate", config, out_dir=tmp_path / attempt,
                       stdout=stdout) == 0
            assert (f"thinning bound exceeded on path(s) {aborted} "
                    in stdout.getvalue())
            outputs.append(read_files(tmp_path / attempt))
        assert outputs[0] == outputs[1]

        lines = outputs[0]["paths.csv"].decode().splitlines()
        rows = np.array([ln.split(",") for ln in lines
                         if not ln.startswith(("#", "path_id"))],
                        dtype=float)
        for i, want in enumerate(expected):
            got = rows[rows[:, 0] == i, 1:]
            assert np.array_equal(got, want, equal_nan=True), i
            assert np.isnan(got[-1, 1:]).all() == (i in aborted)

    def test_simulate_single_reactant_starts_at_theta_plus_z0(self,
                                                              tmp_path):
        config = make_config(**dict(SMALL, simulate={
            "system": "reactant", "mode": "single", "theta": 4.0,
            "z0": -0.3, "n_saved_paths": 2}))
        assert run("simulate", config, out_dir=tmp_path,
                   stdout=io.StringIO()) == 0
        lines = [ln for ln in (tmp_path / "paths.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        assert lines[0] == "path_id,t,x,y,z_k"
        rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        starts = rows[rows[:, 1] == 0.0]
        assert len(starts) == 2
        assert (starts[:, 3] == 4.0 + -0.3).all()
        assert starts[:, 4] == pytest.approx(-0.3, abs=1e-15)

    def test_validate_passes_and_writes_reports(self, tmp_path):
        config = make_config(**dict(
            SMALL, validate={"checks": ["semigroup", "moments"]}))
        buffer = io.StringIO()
        assert run("validate", config, out_dir=tmp_path,
                   stdout=buffer) == 0
        assert "semigroup-flow: PASS" in buffer.getvalue()
        assert "moments: PASS" in buffer.getvalue()
        payload = json.loads((tmp_path / "moments.json").read_text())
        assert payload["artifact_version"] == 4
        assert "eps" not in payload and "eps" not in payload["report"][
            "inputs"]
        assert payload["rng"] == "philox4x64"
        assert payload["report"]["overall"] is True
        assert payload["report"]["name"] == "moments"

    def test_generator_modes_route_states(self, tmp_path):
        config = make_config(**dict(
            SMALL,
            mc={"n_paths": 400, "seed": 5, "u_bound": 24.0},
            validate={"checks": ["generator"], "delta": 2.0 ** -8,
                      "generator_modes": ["cbi"]}))
        assert run("validate", config, out_dir=tmp_path,
                   stdout=io.StringIO()) == 0
        payload = json.loads((tmp_path / "generator-cbi.json").read_text())
        names = [row["quantity"] for row in payload["report"]["rows"]]
        assert names == ["cbi:1", "cbi:x1", "cbi:x1^2", "cbi:exp(-x1)"]

    def test_failing_row_returns_one_and_is_named(self, tmp_path):
        config = make_config(
            params={"preset": "symmetric_split"},
            grid={"t_max": 0.5, "dt": 2.0 ** -8},
            mc={"n_paths": 60, "seed": 3, "u_bound": 16.0},
            limit={"theta_ladder": [4.0, 4.5]})
        errors = io.StringIO()
        status = run("limit", config, out_dir=tmp_path,
                     stdout=io.StringIO(), stderr=errors)
        assert status == 1
        assert "first failing row: fluctuation-pair" in errors.getvalue()

    def test_formats_filter_artifacts(self, tmp_path):
        config = make_config(**dict(SMALL, output={"directory": "o",
                                                   "formats": ["csv"]}))
        assert run("validate", config, out_dir=tmp_path,
                   stdout=io.StringIO()) == 0
        assert list(tmp_path.iterdir()) == []  # semigroup has no CSV

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(ValueError, match="unknown subcommand"):
            run("frobnicate", parse_config("{}"))


# -- the executable entry point --------------------------------------------

class TestMain:
    def write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["validate", "--config",
                     str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = self.write(tmp_path, {"mc": {"n_path": 5}})
        assert main(["validate", "--config", path]) == 2
        assert "unknown key at $.mc.n_path" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        doc = dict(SMALL, simulate={"n_saved_paths": 2})
        path = self.write(tmp_path, doc)
        out = tmp_path / "a"
        assert main(["simulate", "--config", path, "--out", str(out),
                     "--seed", "99"]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 99
        assert meta["config"]["mc"]["seed"] == 99

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = self.write(tmp_path, SMALL)
        assert main(["simulate", "--config", path, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_flag_must_fit_64_bits(self, tmp_path, capsys):
        path = self.write(tmp_path, SMALL)
        out = tmp_path / "never"
        assert main(["simulate", "--config", path, "--out", str(out),
                     "--seed", str(2 ** 64)]) == 2
        assert "--seed: must be < 2**64" in capsys.readouterr().err
        assert not out.exists()

    def test_out_flag_overrides_directory(self, tmp_path):
        doc = dict(SMALL, output={"directory": str(tmp_path / "ignored")})
        path = self.write(tmp_path, doc)
        target = tmp_path / "chosen"
        assert main(["transform", "--config", path, "--out",
                     str(target)]) == 0
        assert (target / "run_meta.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_limit_with_nonnegative_beta22_rejected(self, tmp_path,
                                                    capsys):
        doc = {"params": {"b": [1.0, 0.0],
                          "beta": [[-1.0, 0.0], [0.2, 1.0]],
                          "alpha11": 0.5},
               "limit": {"theta_ladder": [4.0, 16.0]}}
        path = self.write(tmp_path, doc)
        assert main(["limit", "--config", path, "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "requires beta22 < 0, got 1.0" in err
        assert not (tmp_path / "o" / "fluctuation-pair.json").exists()

    def test_parse_time_stable_delta_runs_every_generator_mode(self,
                                                                tmp_path):
        """delta * max|beta_ij| = 0.08 passes the parse-time rule, so no
        generator mode may refuse it when it runs."""
        doc = {"mc": {"n_paths": 50},
               "validate": {"checks": ["generator"], "delta": 0.1}}
        path = self.write(tmp_path, doc)
        assert main(["validate", "--config", path, "--out",
                     str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "generator-cbi.json").exists()

    def test_one_path_validate_is_a_usage_error(self, tmp_path, capsys):
        doc = dict(SMALL, mc={"n_paths": 1},
                   validate={"checks": ["moments"]})
        path = self.write(tmp_path, doc)
        assert main(["validate", "--config", path, "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "affine-lab: $.mc.n_paths: need at least 2 paths " \
            "for a standard error\n"
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / "s")]) == 0

    def test_one_path_rejected_before_any_check_runs(self, tmp_path,
                                                     capsys):
        """The Monte Carlo checks need two paths; the rule fires before
        the semigroup check (listed first) runs, and a semigroup-only run
        needs no paths."""
        doc = dict(SMALL, mc={"n_paths": 1},
                   validate={"checks": ["semigroup", "moments"]})
        out = tmp_path / "o"
        assert main(["validate", "--config", self.write(tmp_path, doc),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("affine-lab: $.mc.n_paths: ")
        assert captured.out == ""
        assert not out.exists()
        doc = dict(SMALL, mc={"n_paths": 1})
        assert main(["validate", "--config", self.write(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert (out / "semigroup-flow.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"validate": {"checks": []}}, "$.validate.checks: empty"),
        ({"validate": {"checks": ["generator"], "generator_modes": []}},
         "$.validate.generator_modes: empty"),
        # validate's row-label rule: labels print 6 significant digits
        ({"transform": {"u_list": [[[-1, 0], [0, 0]],
                                   [[-1.0000001, 0], [0, 0]]]}},
         "$.transform.u_list: duplicate entries: u_list[0] = "
         "[[-1.0, 0.0], [0.0, 0.0]] and u_list[1] = "
         "[[-1.0000001, 0.0], [0.0, 0.0]] share row label u=(-1,0)\n"),
    ], ids=["checks", "generator-modes", "u-list"])
    def test_empty_or_repeated_list_is_a_usage_error(self, tmp_path, capsys,
                                                     doc, message):
        """A run that would check nothing, or write two rows or curves for
        one frequency, is refused at parse time by every subcommand."""
        path = self.write(tmp_path, dict(doc, mc={"n_paths": 50}))
        for command in COMMANDS:
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                f"affine-lab: {message}")
            assert not out.exists()

    @pytest.mark.parametrize("eps", [1e-4, -1e-4, float("nan"), "0", True,
                                     None], ids=["1e-4", "negative", "nan",
                                                 "string", "true", "null"])
    def test_nonzero_eps_is_a_usage_error(self, tmp_path, capsys, eps):
        """Both streams sample the full jump measures, so an ``mc.eps``
        other than 0 is refused by every subcommand, naming the key,
        before any output directory is made."""
        path = self.write(tmp_path, {"mc": {"n_paths": 50, "eps": eps}})
        for command in COMMANDS:
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "affine-lab: $.mc.eps: the small-jump truncation was "
                "removed; only 0 is accepted\n")
            assert not out.exists()

    @pytest.mark.parametrize("eps", [0.0, 0])
    def test_zero_eps_runs_as_if_absent(self, tmp_path, eps):
        """``"eps": 0`` is accepted, as the benchmark configs send it,
        and changes no output byte: the key is not recorded."""
        doc = {"grid": {"t_max": 0.25, "dt": 2.0 ** -6},
               "mc": {"n_paths": 4, "seed": 3},
               "simulate": {"n_saved_paths": 2}}
        with_eps = dict(doc, mc=dict(doc["mc"], eps=eps))
        assert make_config(**with_eps) == make_config(**doc)
        runs = {}
        for name, config in (("plain", doc), ("eps", with_eps)):
            path = self.write(tmp_path, config)
            for command in ("transform", "simulate"):
                out = tmp_path / name / command
                assert main([command, "--config", path, "--out",
                             str(out)]) == 0
            runs[name] = {command: read_files(tmp_path / name / command)
                          for command in ("transform", "simulate")}
        assert runs["eps"] == runs["plain"]
        meta = json.loads(runs["eps"]["simulate"]["run_meta.json"])
        assert "eps" not in meta and "eps" not in meta["config"]["mc"]

    def test_zero_coupling_and_flow_times_run(self, tmp_path):
        doc = {"grid": {"t_max": 0.25, "dt": 2.0 ** -6},
               "mc": {"n_paths": 2, "u_bound": 16.0},
               "simulate": {"system": "catalytic", "l": 0.0,
                            "n_saved_paths": 2},
               "validate": {"checks": ["semigroup"], "flow_r": 0.0,
                            "flow_t": 0.0}}
        path = self.write(tmp_path, doc)
        for command in ("simulate", "validate"):
            assert main([command, "--config", path, "--out",
                         str(tmp_path / command)]) == 0
        assert (tmp_path / "simulate" / "paths.csv").exists()
        report = json.loads(
            (tmp_path / "validate" / "semigroup-flow.json").read_text())
        assert report["report"]["inputs"]["r"] == 0.0
        assert report["report"]["inputs"]["t"] == 0.0
        assert report["report"]["overall"]

    def test_unmet_thinning_bound_is_a_usage_error(self, tmp_path,
                                                   capsys):
        doc = {"grid": {"t_max": 0.25, "dt": 2.0 ** -7},
               "mc": {"n_paths": 20, "u_bound": 1e-6},
               "validate": {"checks": ["moments"]}}
        path = self.write(tmp_path, doc)
        assert main(["validate", "--config", path, "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("affine-lab: ") and err.count("\n") == 1
        assert "thinning bound" in err and "mc.u_bound" in err

    @pytest.mark.parametrize("command", ["transform", "validate"])
    def test_failed_transform_solve_is_a_usage_error(self, tmp_path,
                                                     command):
        """A frequency whose step size underflows at t = 0: one message
        line and nothing else on stderr (no NumPy warning, no
        traceback), exit 2 and no output directory, from the
        ``transform`` command and a semigroup-only ``validate``.  Run as a
        process, so a warning would print instead of failing the test."""
        doc = {"transform": {"u_list": [[[-1e300, 0], [0, 1e300]]]},
               "validate": {"checks": ["semigroup"]}}
        out = tmp_path / "o"
        result = subprocess.run(
            [sys.executable, "-m", "affine_lab.cli", command, "--config",
             self.write(tmp_path, doc), "--out", str(out)],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "affine-lab: transform integration failed for u = "
            "((-1e+300+0j), 1e+300j) after t=0: required step size is less "
            "than spacing between numbers"]
        assert result.stdout == ""
        assert not out.exists()

    def test_failed_run_removes_only_directories_it_created(self, tmp_path,
                                                            capsys):
        doc = {"grid": {"t_max": 0.25, "dt": 2.0 ** -7},
               "mc": {"n_paths": 20, "u_bound": 1e-6},
               "validate": {"checks": ["moments"]}}
        path = self.write(tmp_path, doc)
        new = tmp_path / "new" / "o"
        assert main(["validate", "--config", path, "--out", str(new)]) == 2
        assert not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["validate", "--config", path, "--out", str(kept)]) == 2
        assert kept.is_dir() and not any(kept.iterdir())

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        doc = {
            "params": {"preset": "symmetric_split"},
            "grid": {"t_max": 0.5, "dt": 2.0 ** -8},
            "mc": {"n_paths": 60, "seed": 13, "u_bound": 16.0},
            "validate": {"checks": ["semigroup", "moments"]},
            "limit": {"theta_ladder": [4.0, 16.0]},
            "simulate": {"n_saved_paths": 2},
        }
        path = self.write(tmp_path, doc)
        for command in ("transform", "simulate", "validate", "limit"):
            first = tmp_path / f"{command}_1"
            second = tmp_path / f"{command}_2"
            assert main([command, "--config", path, "--out",
                         str(first)]) == 0
            assert main([command, "--config", path, "--out",
                         str(second)]) == 0
            assert read_files(first) == read_files(second), command
        capsys.readouterr()

    def test_console_script_reports_version(self):
        result = subprocess.run(
            [sys.executable, "-m", "affine_lab.cli", "--version"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "affine-lab 0.1.0"


# -- the CSV writer ---------------------------------------------------------

def body(path, header):
    """The rows of a CSV artifact, after its comment lines and header."""
    head, found, rows = path.read_text().partition(header + "\n")
    assert found and all(ln.startswith("# ") for ln in head.splitlines())
    return rows


class TestCsvWriter:
    def test_rows_past_one_block_equal_per_value_formatting(self, tmp_path):
        """Two full blocks and part of a third: each float reads as
        ``f"{v:.17g}"`` and each text column passes through."""
        n = 2 * _BLOCK_ROWS + 123
        rng = np.random.default_rng(5)
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        b = np.where(rng.random(n) < 0.1, np.nan, rng.standard_normal(n))
        ids = [f"id{i}" for i in range(n)]
        path = tmp_path / "table.csv"
        _write_csv(path, parse_config("{}"), ["note"],
                   [("a", "%.17g", a), ("id", "%s", ids),
                    ("b", "%.17g", b)])
        assert path.read_text().count("# note\n") == 1
        assert body(path, "a,id,b") == "".join(
            f"{x:.17g},{k},{y:.17g}\n" for x, k, y in zip(a, ids, b))

    def test_paths_csv_with_nan_tails(self, tmp_path):
        """Aborted paths keep their NaN tails; each path repeats its id
        and the grid's times, across a block boundary."""
        config = parse_config("{}")
        params = config.params
        noise = generate_noise(params.m, params.mu, 1.0, 2.0 ** -10,
                               substream_seed_array(4, np.arange(6)), 2.5)
        paths, aborted_at, _ = simulate_affine(params, 1.0, 0.0, noise)
        aborted = ~np.isnan(aborted_at)
        assert aborted.any() and not aborted.all()
        assert paths["x"].size % _BLOCK_ROWS and paths["x"].size > \
            _BLOCK_ROWS
        path = tmp_path / "paths.csv"
        write_paths_csv(noise, paths, path, config)
        want = [f"{i},{t:.17g},{x:.17g},{z:.17g}\n"
                for i in range(6)
                for t, x, z in zip(noise.grid, paths["x"][i],
                                   paths["z"][i])]
        assert body(path, "path_id,t,x,z") == "".join(want)
        assert any(ln.endswith(",nan,nan\n") for ln in want)

    def test_transform_csv_alone_equals_the_command_file(self, tmp_path):
        config = make_config(**SMALL)
        run("transform", config, out_dir=tmp_path / "cli",
            stdout=io.StringIO())
        grid = np.arange(steps_for(config.t_max, config.dt) + 1) * config.dt
        solutions = solve_transforms(config.params, config.u_list, grid,
                                     tol=config.tol)
        for i, solution in enumerate(solutions):
            name = f"transform_u{i:02d}.csv"
            write_transform_csv(solution, tmp_path / name, config)
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / "cli" / name).read_bytes()
