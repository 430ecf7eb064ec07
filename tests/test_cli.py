"""CLI contract: subcommands, exit codes, CSV determinism, manifests."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmudsim import cli, config, qsearch

BER_CONFIG = """\
signature_kind = walsh
k_users = 1
n_chips = 2
sync_mode = synchronous
gain_model = fixed
detector = mf
ebn0_db_list = 0,4
trials = 500
seed = 77
"""


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestGroverCommand:
    def test_n4_success_one_at_k1(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["grover", "--n", "4", "--marked", "1",
                       "--trials", "2000", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["k", "predicted_success", "measured_success", "trials"]
        k1 = rows[2]
        assert float(k1[1]) == 1.0
        assert float(k1[2]) == 1.0

    def test_n1024_high_success_at_k25(self, tmp_path):
        out = tmp_path / "g1024.csv"
        rc = cli.main(["grover", "--n", "1024", "--marked", "1",
                       "--trials", "10000", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        last = rows[-1]
        assert int(last[0]) == 25
        assert float(last[2]) >= 0.999

    def test_missing_n_is_usage_error(self):
        assert cli.main(["grover"]) == 2

    def test_non_power_of_two_rejected(self):
        assert cli.main(["grover", "--n", "100"]) == 2

    def test_marked_out_of_range(self):
        assert cli.main(["grover", "--n", "16", "--marked", "17"]) == 2

    def test_zero_trials_rejected(self, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.main(["grover", "--n", "16", "--trials", "0",
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert cli.main(["grover", "--scaling", "--n", "64",
                         "--scaling-max-exp", "7", "--trials", "0"]) == 2

    def test_negative_k_max_rejected(self, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.main(["grover", "--n", "16", "--k-max", "-3",
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_unbounded_k_max_rejected(self, tmp_path):
        # 10^9 steps on 16 amplitudes exceed config.MAX_WORK
        out = tmp_path / "g.csv"
        assert cli.main(["grover", "--n", "16", "--k-max", "1000000000",
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_scaling_work_bound(self, monkeypatch, tmp_path):
        # two sizes at 16 units a search: 5 trials fit 160 units, 6 do not,
        # and the refusal runs no search and writes nothing
        monkeypatch.setattr(config, "MAX_WORK", 160)
        out = tmp_path / "s.csv"
        argv = ["grover", "--scaling", "--n", "64", "--scaling-max-exp", "7",
                "--out", str(out)]
        assert cli.main(argv + ["--trials", "5"]) == 0
        out.unlink()
        monkeypatch.setattr(qsearch, "bbht_ranks", None)
        assert cli.main(argv + ["--trials", "6"]) == 2
        assert not out.exists()

    def test_search_space_above_register_limit_rejected(self, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.main(["grover", "--scaling", "--n", "33554432",
                         "--scaling-max-exp", "25", "--trials", "1",
                         "--out", str(out)]) == 2
        assert cli.main(["grover", "--scaling", "--n", "64",
                         "--scaling-max-exp", "25", "--trials", "1",
                         "--out", str(out)]) == 2
        assert cli.main(["grover", "--n", "33554432", "--trials", "1",
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_search_space_checked_before_allocation(self, monkeypatch,
                                                    tmp_path):
        # 2^40 states: the qubit rule answers before any mask is built, and
        # a huge --scaling-max-exp before any 1 << exp or search
        monkeypatch.setattr(qsearch, "MarkingOracle", None)
        monkeypatch.setattr(qsearch, "bbht_ranks", None)
        out = tmp_path / "g.csv"
        assert cli.main(["grover", "--n", "1099511627776", "--trials", "1",
                         "--out", str(out)]) == 2
        assert cli.main(["grover", "--scaling", "--scaling-max-exp",
                         "1000000000000000000", "--trials", "1",
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-64", "48"])
    def test_scaling_n_validated(self, n, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.main(["grover", "--scaling", "--n", n,
                         "--scaling-max-exp", "7", "--trials", "5",
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("marked", ["-1", "0", "65"])
    def test_scaling_marked_out_of_range(self, marked, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.main(["grover", "--scaling", "--n", "64",
                         "--scaling-max-exp", "7", "--marked", marked,
                         "--trials", "5", "--out", str(out)]) == 2
        assert not out.exists()

    def test_scaling_mode(self, tmp_path):
        out = tmp_path / "scaling.csv"
        rc = cli.main(["grover", "--scaling", "--n", "64",
                       "--scaling-max-exp", "8", "--trials", "50",
                       "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0][0] == "n"
        assert [int(r[0]) for r in rows[1:]] == [64, 128, 256]
        # exhaustive contrast column equals the space size
        assert all(int(r[0]) == int(r[3]) for r in rows[1:])


    def test_scaling_trials_run_in_bounded_batches(self, monkeypatch,
                                                   tmp_path):
        # a large --trials runs in bbht_ranks calls of at most
        # config.MAX_BATCH searches, so its memory does not grow with --trials
        monkeypatch.setattr(config, "MAX_BATCH", 8)
        sizes = []
        bbht_ranks = qsearch.bbht_ranks

        def recording(counts, n_states, rng):
            sizes.append((n_states, len(counts)))
            return bbht_ranks(counts, n_states, rng)

        monkeypatch.setattr(qsearch, "bbht_ranks", recording)
        assert cli.main(["grover", "--scaling", "--n", "64",
                         "--scaling-max-exp", "7", "--trials", "20",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert sizes == [(64, 8), (64, 8), (64, 4),
                         (128, 8), (128, 8), (128, 4)]


PINNED_BER_CONFIG = """\
signature_kind = random_bipolar
k_users = 6
n_chips = 16
sync_mode = chip-asynchronous
gain_model = rayleigh
detector = {detector}
ebn0_db_list = 0,4,8
trials = 150
seed = 2023
"""

# SHA-256 of `ber --config PINNED_BER_CONFIG --out ...` per detector.  A
# change that alters seeded `ber` bytes on purpose updates these and says so.
PINNED_BER_SHA256 = {
    "mf": "7a0a9dd057989d800e2a974db7ac3ed58568563d145bb40fafa3edbb7aa37e15",
    "ml_exhaustive":
        "b50438985a405f996b32688ba7c46f7ab38892850b61f80477af99345277774a",
    "qmud": "f243e7f58d2d0052c3198634e2365a7651794c066011f588d994a21be709f03c",
}


# Further seeded `ber` configs: the benchmark's ber-mf (Walsh K = 1,
# synchronous, fixed gains) and ber-ml (K = 8, ML) configs, and a synchronous
# Rayleigh config whose `inf` point draws no noise.
PINNED_BER_RUNS = {
    "ber-mf": """\
signature_kind = walsh
k_users = 1
n_chips = 2
sync_mode = synchronous
gain_model = fixed
detector = mf
ebn0_db_list = 0,2,4,6,8
trials = 500
seed = 11
""",
    "ber-ml": """\
signature_kind = random_bipolar
k_users = 8
n_chips = 16
sync_mode = chip-asynchronous
gain_model = rayleigh
detector = ml_exhaustive
ebn0_db_list = 0,4,8
trials = 40
seed = 12
""",
    "sync-noiseless": """\
signature_kind = random_bipolar
k_users = 4
n_chips = 4
sync_mode = synchronous
gain_model = rayleigh
detector = mf
ebn0_db_list = 2,inf
trials = 60
seed = 13
""",
}

# SHA-256 of the CSV bytes followed by the manifest bytes of `ber --config
# ber.cfg --out ber.csv`, run in the config's directory so that the
# manifest records the relative --out.
PINNED_BER_RUN_SHA256 = {
    "ber-mf":
        "5f1989eacf77be732acede7a4a3f1080525221c4de2e0ca397fa9dda19229b8a",
    "ber-ml":
        "c64c4d77df5acbe6f20fb8ec4e4b491c9b0fff980a8e5a9f8ce2cfa44dea5560",
    "sync-noiseless":
        "e44701655c00afc62b9165c307eb31d7d213c87022061b6db8d9590d4c868ce9",
}


# Seeded argv of the other CSV subcommands, each pinned the same way: the
# SHA-256 of the CSV bytes followed by the manifest bytes, run in an empty
# directory so that the manifest records the relative --out.
PINNED_ARGV_RUNS = {
    "qmud-agree": ["qmud-agree", "--k", "6", "--trials", "50", "--seed", "27",
                   "--out", "out.csv"],
    "grover": ["grover", "--n", "64", "--marked", "2", "--trials", "200",
               "--seed", "27", "--out", "out.csv"],
    "grover-scaling": ["grover", "--scaling", "--n", "64",
                       "--scaling-max-exp", "9", "--trials", "100",
                       "--seed", "27", "--out", "out.csv"],
}

PINNED_ARGV_RUN_SHA256 = {
    "qmud-agree":
        "eae85b00dd9e54fd44b597fe15f8ff76c1bad45d6df3545c4349efc664c91f51",
    "grover":
        "e71b30aa5948033c90f584424a9e4c9dae6884b2089f70b69e0456cb15a2b92d",
    "grover-scaling":
        "01fa5e5e01037fc0ca2868fa9bfe0d8a84efccf555b1ee494771cabdbafb8393",
}


@pytest.mark.parametrize("name", sorted(PINNED_ARGV_RUNS))
def test_seeded_csv_and_manifest_bytes_are_pinned(name, tmp_path,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(PINNED_ARGV_RUNS[name]) == 0
    data = ((tmp_path / "out.csv").read_bytes()
            + (tmp_path / "out.csv.manifest.json").read_bytes())
    assert hashlib.sha256(data).hexdigest() == PINNED_ARGV_RUN_SHA256[name]


class TestBerCommand:
    @pytest.mark.parametrize("detector", sorted(PINNED_BER_SHA256))
    def test_seeded_csv_bytes_are_pinned(self, detector, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(PINNED_BER_CONFIG.format(detector=detector))
        out = tmp_path / "ber.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PINNED_BER_SHA256[detector]

    @pytest.mark.parametrize("name", sorted(PINNED_BER_RUNS))
    def test_seeded_csv_and_manifest_bytes_are_pinned(self, name, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ber.cfg").write_text(PINNED_BER_RUNS[name])
        assert cli.main(["ber", "--config", "ber.cfg", "--out",
                         "ber.csv"]) == 0
        data = ((tmp_path / "ber.csv").read_bytes()
                + (tmp_path / "ber.csv.manifest.json").read_bytes())
        assert hashlib.sha256(data).hexdigest() == PINNED_BER_RUN_SHA256[name]

    def test_run_and_reproduce(self, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_written(self, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG)
        out = tmp_path / "curve.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "ber"
        assert manifest["config"]["seed"] == 77
        assert manifest["config"]["detector"] == "mf"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out1),
                         "--seed", "1234"]) == 0
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_seed_flag_equals_form_overrides_config(self, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG)
        spaced, joined = tmp_path / "s.csv", tmp_path / "j.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(spaced),
                         "--seed", "1234"]) == 0
        assert cli.main(["ber", "--config", str(cfg), "--out", str(joined),
                         "--seed=1234"]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        manifest = json.loads(
            (tmp_path / "j.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 1234

    def test_zero_trials_rejected(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(BER_CONFIG.replace("trials = 500", "trials = 0"))
        assert cli.main(["ber", "--config", str(cfg)]) == 2

    def test_k_above_exhaustive_limit_rejected(self, tmp_path):
        for detector in ("ml_exhaustive", "qmud"):
            cfg = tmp_path / f"{detector}.cfg"
            cfg.write_text("signature_kind = random_bipolar\nk_users = 21\n"
                           "n_chips = 32\ndetector = " + detector + "\n"
                           "ebn0_db_list = 0\ntrials = 1\n")
            assert cli.main(["ber", "--config", str(cfg)]) == 2, detector

    def test_noiseless_ml_column_zero(self, tmp_path):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text("signature_kind = walsh\nk_users = 2\nn_chips = 4\n"
                       "detector = ml_exhaustive\nebn0_db_list = inf\n"
                       "trials = 50\n")
        out = tmp_path / "clean.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[1][1]) == 0.0

    def test_ebn0_without_finite_noise_variance_rejected(self, tmp_path):
        for ebn0 in ("nan", "-inf", "0,nan"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(BER_CONFIG.replace("ebn0_db_list = 0,4",
                                              f"ebn0_db_list = {ebn0}"))
            out = tmp_path / "bad.csv"
            assert cli.main(["ber", "--config", str(cfg),
                             "--out", str(out)]) == 2, ebn0
            assert not out.exists()

    @pytest.mark.parametrize("ebn0", ["-3070", "-3080"])
    @pytest.mark.parametrize("detector", ["ml_exhaustive", "qmud"])
    def test_ebn0_above_the_noise_ceiling_rejected(self, tmp_path, capsys,
                                                   detector, ebn0):
        # these Eb/N0 used to overflow the cost tables and exit 1
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("signature_kind = random_bipolar\nk_users = 6\n"
                       "n_chips = 16\nsync_mode = chip-asynchronous\n"
                       f"gain_model = rayleigh\ndetector = {detector}\n"
                       f"ebn0_db_list = {ebn0}\ntrials = 2\n")
        out = tmp_path / "deep.csv"
        assert cli.main(["ber", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "noise variance" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BER_CONFIG + "mystery = 1\n")
        assert cli.main(["ber", "--config", str(cfg)]) == 2

    def test_invalid_walsh_scenario_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("signature_kind = walsh\nk_users = 5\nn_chips = 4\n"
                       "detector = mf\nebn0_db_list = 0\ntrials = 10\n")
        assert cli.main(["ber", "--config", str(cfg)]) == 2

    def test_oversized_signature_rejected_up_front(self, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("signature_kind = walsh\nk_users = 1\n"
                       "n_chips = 1073741824\ndetector = mf\n"
                       "ebn0_db_list = 0\ntrials = 1\n")
        out = tmp_path / "huge.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["ber", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_is_a_directory(self, tmp_path):
        assert cli.main(["ber", "--config", str(tmp_path)]) == 2

    def test_config_not_utf8(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(BER_CONFIG.encode()
                        + "# d\xe9j\xe0 vu\n".encode("latin-1"))
        assert cli.main(["ber", "--config", str(cfg)]) == 2

    def test_out_is_a_directory(self, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG)
        assert cli.main(["ber", "--config", str(cfg), "--out",
                         str(tmp_path)]) == 2

    def test_negative_config_seed_rejected(self, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG.replace("seed = 77", "seed = -1"))
        out = tmp_path / "curve.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_sigma2_and_ebn0_db_keys_rejected(self, tmp_path):
        for key in ("sigma2 = 0.1", "ebn0_db = 3"):
            cfg = tmp_path / "noise.cfg"
            cfg.write_text(BER_CONFIG + key + "\n")
            assert cli.main(["ber", "--config", str(cfg)]) == 2, key


FUZZ_BASE = {"signature_kind": "walsh", "k_users": "2", "n_chips": "4",
             "detector": "mf", "ebn0_db_list": "0,4", "trials": "3",
             "seed": "5"}
FUZZ_EXTRA_KEYS = ("sync_mode", "gain_model", "sigma2", "ebn0_db", "bogus")
# Small integers or text without digits: no value can ask for a large
# signature array or search space.  Trial counts of 2^32 to 2^70, drawn
# apart, ask for more than config.MAX_WORK and exit 2 before any draw.
FUZZ_VALUES = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["walsh", "random_bipolar", "mf", "ml_exhaustive", "qmud",
                     "synchronous", "chip-asynchronous", "fixed", "rayleigh",
                     "inf", "-inf", "nan", ""]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12))
FUZZ_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("replace"), st.sampled_from(sorted(FUZZ_BASE)),
                  FUZZ_VALUES),
        st.tuples(st.just("drop"), st.sampled_from(sorted(FUZZ_BASE)),
                  st.none()),
        st.tuples(st.just("add"), st.sampled_from(FUZZ_EXTRA_KEYS),
                  FUZZ_VALUES),
        st.tuples(st.just("replace"), st.just("trials"),
                  st.integers(2**32, 2**70).map(str))),
    max_size=2)


class TestBerConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(edits=FUZZ_EDITS)
    def test_exit_code_is_0_or_2(self, edits):
        cfg = dict(FUZZ_BASE)
        for action, key, value in edits:
            if action == "drop":
                cfg.pop(key, None)
            else:
                cfg[key] = value
        text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "fuzz.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            rc = cli.main(["ber", "--config", path,
                           "--out", os.path.join(work, "fuzz.csv")])
        assert rc in (0, 2), text


# One flag value in about seven is malformed text instead of a number.
FUZZ_JUNK = st.sampled_from([None] * 18 + ["", "x", "1e3"])


def _flag(name, values, required=False):
    """argv pair [name, value] for a drawn value; optional flags may also be
    left out."""
    pair = st.tuples(values, FUZZ_JUNK).map(
        lambda drawn: [name, str(drawn[0]) if drawn[1] is None else drawn[1]])
    return pair if required else st.one_of(st.just([]), pair)


def _argv(subcommand, *flags):
    return st.tuples(*flags).map(
        lambda parts: subcommand + [tok for part in parts for tok in part])


def _mix(valid, invalid):
    """Valid values three times in four."""
    return st.one_of(valid, valid, valid, invalid)


# Sizes stay small (n <= 2^10, trials <= 50, bits <= 200, K <= 6), so no
# valid draw asks for a long run or a large allocation; negative, zero,
# non-finite and out-of-range values are drawn next to valid ones, and so are
# counts of 2^32 to 2^70, which ask for more than config.MAX_WORK and exit 2
# before any draw.  The grover curve takes trials up to 2^63 - 1, as one
# multinomial draw per step costs the same for any count.
FUZZ_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                -400.0, 1e308])
FUZZ_N = _mix(st.sampled_from([1 << e for e in range(1, 11)]),
              st.integers(-4, 1024))
FUZZ_MARKED = _mix(st.integers(1, 4), st.integers(-2, 1030))
FUZZ_SEED = _flag("--seed", _mix(st.integers(0, 2**64), st.integers(-2, -1)))
FUZZ_HUGE = st.integers(2**32, 2**70)
FUZZ_TRIALS = _flag("--trials", _mix(st.integers(1, 50),
                                     st.one_of(st.integers(-2, 0), FUZZ_HUGE)),
                    required=True)
FUZZ_ARGV = {
    "grover": _argv(["grover"], _flag("--n", FUZZ_N, required=True),
                    _flag("--marked", FUZZ_MARKED), FUZZ_TRIALS,
                    _flag("--k-max", st.integers(-2, 40)), FUZZ_SEED),
    "grover-scaling": _argv(["grover", "--scaling"], _flag("--n", FUZZ_N),
                            _flag("--marked", FUZZ_MARKED), FUZZ_TRIALS,
                            _flag("--scaling-max-exp", st.integers(-2, 10),
                                  required=True), FUZZ_SEED),
    "bsc": _argv(["bsc"],
                 _flag("--p", _mix(st.floats(0.0, 1.0),
                                   st.one_of(st.floats(-0.5, 1.5),
                                             FUZZ_SPECIAL)), required=True),
                 _flag("--bits", _mix(st.integers(1, 200),
                                      st.one_of(st.integers(-2, 0),
                                                FUZZ_HUGE)), required=True),
                 FUZZ_SEED),
    "qmud-agree": _argv(["qmud-agree"],
                        _flag("--k", _mix(st.integers(1, 6),
                                          st.integers(-2, 0)), required=True),
                        _flag("--n-chips", _mix(st.integers(4, 32),
                                                st.integers(-2, 3))),
                        FUZZ_TRIALS,
                        _flag("--ebn0", _mix(st.floats(-10.0, 30.0),
                                             FUZZ_SPECIAL)),
                        FUZZ_SEED),
}


class TestArgvFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_ARGV))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_0_or_2(self, command, data):
        argv = data.draw(FUZZ_ARGV[command], label="argv")
        assert cli.main(argv) in (0, 2), argv


# SHA-256 of `bsc --p 0.5 --bits 5000 --seed 25 --out ...`.  A change that
# alters seeded `bsc` bytes on purpose updates it and says so.
PINNED_BSC_SHA256 = (
    "8bde16810d63bb4c4c28c38836f3170183634c91ff0373162199df76582009eb")

# SHA-256 of the manifest of the same run with the relative `--out bsc.json`,
# run in an empty directory so that the manifest records that path.
PINNED_BSC_MANIFEST_SHA256 = (
    "59d56a2597bae95a3f889fb4d6a36c23981d0f2420799f2fa519a6b924eb55e6")


class NoDraws:
    """A generator stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


HUGE = str(10**20)


@pytest.mark.parametrize("argv", [
    ["ber", "--config"],
    ["qmud-agree", "--trials", HUGE],
    ["bsc", "--p", "0.5", "--bits", HUGE],
    ["grover", "--scaling", "--trials", HUGE],
    ["grover", "--n", "64", "--trials", HUGE],
], ids=["ber", "qmud-agree", "bsc", "grover-scaling", "grover"])
def test_huge_counts_exit_2_before_any_draw(argv, monkeypatch, tmp_path):
    # these ran until killed, and the grover curve exited 1 on
    # rng.multinomial's C long; the run-size rule refuses them before the
    # generator is used or a file is written
    if argv[0] == "ber":
        cfg = tmp_path / "ber.cfg"
        cfg.write_text("signature_kind = walsh\nk_users = 1\nn_chips = 2\n"
                       "detector = mf\nebn0_db_list = 0,4\n"
                       "trials = 99999999999999999999\n")
        argv = argv + [str(cfg)]
    monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert list(tmp_path.glob("out*")) == []


class TestBscCommand:
    def test_seeded_report_bytes_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bsc", "--p", "0.5", "--bits", "5000", "--seed",
                         "25", "--out", "bsc.json"]) == 0
        digest = hashlib.sha256((tmp_path / "bsc.json").read_bytes())
        assert digest.hexdigest() == PINNED_BSC_SHA256
        manifest = (tmp_path / "bsc.json.manifest.json").read_bytes()
        assert (hashlib.sha256(manifest).hexdigest()
                == PINNED_BSC_MANIFEST_SHA256)

    def test_p_half(self, capsys, tmp_path):
        out = tmp_path / "demo.json"
        rc = cli.main(["bsc", "--p", "0.5", "--bits", "5000", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "quantum error rate" in captured
        report = json.loads(out.read_text())
        assert report["quantum_error_rate"] == 0.0
        assert abs(report["classical_error_rate"] - 0.5) < 0.05
        assert report["classical_capacity"] == 0.0

    def test_p_zero(self, capsys):
        rc = cli.main(["bsc", "--p", "0", "--bits", "200"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["classical_error_rate"] == 0.0
        assert report["quantum_error_rate"] == 0.0

    def test_p_out_of_range(self):
        assert cli.main(["bsc", "--p", "1.5"]) == 2


class TestQmudAgreeCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "agree.csv"
        rc = cli.main(["qmud-agree", "--k", "5", "--trials", "30",
                       "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0][0] == "k_users"
        assert float(rows[1][rows[0].index("agreement")]) >= 0.9

    def test_k_validated(self):
        assert cli.main(["qmud-agree", "--k", "0"]) == 2

    def test_csv_does_not_depend_on_ebn0_or_n_chips(self, tmp_path):
        # agreement and counters depend on K alone, so --ebn0 and --n-chips
        # are checked and recorded but change no CSV byte, even at -400 dB,
        # where every score of a drawn table would tie
        runs = ((["--ebn0", "4"], "ebn0", 4.0),
                (["--ebn0", "12"], "ebn0", 12.0),
                (["--ebn0", "-400"], "ebn0", -400.0),
                (["--n-chips", "4"], "n_chips", 4))
        outputs = []
        for i, (flags, key, value) in enumerate(runs):
            out = tmp_path / f"agree{i}.csv"
            assert cli.main(["qmud-agree", "--k", "6", "--trials", "40",
                             "--seed", "9", "--out", str(out)] + flags) == 0
            manifest = json.loads((tmp_path / f"agree{i}.csv.manifest.json")
                                  .read_text())
            assert "redraws" not in manifest
            assert manifest["config"][key] == value
            outputs.append(out.read_bytes())
        assert b"ebn0" not in outputs[0]
        assert outputs == outputs[:1] * len(runs)

    def test_nan_ebn0_rejected(self, tmp_path):
        out = tmp_path / "agree.csv"
        assert cli.main(["qmud-agree", "--k", "3", "--trials", "2",
                         "--ebn0", "nan", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("ebn0", ["-3070", "-3080"])
    def test_ebn0_above_the_noise_ceiling_rejected(self, tmp_path, capsys,
                                                   ebn0):
        # -3080 dB used to exit 2 only through a tie message on NaN rows
        out = tmp_path / "agree.csv"
        assert cli.main(["qmud-agree", "--k", "6", "--trials", "3",
                         "--ebn0", ebn0, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "noise variance" in err and "unique maximum" not in err
        assert not out.exists()


class TestParserReuse:
    def test_no_parsed_state_leaks_between_calls(self, tmp_path):
        # the parser is built once per process; a --seed given to one call
        # must not reach the next, whose seed comes from its config
        assert cli.build_parser() is cli.build_parser()
        assert cli.main(["qmud-agree", "--k", "3", "--trials", "2",
                         "--seed", "5"]) == 0
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG)
        out = tmp_path / "curve.csv"
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 77


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        ["grover", "--n", "16", "--trials", "10"],
        ["grover", "--scaling", "--scaling-max-exp", "7", "--trials", "2"],
        ["bsc", "--p", "0.1", "--bits", "10"],
        ["qmud-agree", "--k", "3", "--trials", "2"],
    ])
    def test_rejected_before_any_work(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_ber_seed_flag_rejected(self, tmp_path):
        cfg = tmp_path / "ber.cfg"
        cfg.write_text(BER_CONFIG)
        out = tmp_path / "curve.csv"
        assert cli.main(["ber", "--config", str(cfg), "--seed", "-1",
                         "--out", str(out)]) == 2
        assert not out.exists()


class TestSeedDefault:
    def test_documented_default_used(self, tmp_path):
        from qmudsim import config
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert cli.main(["grover", "--n", "16", "--trials", "500",
                         "--out", str(out1)]) == 0
        assert cli.main(["grover", "--n", "16", "--trials", "500",
                         "--seed", str(config.DEFAULT_SEED),
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestModuleEntry:
    def test_python_dash_m_runs_without_runpy_warning(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qmudsim.cli",
             "bsc", "--p", "0", "--bits", "10"],
            env=env, capture_output=True, text=True, timeout=120)
        # -W error turns the runpy warning into a failing exit
        assert done.returncode == 0, done.stderr
