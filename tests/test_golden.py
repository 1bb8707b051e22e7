"""Golden outputs: sha256 of the summary and raw CSVs of small sweeps.

The digests pin the exact bytes that ``run_sweep`` produces for every shipped
config, and for one ``f = per-trial`` sweep (the only mode that samples f
from the robustly determinable region on every trial). The shipped configs
are all D = 2, so two more sweeps, one D = 1 and one D = 3, pin the error
draws off the D = 2 decode. A change that is meant to leave results alone
must leave these digests alone.
"""

import hashlib

import pytest

from mdcrt.config import ExperimentConfig, load_config, parse_config
from mdcrt.simkit import SweepConfig, raw_csv_lines, run_sweep, summary_csv_lines

TRIALS = 3
PER_TRIAL_TAUS = (5, 85)
PER_TRIAL_TRIALS = 4


def _digest(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def sweep_digests(path: str, reconstructor: str, per_trial: bool = False) -> tuple[str, str, str]:
    """Digests of the summary CSV, the raw CSV and the true vector of every
    trial. The last one is needed because a successful trial's error does
    not depend on f."""
    cfg = load_config(path)
    taus, trials, f_mode, f_value = cfg.taus, TRIALS, cfg.f_mode, cfg.f_value
    if per_trial:
        taus = tuple(t for t in taus if t in PER_TRIAL_TAUS)
        trials, f_mode, f_value = PER_TRIAL_TRIALS, "per-trial", None
    return _digests(cfg, reconstructor, taus, trials, f_mode, f_value)


def _digests(cfg: ExperimentConfig, reconstructor, taus, trials, f_mode, f_value) -> tuple[str, str, str]:
    sweep = SweepConfig(
        moduli=cfg.moduli,
        reconstructor=reconstructor,
        grouping=cfg.grouping,
        taus=taus,
        trials=trials,
        seed=cfg.seed,
        f_mode=f_mode,
        f_value=f_value,
    )
    summary = run_sweep(sweep, keep_raw=True)
    f_lines = [",".join(map(str, rec.f_true)) for records in summary.raw for rec in records]
    return (
        _digest(summary_csv_lines(summary)),
        _digest(raw_csv_lines(summary)),
        _digest(f_lines),
    )


# (config, reconstructor, per-trial f) -> (summary, raw, f_true) digests
GOLDEN = {
    ('configs/fig2_diag.cfg', 'single', False): (
        "9513cba4f9b67c55607d48f174b4fac86072a73f48333f19b7f358a677a696b1",
        "1bbeca196cedd12341faf779f8c745fb0b48e5cb3a0579d66abf23d03c4bd235",
        "642f697049f2d5efa065ec763e8869e3cd3d71f71dea95f6e7e8f841a01e6305",
    ),
    ('configs/fig2_nondiag.cfg', 'single', False): (
        "c45569e9bc697b909edb1c21e4d694a41a9305e64e7ac3f3d8e562f82591dde2",
        "853a6e5796df7e5f1ebd2d8a68a1cce268828240796f270f2bc081c4f2040baf",
        "1a5e80706067755b0f8c3d0bb8bcce080a36e553b84736bfd76d5096434e28e1",
    ),
    ('configs/fig2_nondiag.cfg', 'multistage', False): (
        "f60ff2660da08c96bcd725c94a03e9cb3d0b908c17c613bb80eee22053a688c4",
        "763b8d81b8f85241014b055aaf824b470afd4b9d17bf6541ad060204fd2486ad",
        "506d9bc70c6e7cf21837b0e5d04bd2b789ec20713c23eadb586f1f63074b7553",
    ),
    ('configs/fig3.cfg', 'single', False): (
        "0c95c0ffe55767022ee7f091fe1adc237d3565a6b256de52ddf9cd1beefcf7dd",
        "3e93288d3ad6aa0ccfee0b38b45dab0c682e3e9fec3669424b807c980bba34dd",
        "7920d10d545134acb09d26b6631e0fcda2886e106d8e8e15fe7c4ecd5e15abed",
    ),
    ('configs/fig3.cfg', 'multistage', False): (
        "b226b2a08ca14d7369a9daa76b91a5b41880663899aa2eeb522077e0bbf58e19",
        "1329d10749e830fd1e6969e4e61c8f2afb6e7281a38644817ac044073ceaae5c",
        "7920d10d545134acb09d26b6631e0fcda2886e106d8e8e15fe7c4ecd5e15abed",
    ),
    ('configs/fig2_nondiag.cfg', 'single', True): (
        "01cb0e076c8d7d38c6955838287080e00fb53bd008b26d449f576a9ffd65be1d",
        "30b58899bc9ca1c4e9cd83dfac563cf9627dd9af19362cde44e7d065b6d20573",
        "c45e4f3a334d020fcd01d43d81c3001753e46be73cea723803ef596bb8212545",
    ),
    ('configs/fig2_nondiag.cfg', 'multistage', True): (
        "1562323d0fbb373443b0f96dfa2fd72229fa11f0835d864955042e5427c885f3",
        "168c8393bfdc321cc74cfa4a429a99335698577410fcde3f65e81888489050f6",
        "f161b834a0da98bc9d88c2576ccb39277ec6e2226bd47a975048722c15c1c797",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_sweep_output_is_pinned(key):
    path, reconstructor, per_trial = key
    assert sweep_digests(path, reconstructor, per_trial) == GOLDEN[key]


# Off the shipped dimension: the fig2_diag moduli in one dimension, and the
# D = 3 moduli 6B, 10B, 15B (B with rows (1,0,0), (0,1,0), (1,1,7)) that CI
# runs through the console script; f per trial, so the region draws are
# pinned too.
OFF_D2 = {
    "d1": (
        "moduli = [[[6]],[[10]],[[15]]]\n"
        "tau_grid = [0,1,2,3]\ntrials = 6\nseed = 20250809\nf = per-trial\n"
    ),
    "d3": (
        "moduli = [[[6,0,0],[0,6,0],[6,6,42]],[[10,0,0],[0,10,0],[10,10,70]],"
        "[[15,0,0],[0,15,0],[15,15,105]]]\n"
        "tau_grid = [0,1,2,3]\ntrials = 6\nseed = 20250809\nf = per-trial\n"
    ),
}

# name -> (summary, raw, f_true) digests
GOLDEN_OFF_D2 = {
    "d1": (
        "93fa4442c1bce80417a28363506ae9492170ea30abf14c4ad1b3ab7f999e0ae2",
        "6145018687431422738c0219ce7862721c5bf77a5882fb614a125af8d3255a0c",
        "d409201bbe26b1146ef42c3f7eb04863c1e602012ab3a8e65cbb71b29fad01e9",
    ),
    "d3": (
        "95a110c316b47bd9c99a960a157d0c3fd25d3484f92a4e7895dc723258784830",
        "cda3eaf3537e8f43e083a08b1c96a10f9c4bceecebe8f87e9c16a863bd926eaf",
        "b75602e77bccfa82287d95b06358fc6f9e870b62b6ca9572f1ae792447424dc1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OFF_D2))
def test_sweep_output_off_dim_2_is_pinned(name):
    cfg = parse_config(OFF_D2[name])
    assert _digests(cfg, "single", cfg.taus, cfg.trials, cfg.f_mode, cfg.f_value) == GOLDEN_OFF_D2[name]
