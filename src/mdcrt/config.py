"""Flat key-value experiment configuration with bracketed integer literals.

``moduli``, ``grouping``, ``tau_grid`` and an explicit ``f`` are read by
``exact_linalg.parse_int_array``, as command-line literals are; every bad
value raises ConfigInvalid.

Example::

    # configs/fig2_nondiag.cfg: group {0, 1, 2} and singleton {3}, then the final group
    moduli = [[[30,0],[960,26430]],[[70,0],[11050,61670]],[[105,15],[3360,92985]],[[462,42],[14784,408366]]]
    grouping = [[[0,1,2],[3]]]
    reconstructors = single,multistage
    tau_grid = [5,10,15]
    trials = 500
    seed = 20250809
    f = centroid

``f`` is either the word ``centroid``, the word ``per-trial``, or an explicit
vector literal like ``[12,34]``. The output path is ``--out``, not a key.

A reconstructor name maps to its declared stages through ``declared_stages``
alone: "single" is the zero-stage plan, "multistage" the config's grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigInvalid
from .exact_linalg import IntMatrix, IntVec, parse_int_array

_KNOWN_KEYS = ("moduli", "grouping", "reconstructors", "tau_grid", "trials", "seed", "f")


@dataclass(frozen=True)
class ExperimentConfig:
    moduli: tuple[IntMatrix, ...]
    grouping: tuple | None
    reconstructors: tuple[str, ...]
    taus: tuple[Fraction, ...]
    trials: int
    seed: int
    f_mode: str  # "centroid", "per-trial", or "explicit"
    f_value: IntVec | None


def declared_stages(reconstructor: str, grouping: tuple | None) -> tuple:
    """The declared stages that ``reconstructor`` runs on: ``()`` for
    "single", ``grouping`` for "multistage". Raises ConfigInvalid for any
    other name, and for "multistage" when ``grouping`` is missing or
    declares no stage."""
    if reconstructor == "single":
        return ()
    if reconstructor != "multistage":
        raise ConfigInvalid(f"unknown reconstructor {reconstructor!r}")
    if not grouping:
        raise ConfigInvalid("reconstructor 'multistage' requires a 'grouping'")
    return grouping


def _array(key: str, text: str, depth: int, shape: str):
    """``text`` read by ``parse_int_array``; ConfigInvalid names ``key``."""
    try:
        return parse_int_array(text, depth, repr(key), shape)
    except ValueError as e:
        raise ConfigInvalid(str(e)) from None


def _int_value(raw: dict[str, str], key: str, default: str) -> int:
    """``raw[key]`` (or ``default``) read by ``int``; ConfigInvalid names ``key``."""
    text = raw.get(key, default)
    try:
        return int(text)
    except ValueError:
        raise ConfigInvalid(f"{key!r} must be an integer, found {text!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    if "moduli" not in raw:
        raise ConfigInvalid("missing required key 'moduli'")
    moduli_obj = _array("moduli", raw["moduli"], 3, "a list of integer matrices")
    if not moduli_obj:
        raise ConfigInvalid("'moduli' must be a non-empty list of matrices")
    moduli = tuple(IntMatrix(m) for m in moduli_obj)
    if any(not m.is_square or m.dim != moduli[0].dim for m in moduli):
        raise ConfigInvalid("'moduli' must all be square matrices of one dimension")

    grouping = None
    if "grouping" in raw:
        shape = "a list of stages, each a list of groups of modulus indices"
        grouping = _array("grouping", raw["grouping"], 3, shape)

    recon_text = raw.get("reconstructors", "single")
    reconstructors = tuple(s.strip() for s in recon_text.split(",") if s.strip())
    if not reconstructors:
        raise ConfigInvalid(f"'reconstructors' must name at least one reconstructor, found {recon_text!r}")
    for i, r in enumerate(reconstructors):
        declared_stages(r, grouping)
        if r in reconstructors[:i]:
            raise ConfigInvalid(f"'reconstructors' names {r!r} twice")

    taus_obj = _array("tau_grid", raw.get("tau_grid", "[]"), 1, "a list of nonnegative integers")
    taus = tuple(Fraction(t) for t in taus_obj)
    if any(t < 0 for t in taus):
        raise ConfigInvalid("'tau_grid' entries must be nonnegative")

    trials = _int_value(raw, "trials", "2000")
    if trials <= 0:
        raise ConfigInvalid("'trials' must be a positive integer")
    seed = _int_value(raw, "seed", "0")

    f_text = raw.get("f", "centroid")
    if f_text in ("centroid", "per-trial"):
        f_mode, f_value = f_text, None
    else:
        shape = "'centroid', 'per-trial', or an integer vector"
        f_mode, f_value = "explicit", _array("f", f_text, 1, shape)
        d = moduli[0].dim
        if len(f_value) != d:
            raise ConfigInvalid(f"'f' must have length {d}, the moduli's dimension, found {list(f_value)}")

    return ExperimentConfig(
        moduli=moduli,
        grouping=grouping,
        reconstructors=reconstructors,
        taus=taus,
        trials=trials,
        seed=seed,
        f_mode=f_mode,
        f_value=f_value,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
