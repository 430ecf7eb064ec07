"""Discrete-time complex-baseband DS-CDMA uplink simulator.

One observed symbol window of N_c chip-rate samples.  Each user k sends a
BPSK symbol spread by a unit-energy bipolar signature; the channel applies a
complex gain A_k·e^{jα_k} and an integer chip delay τ_k.  With a nonzero
delay the leading chips of the window carry the tail of the user's previous
symbol, so synthesis takes the previous bits explicitly.  Chip samples may
carry complex white Gaussian noise of variance sigma² per sample.  A scenario
holds the fixed uplink (codes and channel model); sigma² is the operating
point that experiments sweep, so synthesize_received takes it per call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError, as_count, as_indices

SYNCHRONOUS = "synchronous"
CHIP_ASYNC = "chip-asynchronous"
SYNC_MODES = (SYNCHRONOUS, CHIP_ASYNC)

GAIN_FIXED = "fixed"
GAIN_RAYLEIGH = "rayleigh"
GAIN_MODELS = (GAIN_FIXED, GAIN_RAYLEIGH)

SIGNATURE_KINDS = ("walsh", "random_bipolar")

_ENERGY_TOL = 1e-12

# Largest K·N_c a generated signature array may hold (32 MiB of float64).
MAX_SIGNATURE_ENTRIES = 1 << 22

# Largest chip-noise variance synthesize_received accepts and an Eb/N0 may
# give, 10^200 (Eb/N0 down to -2000 dB).  A cost-table score sums the
# squares of 2·N_c <= 2^23 real chip samples of variance sigma²/2, so below
# this ceiling every score of every scenario stays near 10^207 or less, far
# from the float overflow (1.8e308) that Eb/N0 of about -3070 dB reached.
MAX_NOISE_VARIANCE = 1e200


@dataclass(frozen=True, eq=False)
class ChannelState:
    """Per-user flat channel: complex gain a_k = A_k·e^{jα_k}, integer chip
    delay τ_k; both arrays of shape (..., K).  Non-finite gains and delays
    that are not integers >= 0 (bools included) raise ValueError."""

    gains: np.ndarray
    delay: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=complex)
        d = as_indices(self.delay, math.inf, "delays")
        if gains.shape != d.shape:
            raise ShapeError("gains and delay must share a shape")
        if not np.all(np.isfinite(gains)):
            raise ValueError("gains must be finite")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "delay", d)


@dataclass(frozen=True, eq=False)
class CdmaScenario:
    """Static description of one uplink: codes and channel model.  The noise
    level is an operating point, passed to synthesize_received per call.

    `signatures` is the (K, N_c) array of unit-energy chip sequences, one row
    per user; the scenario keeps a read-only float copy of it.
    """

    signatures: np.ndarray
    sync_mode: str = SYNCHRONOUS
    gain_model: str = GAIN_FIXED
    seed: int = 0

    def __post_init__(self):
        chips = np.array(self.signatures, dtype=float)
        if chips.ndim != 2 or chips.size == 0:
            raise ConfigError("signatures must be a (K, N_c) array with at "
                              f"least one user and one chip, got shape "
                              f"{chips.shape}")
        energy = np.sum(chips**2, axis=1)
        if not np.all(np.abs(energy - 1.0) <= _ENERGY_TOL):
            raise ConfigError(f"signature energies {energy}, expected 1")
        chips.setflags(write=False)
        object.__setattr__(self, "signatures", chips)
        if self.sync_mode not in SYNC_MODES:
            raise ConfigError(f"sync_mode must be one of {SYNC_MODES}")
        if self.gain_model not in GAIN_MODELS:
            raise ConfigError(f"gain_model must be one of {GAIN_MODELS}")

    @property
    def k_users(self) -> int:
        return self.signatures.shape[0]

    @property
    def n_chips(self) -> int:
        return self.signatures.shape[1]

    @functools.cached_property
    def _padded_chips(self):
        """Signatures with N_c zeros on each side, flattened, and the flat
        position of chip t of user k; reading τ positions earlier gives
        s_k[t − τ], or zero where t − τ falls outside [0, N_c)."""
        n = self.n_chips
        padded = np.zeros((self.k_users, 3 * n))
        padded[:, n:2 * n] = self.signatures
        position = (3 * n * np.arange(self.k_users)[:, None] + n
                    + np.arange(n))
        return padded.ravel(), position


@dataclass(frozen=True, eq=False)
class ReceivedFrame:
    """Symbol observation windows and the previous bits that spill into them."""

    samples: np.ndarray    # (..., N_c) complex chip-rate samples
    prev_bits: np.ndarray  # (..., K) ±1 per user, previous symbol (spill-in)


def _check_bipolar(name: str, bits, k_users: int) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.shape[-1:] != (k_users,):
        raise ShapeError(f"{name} must have {k_users} users on its last "
                         f"axis, got shape {arr.shape}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError(f"{name} entries must be ±1")
    return arr.astype(float)


def generate_signatures(kind: str, k_users: int, n_chips: int,
                        seed: int) -> np.ndarray:
    """(K, N_c) array of unit-energy signatures of the requested family.

    "walsh" uses the first K rows of the Sylvester Hadamard matrix of order
    N_c (pairwise orthogonal; requires a power-of-2 N_c >= K);
    "random_bipolar" draws i.i.d. ±1 chips seeded for reproducibility.
    K·N_c is capped at MAX_SIGNATURE_ENTRIES.  K and N_c that are not
    integers >= 1 and a seed that is not an integer >= 0 raise ConfigError.
    """
    if kind not in SIGNATURE_KINDS:
        raise ConfigError(f"signature kind must be one of {SIGNATURE_KINDS}")
    k_users = as_count(k_users, "k_users", 1)
    n_chips = as_count(n_chips, "n_chips", 1)
    seed = as_count(seed, "seed", 0)
    if k_users * n_chips > MAX_SIGNATURE_ENTRIES:
        raise ConfigError(f"k_users * n_chips = {k_users * n_chips} exceeds "
                          f"the cap of {MAX_SIGNATURE_ENTRIES} signature chips")
    scale = 1.0 / np.sqrt(n_chips)
    if kind == "walsh":
        if n_chips & (n_chips - 1):
            raise ConfigError(f"walsh requires power-of-2 n_chips, got {n_chips}")
        if k_users > n_chips:
            raise ConfigError(
                f"walsh supports at most n_chips={n_chips} users, got {k_users}")
        return _walsh_rows(k_users, n_chips) * scale
    rng = np.random.default_rng(seed)
    return rng.choice((-1.0, 1.0), size=(k_users, n_chips)) * scale


def _walsh_rows(k_users: int, n_chips: int) -> np.ndarray:
    """Rows 0..K−1 of the Sylvester Hadamard matrix of order N_c (a power of
    2): H[k, n] = (−1)^popcount(k & n), with the popcount parity taken by
    XOR-folding the bits down into bit 0."""
    parity = np.arange(k_users)[:, None] & np.arange(n_chips)
    shift = 1
    while shift < n_chips.bit_length():
        parity ^= parity >> shift
        shift *= 2
    return 1.0 - 2.0 * (parity & 1)


def make_scenario(signature_kind: str, k_users: int, n_chips: int,
                  sync_mode: str = SYNCHRONOUS, gain_model: str = GAIN_FIXED,
                  seed: int = 0) -> CdmaScenario:
    """Convenience builder: generate signatures and assemble the scenario."""
    sigs = generate_signatures(signature_kind, k_users, n_chips, seed)
    return CdmaScenario(signatures=sigs, sync_mode=sync_mode,
                        gain_model=gain_model, seed=seed)


def ebn0_db_to_noise_variance(ebn0_db: float) -> float:
    """Chip-noise variance giving the textbook single-user BPSK error rate.

    Per-bit energy is E[A²] times the unit signature energy, i.e. 1 for both
    gain models, and the unit-energy matched filter passes the chip noise
    variance through unchanged, so Eb/N0 = 1/sigma².  +inf dB is the
    noiseless channel; NaN, −inf, values whose variance exceeds
    MAX_NOISE_VARIANCE and values that are not numbers raise ConfigError.
    """
    try:
        sigma2 = 10.0 ** (-float(ebn0_db) / 10.0)
    except OverflowError:
        sigma2 = math.inf
    except (TypeError, ValueError):
        sigma2 = math.nan
    if not sigma2 <= MAX_NOISE_VARIANCE:
        raise ConfigError(f"Eb/N0 of {ebn0_db!r} dB gives no noise variance "
                          f"in [0, {MAX_NOISE_VARIANCE:g}]")
    return sigma2


def sample_channel(scenario: CdmaScenario, rng: np.random.Generator,
                   shape: tuple = ()) -> ChannelState:
    """Draw per-user gains a_k = A_k·e^{jα_k} and delays τ_k independently
    per the scenario's model.

    Each array has shape `shape + (K,)`, one channel per leading index.
    Rayleigh amplitudes A are scaled so E[A²] = 1 and drawn before the
    uniform phases α; the fixed model pins a_k = 1.  Delays are uniform over
    chip offsets in asynchronous mode, else 0.
    """
    size = tuple(shape) + (scenario.k_users,)
    return _build_channel(size, **{
        name: draw() for name, draw in _channel_draws(scenario, rng,
                                                      size).items()})


def _channel_draws(scenario: CdmaScenario, rng: np.random.Generator,
                   size) -> dict:
    """The draws of one sample_channel call, in order, as {variate name:
    zero-argument draw of an array of `size`}; a model that draws nothing
    (fixed gains, synchronous delays) has no entry."""
    draws = {}
    if scenario.gain_model == GAIN_RAYLEIGH:
        draws["amplitude"] = functools.partial(rng.rayleigh,
                                               1.0 / np.sqrt(2.0), size)
        draws["phase"] = functools.partial(rng.uniform, 0.0, 2.0 * np.pi,
                                           size)
    if scenario.sync_mode == CHIP_ASYNC:
        draws["delay"] = functools.partial(rng.integers, 0,
                                           scenario.n_chips, size)
    return draws


def _build_channel(size, amplitude=None, phase=None,
                   delay=None) -> ChannelState:
    """The channels of drawn variates of `size`: gains A·e^{jα}, or 1 where
    no amplitude was drawn, and delays 0 where none were drawn."""
    gains = (np.ones(size, complex) if amplitude is None
             else amplitude * np.exp(1j * phase))
    if delay is None:
        delay = np.zeros(size, dtype=int)
    return ChannelState(gains=gains, delay=delay)


def draw_trials(scenario: CdmaScenario, noise_variance: float, n: int,
                rng: np.random.Generator):
    """n random trials stacked on a leading axis: (channel, current bits,
    received frames), of shapes (n, K), (n, K) and (n, N_c).

    Each trial makes, in order, the draws of one sample_channel call, one
    rng.random call of 2K float32 words for its current then previous bits,
    and one rng.standard_normal call of 2·N_c for the real then imaginary
    parts of its chip noise; noiseless trials (sigma² = 0) draw no noise.  A
    bit is +1 where its word is >= 0.5, else -1.  This word rule gives the
    draws of rng.integers(0, 2, K), and so of rng.choice((-1, 1), K), once
    for each bit vector: both take one 32-bit word of the bit generator per
    value, float32 keeps its top 24 bits and integers its top bit, and the
    bit generator holds the unused half of a 64-bit draw across calls of
    either form.  The normals keep no state between calls, so one call of
    2·N_c is two calls of N_c.  So rng's stream is that of n trials drawn one
    after another, whatever n is.  Only the draws run per trial, each into a
    preallocated row: the bits, the gains, the checks, the synthesis and the
    noise sum run once on the stack.  A sigma² outside [0,
    MAX_NOISE_VARIANCE] raises ConfigError, and n that is not an integer >=
    1 ConfigError, before any draw.
    """
    _check_noise_variance(noise_variance)
    n = as_count(n, "n", 1)
    k, n_chips = scenario.k_users, scenario.n_chips
    channel_draws = _channel_draws(scenario, rng, k)
    # rayleigh and uniform draw float64, integers int64
    rows = {name: np.empty((n, k), np.int64 if name == "delay" else float)
            for name in channel_draws}
    calls = [(rows[name], draw) for name, draw in channel_draws.items()]
    words = np.empty((n, 2 * k), np.float32)
    noise = np.empty((n, 2 * n_chips)) if noise_variance > 0 else None
    for i in range(n):
        for row, draw in calls:
            row[i] = draw()
        rng.random(out=words[i], dtype=np.float32)
        if noise is not None:
            rng.standard_normal(out=noise[i])
    channel = _build_channel((n, k), **rows)
    bits = np.where(words >= 0.5, 1, -1)
    bits, prev_bits = bits[:, :k], bits[:, k:]
    frame = synthesize_received(scenario, channel, bits, prev_bits, 0.0, None)
    if noise is not None:
        frame = ReceivedFrame(samples=_add_noise(
            frame.samples, noise_variance, noise[:, :n_chips],
            noise[:, n_chips:]), prev_bits=frame.prev_bits)
    return channel, bits, frame


def delay_aligned(scenario: CdmaScenario, delay):
    """Each user's signature shifted by its chip delay, split at the window.

    Returns (current, spill), each of shape (..., K, N_c) for delays of shape
    (..., K): current[..., k, t] = s_k[t − τ_k] for t >= τ_k and spill[..., k,
    t] = s_k[t − τ_k + N_c] for t < τ_k, zero elsewhere.  The current symbol
    drives the first, the previous symbol spills in through the second.
    """
    n_chips = scenario.n_chips
    delay = np.asarray(delay)
    # floor division by N_c is zero exactly for delays in [0, N_c)
    if np.count_nonzero(delay // n_chips):
        raise ValueError("delays must be in [0, n_chips)")
    padded, position = scenario._padded_chips
    index = position - delay[..., None]
    return padded[index], padded[index + n_chips]


def synthesize(scenario: CdmaScenario, gains, delay, bits,
               prev_bits) -> np.ndarray:
    """Noiseless chip samples, shape (..., N_c), for broadcast (..., K) inputs.

    sample[t] = sum_k a_k·(b_k·s_k[t−τ_k] + b_k^{prev}·s_k[t−τ_k+N_c]) with
    s_k zero outside [0, N_c); the previous bits fill the leading τ_k chips.
    """
    current, spill = delay_aligned(scenario, delay)
    gains = np.asarray(gains)
    return (np.matmul((gains * bits)[..., None, :], current)
            + np.matmul((gains * prev_bits)[..., None, :], spill))[..., 0, :]


def synthesize_received(scenario: CdmaScenario, channel: ChannelState,
                        bits, prev_bits, noise_variance: float,
                        rng: Optional[np.random.Generator]) -> ReceivedFrame:
    """Generate received symbol windows: synthesize() plus complex Gaussian
    noise of variance sigma² = noise_variance per sample; rng may be None
    only when sigma² = 0.  Broadcasts over leading trial dims of the (..., K)
    channel and bit arrays, giving samples of shape (..., N_c).  A sigma²
    outside [0, MAX_NOISE_VARIANCE] raises ConfigError before any draw.
    """
    _check_noise_variance(noise_variance)
    b = _check_bipolar("bits", bits, scenario.k_users)
    b_prev = _check_bipolar("prev_bits", prev_bits, scenario.k_users)
    samples = synthesize(scenario, channel.gains, channel.delay, b, b_prev)
    if noise_variance > 0:
        if rng is None:
            raise ValueError("rng required when noise_variance > 0")
        samples = _add_noise(samples, noise_variance,
                             rng.standard_normal(samples.shape),
                             rng.standard_normal(samples.shape))
    return ReceivedFrame(samples=samples, prev_bits=b_prev)


def _check_noise_variance(noise_variance: float) -> None:
    if not 0 <= noise_variance <= MAX_NOISE_VARIANCE:
        raise ConfigError(f"noise_variance must be in [0, "
                          f"{MAX_NOISE_VARIANCE:g}], got {noise_variance!r}")


def _add_noise(samples, noise_variance: float, real, imag) -> np.ndarray:
    """samples plus complex noise of variance sigma² per sample, from the
    standard normal draws of its real and imaginary parts."""
    return samples + np.sqrt(noise_variance / 2.0) * (real + 1j * imag)


def matched_filter_bank(frame: ReceivedFrame, scenario: CdmaScenario,
                        channel: ChannelState) -> np.ndarray:
    """Correlate the window against each user's delay-aligned signature.

    y_k = sum_t samples[t]·s_k[t−τ_k]; delays are known to the receiver.
    Broadcasts over leading trial dims: (..., N_c) samples and (..., K)
    delays give (..., K) outputs.
    """
    if frame.samples.shape[-1:] != (scenario.n_chips,):
        raise ShapeError(f"frame has samples of shape {frame.samples.shape}, "
                         f"expected (..., {scenario.n_chips})")
    current, _ = delay_aligned(scenario, channel.delay)
    return (current @ frame.samples[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Serialization: flat key=value scenario configs.

SCENARIO_KEYS = ("signature_kind", "k_users", "n_chips", "sync_mode",
                 "gain_model", "seed")


def parse_kv_config(text: str) -> dict:
    """Parse a flat "key = value" config; '#' starts a comment."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def scenario_from_config(cfg: dict) -> CdmaScenario:
    """Build a scenario from a flat string map; unknown keys are errors."""
    unknown = set(cfg) - set(SCENARIO_KEYS)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    missing = {"signature_kind", "k_users", "n_chips"} - set(cfg)
    if missing:
        raise ConfigError(f"missing scenario keys: {sorted(missing)}")
    try:
        k_users = int(cfg["k_users"])
        n_chips = int(cfg["n_chips"])
        seed = int(cfg.get("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in scenario config: {exc}") from exc
    return make_scenario(signature_kind=cfg["signature_kind"],
                         k_users=k_users, n_chips=n_chips,
                         sync_mode=cfg.get("sync_mode", SYNCHRONOUS),
                         gain_model=cfg.get("gain_model", GAIN_FIXED),
                         seed=seed)

