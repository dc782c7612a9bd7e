# securebeam/metrics.py
"""Received-signal metrics: pointwise SINR, secrecy rate, and QPSK bit error rate."""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from .channel import _receivers, steering_factors
from .config import ConfigError, PolarPosition, ScenarioConfig, check_count, path_loss

# floor applied before converting powers to dB, avoids -inf at exact nulls
_DB_FLOOR = 1e-30


def _to_db(power: np.ndarray | float) -> np.ndarray | float:
    return 10.0 * np.log10(np.maximum(power, _DB_FLOOR))


def _received(
    cfg: ScenarioConfig, plan: np.ndarray, beams: tuple[np.ndarray, np.ndarray],
    theta_rad: np.ndarray | float, range_m: np.ndarray | float,
) -> tuple[complex | np.ndarray, complex | np.ndarray]:
    """Effective gains sqrt(g(R)) h(theta, R)^H w of the beams (w_cm, w_an) on the grid of
    every angle with every range: weights stacked as B + (N,) give gains of shape
    B + theta.shape + range.shape."""
    amp = np.sqrt(path_loss(range_m))  # rejects bad ranges before any exponential
    return _gains(beams, amp, *steering_factors(plan, cfg, theta_rad, range_m))


def _gains(
    beams: tuple[np.ndarray, np.ndarray], amp: np.ndarray | float, a: np.ndarray, b: np.ndarray
) -> tuple[complex | np.ndarray, complex | np.ndarray]:
    """_received's gains from the grid's path amplitude sqrt(g(R)) and steering factors."""
    w_cm, w_an = beams
    n = a.shape[-1]
    a_conj = a.conj().reshape(-1, n)  # (Theta, N)
    b_cols = (np.expand_dims(amp, -1) * b.conj()).reshape(-1, n).T  # (N, R)

    def gain(w: np.ndarray) -> np.ndarray:
        # matmul takes each stacked beam's (Theta, N) slice as its own product, so a beam's
        # gains do not depend on its stack: at an exact null they are pure rounding
        gains = (a_conj * w.reshape(-1, 1, n)) @ b_cols  # (B, Theta, R)
        return gains.reshape(w.shape[:-1] + a.shape[:-1] + b.shape[:-1])[()]

    return gain(w_cm), gain(w_an)


def received_model(
    cfg: ScenarioConfig, plan: np.ndarray, beams: tuple[np.ndarray, np.ndarray], pos: PolarPosition
) -> tuple[complex | np.ndarray, complex | np.ndarray]:
    """Effective gains (cm_gain, an_gain) = sqrt(g(R)) h(pos)^H w at one probe position
    of the beams (w_cm, w_an), each an (N,) weight or a stack of them, shape (..., N)."""
    return _received(cfg, plan, beams, pos.angle_rad, pos.range_m)


def sinr(
    cm_gain: complex | np.ndarray, an_gain: complex | np.ndarray, noise_power: float
) -> float | np.ndarray:
    """|cm|^2 / (|an|^2 + noise), linear; elementwise for stacked gains."""
    if not (math.isfinite(noise_power) and noise_power > 0.0):
        raise ConfigError(f"noise_power must be finite and > 0, got {noise_power}")
    return abs(cm_gain) ** 2 / (abs(an_gain) ** 2 + noise_power)


def secrecy_rate(
    cfg: ScenarioConfig, plan: np.ndarray, beams: tuple[np.ndarray, np.ndarray]
) -> float | np.ndarray:
    """max{ log2(1 + SINR_Bob) - log2(1 + SINR_Eve), 0 } in bits per channel use;
    for stacked beams, one rate per stacked pair, broadcast over the leading axes.

    Formed as log1p((SINR_Bob - SINR_Eve) / (1 + SINR_Eve)) / ln 2, which keeps the digits
    of a small rate that the difference of two logarithms, or log2(1 + s) itself, drops."""
    return _secrecy_rate(cfg, _receivers(plan, cfg), beams)


def _secrecy_rate(
    cfg: ScenarioConfig, factors: tuple[tuple, tuple], beams: tuple[np.ndarray, np.ndarray]
) -> float | np.ndarray:
    """secrecy_rate from Bob's and Eve's steering factor pairs, as channel._receivers gives them."""
    bob, eve = factors
    sinr_b = sinr(*_gains(beams, np.sqrt(path_loss(cfg.bob_range_m)), *bob), cfg.noise_power_bob_w)
    sinr_e = sinr(*_gains(beams, np.sqrt(path_loss(cfg.eve_range_m)), *eve), cfg.noise_power_eve_w)
    return np.maximum(np.log1p((sinr_b - sinr_e) / (1.0 + sinr_e)) / math.log(2.0), 0.0)


def sinr_surface(
    cfg: ScenarioConfig,
    plan: np.ndarray,
    beams: tuple[np.ndarray, np.ndarray],
    theta_deg_grid: np.ndarray,
    range_m_grid: np.ndarray,
) -> np.recarray:
    """Message-beam SINR (dB) and jamming power (dB) of one (N,) beam pair (a stack is a
    ValueError) over an angle-range grid, as a record array with one record per grid point
    and the fields `cm_sinr_db` and `an_power_db`, the names in its `dtype.names`.

    The SINR is Bob's, at his own noise floor, wherever he stands: every grid point
    is probed with cfg.noise_power_bob_w. Records run theta-major: record
    i * len(range_m_grid) + j probes (theta_deg_grid[i], range_m_grid[j]). A cell at an
    exact null of either beam reads the -300 dB floor.
    """
    shapes = [np.shape(w) for w in beams]
    if shapes != [(cfg.num_antennas,)] * 2:  # a stack would give records of several pairs
        raise ValueError(f"beams must be one pair of shape ({cfg.num_antennas},), got {shapes}")
    theta_deg = np.asarray(theta_deg_grid, dtype=np.float64)
    r = np.asarray(range_m_grid, dtype=np.float64)
    if theta_deg.size == 0 or r.size == 0 or not np.all(np.isfinite(theta_deg)):
        raise ConfigError("angle and range grids must be nonempty, with finite angles")

    mags = (abs(g) for g in _received(cfg, plan, beams, np.radians(theta_deg), r))
    # at an exact null the N-term product leaves rounding, at most about N eps sqrt(g(R)) ||w||;
    # zeroed, such a cell reads the dB floor on every kernel
    bound = len(plan) * np.finfo(np.float64).eps * np.sqrt(path_loss(r))
    cm, an = (np.where(m <= bound * np.linalg.norm(w), 0.0, m) for m, w in zip(mags, beams))
    cm_sinr = sinr(cm, an, cfg.noise_power_bob_w)
    columns = (_to_db(cm_sinr).ravel(), _to_db(an ** 2).ravel())
    return np.rec.fromarrays(columns, names=("cm_sinr_db", "an_power_db"))


# symbols per decision chunk: its Gaussian block takes 512 KiB, its sign masks and each
# pair's products 256 KiB each
_CHUNK = 1 << 14
# the sign bit of a float64
_SIGN = np.uint64(1 << 63)


def _bit_errors(
    cm_gains: complex | np.ndarray, an_gains: complex | np.ndarray,
    noise_power: float, seed: int, draws: np.ndarray,
) -> np.ndarray:
    """Bit errors of every pair of the broadcast gains, over draws.shape[1] QPSK symbols
    drawn from `seed`; the first three Gaussian rows fill the caller's (3, symbols) buffer.

    The stream holds the symbols' bits, then the rows Re z, Im z, Re n, Im n of the
    jamming z and the noise n. The bits are those of integers(0, 2, (num_symbols, 2)),
    which takes each from the top bit of one 32-bit half of a 64-bit output, low half
    first: symbol s's I and Q bits are bits 31 and 63 of output s, and the rows start
    where PCG64(seed).advance(num_symbols) does. The raw outputs are read chunk by
    chunk from a second generator at the start: the same stream, with no array of
    all the bits.
    """
    num_symbols = draws.shape[1]
    gauss = np.random.Generator(np.random.PCG64(seed).advance(num_symbols))
    gauss.standard_normal(out=draws)
    bit_gen = np.random.PCG64(seed)

    def decision(cm_gain: complex, an_gain: complex) -> tuple[np.ndarray, float]:
        # decide on conj(cm) y = |cm|^2 x + conj(cm) (an z + n), whose parts have the signs
        # of those of y / cm; with no message gain, decisions are coin flips on noise
        rot = cm_gain.conjugate() if cm_gain != 0.0 else 1.0
        u, v = rot * an_gain / math.sqrt(2.0), rot * math.sqrt(noise_power / 2.0)
        rows = [[u.real, -u.imag, v.real, -v.imag], [u.imag, u.real, v.imag, v.real]]
        return np.array(rows), -(abs(cm_gain) ** 2) / math.sqrt(2.0)

    pairs = np.broadcast(cm_gains, an_gains)
    rows, thresholds = zip(*(decision(*pair) for pair in pairs))
    rows = np.concatenate(rows)  # (2P, 4): pair p's I row, then its Q row
    threshold = np.reshape(thresholds, (-1, 1, 1))  # each pair's, for its I and Q rows
    width = min(_CHUNK, num_symbols)
    block = np.empty((4, width))  # the chunk's rows: Im n ends the stream, so it is drawn last
    products = np.empty((pairs.size, 2, width))
    masks = np.empty((2, width), dtype=np.uint64)  # the I and Q sign masks
    less = np.empty((pairs.size, 2, width), dtype=bool)
    errors = np.zeros(pairs.size, dtype=np.int64)
    for start in range(0, num_symbols, _CHUNK):
        c = min(_CHUNK, num_symbols - start)
        block[:3, :c] = draws[:, start:start + c]
        gauss.standard_normal(out=block[3, :c])
        np.matmul(rows, block[:, :c], out=products.reshape(-1, width)[:, :c])
        # Gray-mapped QPSK with unit average power sends (1 - 2b)/sqrt(2) per bit b, and
        # a product times 1 - 2b is the product with its sign bit XORed with b
        raw = bit_gen.random_raw(c)
        np.left_shift(raw, np.uint64(32), out=masks[0, :c])
        masks[1, :c] = raw
        mask = np.bitwise_and(masks[:, :c], _SIGN, out=masks[:, :c])
        signs = products.view(np.uint64)[..., :c]
        np.bitwise_xor(signs, mask, out=signs)
        np.less(products[..., :c], threshold, out=less[..., :c])
        errors += [np.count_nonzero(pair) for pair in less[..., :c]]  # its I and Q rows at once
    return errors.reshape(pairs.shape)


def ber_monte_carlo(
    cfg: ScenarioConfig,
    plan: np.ndarray,
    beams: tuple[np.ndarray, np.ndarray],
    pos: PolarPosition,
    num_symbols: int,
    seed: int,
) -> float | np.ndarray:
    """Bit error rate of coherent QPSK at Bob or at Eve, with that receiver's noise
    floor; for stacked beams, one rate per stacked pair, the leading axes of the two
    beams broadcast.

    The receiver knows its complex message gain; the jamming signal (unit-power
    circular Gaussian) is treated as noise. Bits, jamming and noise are drawn once
    and every stacked pair sees the same draws. Deterministic for a fixed seed.

    This is `ber_sweep` at one point: one worker, the calling thread, holding 24 bytes
    per symbol of Gaussian draws plus 1-2 MiB of chunk temporaries. The oracles of its
    bits are `test_error_counts_equal_literal_complex_decisions` (the complex decision
    rule written out) and `test_jammed_ber_matches_q_of_sqrt_sinr` (Q(sqrt(SINR))).
    """
    one_point = tuple(w[..., None, :] for w in beams)
    ber = ber_sweep(cfg, plan, one_point, pos, num_symbols, [seed])[..., 0]
    return ber if ber.ndim else float(ber)


def _ber_workers(points: int) -> int:
    """Threads `ber_sweep` runs a sweep of `points` on: one per CPU this process may use,
    at most one per point."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, points))


def ber_sweep(
    cfg: ScenarioConfig,
    plan: np.ndarray,
    beams: tuple[np.ndarray, np.ndarray],
    pos: PolarPosition,
    num_symbols: int,
    seeds: list[int],
) -> np.ndarray:
    """`ber_monte_carlo` at every point of a sweep, with beams stacked as B + (points, N)
    (the two beams' stacks broadcast) and one seed per point: rates of shape B + (points,),
    each equal to that of the one-point call with the point's beams and seed.

    The points are independent, so they run on `_ber_workers(points)` threads; numpy
    fills random arrays without holding the interpreter lock. Worker k takes points
    k, k + W, ..., and the calling thread is worker 0. Each worker draws into its own
    (3, num_symbols) float64 buffer, allocated up front by the calling thread: 24 bytes
    per symbol per worker, plus a few chunks of 2**14 symbols. An exception in
    any worker stops the others at their next point and is raised here.
    """
    factors = steering_factors(plan, cfg, pos.angle_rad, pos.range_m)
    return _ber_sweep(cfg, factors, beams, pos, num_symbols, seeds)


def _ber_sweep(
    cfg: ScenarioConfig, factors: tuple[np.ndarray, np.ndarray],
    beams: tuple[np.ndarray, np.ndarray], pos: PolarPosition, num_symbols: int, seeds: list[int],
) -> np.ndarray:
    """ber_sweep from the steering factor pair (a, b) at pos."""
    check_count("num_symbols", num_symbols, 1)
    # Eve's entry comes last, so it wins when Bob and Eve share one position
    noise_power = {cfg.bob: cfg.noise_power_bob_w, cfg.eve: cfg.noise_power_eve_w}.get(pos)
    if noise_power is None:
        raise ConfigError(f"BER is defined at Bob or Eve only, got a probe at {pos}")
    seeds = [check_count("seed", seed, 0, math.inf) for seed in seeds]
    amp = np.sqrt(path_loss(pos.range_m))
    cm_gains, an_gains = np.broadcast_arrays(*_gains(beams, amp, *factors))
    if cm_gains.shape[-1:] != (len(seeds),):
        raise ValueError(f"beams must stack one pair per seed ({len(seeds)}) before N")
    errors = np.empty(cm_gains.shape, dtype=np.int64)
    workers = _ber_workers(len(seeds))
    buffers = [np.empty((3, num_symbols)) for _ in range(workers)]
    failed: list[BaseException] = []

    def work(k: int) -> None:
        try:
            for i in range(k, len(seeds), workers):
                if failed:
                    return
                errors[..., i] = _bit_errors(
                    cm_gains[..., i], an_gains[..., i], noise_power, seeds[i], buffers[k]
                )
        except BaseException as exc:  # raised again by the calling thread, below
            failed.append(exc)

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if failed:
        raise failed[0]
    return errors / (2.0 * num_symbols)
