"""Seeded operations for the benchmark's workloads.

A workload is one *round*: a fixed-length list of operations drawn from the
seed. A run repeats whole rounds, so every run attempts the same mix and the
long-window sweep operations are the same share of every run. Each operation
is one ``cli.main`` call that writes one artifact; the dict carries the argv
and the parameters the reference needs to check the artifact.
"""
from __future__ import annotations

import numpy as np

from reference import NAMED_STATES, product_vector

#: The CLI's presets as (delta, n_photon, initial); the reference needs them.
PRESETS = {
    "fig1a": (0.1, 0, "ee"),
    "fig1b": (0.5, 0, "ee"),
    "fig2a": (0.1, 0, "gg"),
    "fig2b": (0.5, 0, "gg"),
    "fig3a": (0.5, 3, "ee"),
    "fig3b": (0.5, 3, "gg"),
    "fig4a_text": (0.1, 0, "ee"),
    "fig4a_caption": (1.0, 0, "ee"),
    "fig4b": (0.5, 0, "ee"),
    "fig5a": (1.0, 0, "gg"),
    "fig5b": (0.5, 0, "gg"),
    "fig6a": (0.5, 3, "ee"),
    "fig6b": (0.5, 3, "gg"),
}

PHOTON_NUMBERS = range(10)
SERIES_STEPS = 1001
SWEEP_STEPS = 101
SWEEP_DELTA_POINTS = 6
TAU_MAX = 10.0
LONG_TAU_MAX = 1e6
AUDIT_TAU_POINTS = 21

#: Long-window sweeps. Their inputs do not depend on the seed: each exits 2
#: with a spurious TruncationLeak today (round-off in the 64-dimensional
#: eigenvectors crosses the 1e-12 guard near tau 1e4), so they are counted as
#: failed until the excitation-block engine removes the guard.
LONG_WINDOW_SWEEPS = (
    ("delta", 0.1, 1.0, 6, "eg", 2, 0.0, None, SERIES_STEPS),
    ("delta", 0.0, 1.0, 6, "custom", 4, 0.0, (0.6, 0.8, 0.8, 0.6j), SWEEP_STEPS),
)


def _fmt(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}j"


def _stratified(rng: np.random.Generator, count: int, low: float, high: float) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [low, high), shuffled.

    Stratifying keeps every round's mix of detunings and preparations close
    to the same spread, so the op-time distribution depends little on the
    seed.
    """
    slices = rng.permutation(count)
    return [float(low + (high - low) * (k + rng.uniform()) / count) for k in slices]


def _random_amplitudes(theta1: float, theta2: float, rng: np.random.Generator) -> tuple:
    """Product preparation: atom i in cos(t_i/2)|g> + e^{i p_i} sin(t_i/2)|e>."""
    amplitudes = []
    for theta in (theta1, theta2):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        amplitudes += [complex(np.cos(theta / 2)), complex(np.exp(1j * phi) * np.sin(theta / 2))]
    return tuple(amplitudes)


def _random_products(rng: np.random.Generator, count: int) -> list[tuple]:
    return [
        _random_amplitudes(theta1, theta2, rng)
        for theta1, theta2 in zip(_stratified(rng, count, 0.0, np.pi),
                                  _stratified(rng, count, 0.0, np.pi))
    ]


def _state_args(initial: str, amplitudes) -> tuple[list[str], np.ndarray]:
    if initial == "custom":
        return (
            ["--initial", "custom", "--amplitudes", ",".join(_fmt(z) for z in amplitudes)],
            product_vector(*amplitudes),
        )
    return ["--initial", initial], np.array(NAMED_STATES[initial], dtype=complex)


def _series_op(delta, n_photon, initial, amplitudes=None, pair=None) -> dict:
    state_argv, atomic = _state_args(initial, amplitudes)
    argv = ["--mode", "series", *state_argv, "--delta", repr(delta), "--n-photon", str(n_photon)]
    return dict(
        kind="series", argv=argv, initial=initial, atomic=atomic, delta=delta,
        n_photon=n_photon, tau_max=TAU_MAX, steps=SERIES_STEPS, samples=SERIES_STEPS,
        pair=pair,
    )


def _photons(rng: np.random.Generator, count: int) -> list[int]:
    """Photon numbers 0..9, one from each of ``count`` equal slices."""
    return [int(x) for x in _stratified(rng, count, 0.0, 10.0)]


def series_round(rng: np.random.Generator) -> list[dict]:
    """13 presets, 4 eg/ge pairs, 8 custom products and 6 singlets: 35 ops.

    Presets are mostly separable, so ``classify`` returns at its negativity
    gate; eg/ge/custom states are entangled for much of the window and go on
    to the eigendecomposition and template fits, and the median op is one of
    them; the singlet is entangled at every sample and fits no template, the
    slowest class (the top 17% of ops, so the 90th percentile sits inside it).
    """
    ops = []
    for name, (delta, n_photon, initial) in PRESETS.items():
        op = _series_op(delta, n_photon, initial)
        op["argv"] = ["--preset", name]
        ops.append(op)
    # Pairs are keyed by their index: two stratified photon numbers can
    # truncate to the same integer.
    for k, (n_photon, delta) in enumerate(zip(_photons(rng, 4), _stratified(rng, 4, 0.0, 1.0))):
        ops.append(_series_op(delta, n_photon, "eg", pair=k))
        ops.append(_series_op(delta, n_photon, "ge", pair=k))
    for n_photon, delta, amplitudes in zip(
        _photons(rng, 8), _stratified(rng, 8, 0.0, 1.0), _random_products(rng, 8)
    ):
        ops.append(_series_op(delta, n_photon, "custom", amplitudes))
    for n_photon, delta in zip(_photons(rng, 6), _stratified(rng, 6, 0.0, 1.0)):
        ops.append(_series_op(delta, n_photon, "singlet"))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _sweep_op(param, start, stop, count, initial, n_photon, delta, amplitudes, steps,
              tau_max=TAU_MAX, expect_leak=False) -> dict:
    state_argv, atomic = _state_args(initial, amplitudes)
    spec = f"{param}:{start!r}:{stop!r}:{count}"
    argv = ["--sweep", spec, *state_argv]
    argv += ["--n-photon", str(n_photon)] if param == "delta" else ["--delta", repr(delta)]
    argv += ["--tau-max", repr(tau_max), "--steps", str(steps)]
    return dict(
        kind="sweep", argv=argv, initial=initial, atomic=atomic, delta=delta,
        n_photon=n_photon, tau_max=tau_max, steps=steps, samples=count * steps,
        sweep_param=param, sweep_start=start, sweep_stop=stop, sweep_count=count,
        expect_leak=expect_leak,
    )


def sweep_round(rng: np.random.Generator) -> list[dict]:
    """24 delta sweeps, 6 n_photon sweeps (0..9) and the 2 long-window sweeps.

    Delta sweeps have 6 points over a seeded sub-range of [0, 1], 8 each of
    ``ee``, ``gg`` and a custom product at stratified photon numbers.
    Photon-number sweeps have 10 points, two per preparation at stratified
    detunings; they are the slowest class, a fifth of the completed ops.
    Every point rebuilds and diagonalizes the 28- to 64-dimensional
    Hamiltonian; 101 samples per point keep the CSV small.
    """
    ops = []
    for initial in ("ee", "gg", "custom"):
        products = _random_products(rng, 10)
        for k, n_photon in enumerate(_photons(rng, 8)):
            start, stop = float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.6, 1.0))
            amplitudes = products[k] if initial == "custom" else None
            ops.append(_sweep_op("delta", start, stop, SWEEP_DELTA_POINTS, initial, n_photon,
                                 0.0, amplitudes, SWEEP_STEPS))
        for k, delta in enumerate(_stratified(rng, 2, 0.0, 1.0)):
            amplitudes = products[8 + k] if initial == "custom" else None
            ops.append(_sweep_op("n_photon", 0, 9, 10, initial, 0, delta, amplitudes,
                                 SWEEP_STEPS))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    for k, (param, start, stop, count, initial, n_photon, delta, amplitudes, steps) in enumerate(
        LONG_WINDOW_SWEEPS
    ):
        long_op = _sweep_op(param, start, stop, count, initial, n_photon, delta, amplitudes,
                            steps, tau_max=LONG_TAU_MAX, expect_leak=True)
        ops.insert(len(ops) * (k + 1) // len(LONG_WINDOW_SWEEPS), long_op)
    return ops


def audit_round(rng: np.random.Generator) -> list[dict]:
    """Three audits per photon number 0..9: the CLI's default delta 0, and two
    detunings drawn from [0.05, 1].

    Below about 1e-4 the closed form divides by a root of order
    delta / (2n + 3), and round-off then moves its deviations by more than the
    reference's 1e-9 relative tolerance (1.3e-7 at delta 1e-6, n = 9); at
    exactly 0 the formula's special case makes it well defined again.
    """
    ops = []
    for n_photon in PHOTON_NUMBERS:
        for delta in [0.0, *_stratified(rng, 2, 0.05, 1.0)]:
            argv = ["--mode", "audit", "--delta", repr(delta), "--n-photon", str(n_photon)]
            ops.append(dict(kind="audit", argv=argv, delta=delta, n_photon=n_photon,
                            samples=AUDIT_TAU_POINTS))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


ROUNDS = {"series": series_round, "sweep": sweep_round, "audit": audit_round}


def make_round(workload: str, seed: int) -> list[dict]:
    return ROUNDS[workload](np.random.default_rng(seed))
