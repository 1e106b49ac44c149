"""The one-pass first order of several members against the per-member loop.

``first_order`` keys every member and target against one reference and
evaluates every series in one closed-form call; ``reference.loop_evolve_coefficients``
keys each member against itself and evaluates one series at a time.  The
two must agree bit for bit: energies, series, t_max values and the
normalized t_max amplitudes ``thermal`` mixes.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from kitaevsim.density import assemble_state, phased_amplitudes
from kitaevsim.hamiltonian import CouplingParams, energy_expectations
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, excite
from kitaevsim.perturbation import DriveSpec, connected_targets, evolve_coefficients, first_order

GEOMS = {shape: build_lattice(*shape) for shape in [(2, 2), (2, 3), (3, 2), (8, 8)]}


def bits_of(values) -> bytes:
    return np.asarray(values).tobytes()


@st.composite
def scenes(draw):
    geom = GEOMS[draw(st.sampled_from(sorted(GEOMS)))]
    n = geom.n_plaquettes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jx, jy, jz = (float(j) for j in rng.uniform(-2.0, 2.0, 3))
    t_max = float(rng.uniform(0.1, 20.0))
    times = np.linspace(0.0, t_max, draw(st.integers(2, 40)))
    # plaquette 0 connects a target on every torus here, others none
    plaquette = draw(st.sampled_from([0, 0, int(rng.integers(n))]))
    kind = draw(st.sampled_from(["exponential", "custom", "zero"]))
    if kind == "custom":
        t = np.concatenate(([0.0], np.sort(rng.uniform(0.0, t_max, int(rng.integers(0, 30)))), [t_max]))
        t = t[np.concatenate(([True], np.diff(t) > 0))]
        b = rng.normal(size=len(t)) + 1j * rng.normal(size=len(t))
        drive = DriveSpec.custom(t, b, plaquette=plaquette)
    else:
        d = 0.0 if kind == "zero" else float(rng.uniform(0.001, 0.5))
        drive = DriveSpec.exponential(d, float(rng.uniform(-3.0, 3.0)), plaquette=plaquette)
    configs = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=6, unique=True))
    members = [FlipConfig(bits, n) for bits in configs]
    params = CouplingParams(jx, jy, jz, d=drive.amplitude, omega=drive.omega)
    # each member's targets: random plaquettes, often with the connected one
    targets = []
    for config in members:
        labels = {excite(config, p) for p in draw(st.lists(st.integers(0, n - 1), max_size=4))}
        if draw(st.booleans()):
            labels.update(connected_targets(geom, params, config, plaquette))
        targets.append(sorted(labels, key=lambda tg: (tg.flipped_plaquette, tg.base.bits)))
    return geom, params, drive, members, targets, times


@settings(max_examples=80, deadline=None, database=None)
@given(scene=scenes())
def test_one_pass_matches_the_per_member_loop_bit_for_bit(scene):
    geom, params, drive, members, targets, times = scene
    first = first_order(geom, params, drive, members, targets)
    values, final = first.values(times), first.final_values(times)
    t = float(times[-1])
    start = 0
    for k, (config, labels) in enumerate(zip(members, targets)):
        rows = slice(start, start + len(labels))
        start += len(labels)
        assert (first.member[rows] == k).all()
        # a member's energy keyed against itself, as the loop takes it
        own = energy_expectations(geom, params, config, [frozenset()])
        assert bits_of(first.e_members[k:k + 1]) == bits_of(own)
        loop = reference.loop_evolve_coefficients(geom, params, drive, config, labels, times)
        assert [s.target for s in loop] == labels
        if not loop:
            continue
        assert bits_of(first.e_targets[rows]) == bits_of([s.e_target for s in loop])
        assert bits_of(values[rows]) == bits_of([s.values for s in loop])
        assert bits_of(final[rows]) == bits_of([s.values[-1] for s in loop])
        amps, norm = phased_amplitudes(
            float(first.e_members[k]), first.e_targets[rows].tolist(), final[rows], t
        )
        state = assemble_state(loop, t, config)
        assert bits_of(amps) == bits_of(state.amplitudes)
        assert bits_of(norm) == bits_of(state.norm_factor)
        # the one-member call keeps the library's evolve_coefficients on the loop
        library = evolve_coefficients(geom, params, drive, config, labels[::-1], times)
        assert bits_of([s.values for s in library]) == bits_of([s.values for s in loop])
        assert bits_of([(s.e_initial, s.e_target) for s in library]) == bits_of(
            [(s.e_initial, s.e_target) for s in loop])


def test_one_members_keys_hold_only_its_targets_differences():
    # keyed against the member itself, a half-flipped 24x24 configuration's
    # 576 targets keep one-site keys; against the all-plus configuration
    # each would hold about half of the 1152 sites
    geom = build_lattice(24, 24)
    n = geom.n_plaquettes
    config = FlipConfig(random.Random(3).getrandbits(n), n)
    drive = DriveSpec.exponential(0.01, 0.8)
    first = first_order(geom, CouplingParams(1.0, 0.8, 1.2), drive, [config],
                        [[excite(config, p) for p in range(n)]])
    assert first.member_keys == [frozenset()]
    assert [len(key) for key in first.target_keys] == [1] * n
