"""The label engine against the hilbert engine beyond the 2x2 torus.

The hilbert engine evaluates energies and drive matrix elements on
explicit 2^n kets and is the reference; the label engine must give the
same numbers from the flip signatures alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim.hamiltonian import CouplingParams, energy_expectation, perturbation_element
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, excite

GEOMS = {shape: build_lattice(*shape) for shape in ((2, 3), (3, 2))}

couplings = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
amplitudes = st.one_of(st.just(0.0), st.floats(0.001, 2.0))


@settings(max_examples=60, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    d=amplitudes,
    same_base=st.booleans(),
    data=st.data(),
)
def test_label_engine_matches_hilbert_engine(shape, jx, jy, jz, d, same_base, data):
    geom = GEOMS[shape]
    n = geom.n_plaquettes
    plaquettes = st.integers(0, n - 1)
    ground = FlipConfig(data.draw(st.integers(0, 2**n - 1), label="ground"), n)
    # a target built on the ground configuration, as connected_targets makes
    # them, or on an unrelated one
    base = ground if same_base else FlipConfig(
        data.draw(st.integers(0, 2**n - 1), label="base"), n
    )
    # under the ownership rule only a drive on plaquette 0 connects a target,
    # the excitation of that plaquette; the draws lean toward that case
    driven = data.draw(st.one_of(st.just(0), plaquettes), label="driven")
    on_driven = data.draw(st.booleans(), label="on driven")
    excited = driven if on_driven else data.draw(plaquettes, label="excited")
    target = excite(base, excited)
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d)

    for config, excitation in ((ground, None), (base, target)):
        e_label = energy_expectation(geom, params, config, excitation, engine="label")
        e_hilbert = energy_expectation(geom, params, config, excitation, engine="hilbert")
        assert abs(e_label - e_hilbert) <= 1e-12

    m_label = perturbation_element(
        geom, ground, target, params, drive_plaquette=driven, engine="label"
    )
    m_hilbert = perturbation_element(
        geom, ground, target, params, drive_plaquette=driven, engine="hilbert"
    )
    assert abs(m_label - m_hilbert) <= 1e-12
