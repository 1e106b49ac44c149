"""The compiled Pauli kernel against the independent references.

Every Pauli string in ``src/`` acts as ``phase[k] * psi[k ^ mask]``
(``string_term``): the oracle's generator, ``apply_h0`` and
``apply_pauli_string``.  The per-site reshape kernels of
``tests/reference.py`` are the reference on every torus; on 2x2 its
Kronecker-product matrices are checked as well.  The generator's
chunked matvec is held bit for bit to the coefficient-row kernel with one
row per group (``reference.grouped_apply``), whatever its chunk size.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim import oracle
from kitaevsim.hamiltonian import CouplingParams, apply_h0, drive_string, h0_terms
from kitaevsim.lattice import build_lattice
from kitaevsim.oracle import _Generator
from kitaevsim.pauli import apply_pauli_string, string_term
from kitaevsim.perturbation import DriveSpec

import reference

GEOMS = {shape: build_lattice(*shape) for shape in ((2, 2), (2, 3), (3, 2))}

couplings = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
amplitudes = st.one_of(st.just(0.0), st.floats(0.001, 2.0))


def _random_psi(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


@settings(max_examples=30, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    d=amplitudes,
    omega=st.floats(-3.0, 3.0),
    custom=st.booleans(),
    t=st.floats(0.0, 3.0),
    data=st.data(),
)
def test_compiled_rhs_matches_streaming_and_dense(
    shape, jx, jy, jz, d, omega, custom, t, data
):
    geom = GEOMS[shape]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d, omega=omega)
    if custom:
        grid = np.linspace(0.0, 3.0, 7)
        drive = DriveSpec.custom(grid, d * _random_psi(rng, 7), plaquette=plaquette)
    else:
        drive = DriveSpec.exponential(d, omega, plaquette=plaquette)
    dim = 2**geom.n_sites
    psi = _random_psi(rng, dim)
    string = drive_string(geom, plaquette)
    b = complex(drive.b_of(t))

    got = -1j * _Generator(geom, params, drive).apply(psi, b)
    ref = -1j * (reference.apply_h0(geom, params, psi) + b * reference.apply_pauli_string(psi, string))
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(got - ref) <= 1e-12 * scale

    if shape == (2, 2):
        h = reference.dense_h0_kron(geom, params)
        s = reference.kron_string(geom.n_sites, string)
        dense = -1j * (h @ psi + b * (s @ psi))
        assert np.linalg.norm(got - dense) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
)
def test_string_term_matches_apply_pauli_string(n, data):
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True))
    comps = data.draw(st.lists(st.sampled_from("xyz"), min_size=len(sites), max_size=len(sites)))
    ops = list(zip(sites, comps))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = _random_psi(rng, 2**n)
    mask, phase = string_term(ops, n)
    ref = reference.apply_pauli_string(psi, ops)
    # every phase is +-1 or +-i, so both forms are exact
    assert np.array_equal(phase * psi[np.arange(2**n) ^ mask], ref)
    assert np.array_equal(apply_pauli_string(psi, ops), ref)


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    seed=st.integers(0, 2**32 - 1),
)
def test_h0_terms_match_the_bond_streamed_reference(shape, jx, jy, jz, seed):
    geom = GEOMS[shape]
    params = CouplingParams(jx=jx, jy=jy, jz=jz)
    dim = 2**geom.n_sites
    psi = _random_psi(np.random.default_rng(seed), dim)
    # summed in bond order, apply_h0 reproduces the reference bit for bit
    assert np.array_equal(apply_h0(geom, params, psi), reference.apply_h0(geom, params, psi))

    terms = list(h0_terms(geom, params))
    bonds = [(i, j, comp) for i, j, comp in geom.bonds if params.j(comp) != 0.0]
    flips = [(1 << i) | (1 << j) if comp in "xy" else 0 for i, j, comp in bonds]
    assert [mask for mask, _ in terms] == flips
    # the parity signs are the real phases of string_term, bit for bit
    for (i, j, comp), (_, coeff) in zip(bonds, terms):
        phase = string_term(((i, comp), (j, comp)), geom.n_sites)[1]
        assert np.array_equal(coeff, params.j(comp) * phase.real)

    # the oracle keeps one index row per x or y bond, in bond order, less
    # the subnormal couplings it drops; entry k of a row points at
    # psi[k ^ mask] in the source block whose scale is coeff[k]
    k = np.arange(dim)
    kept = [(mask, coeff) for mask, coeff in terms if np.max(np.abs(coeff)) >= np.finfo(float).tiny]
    gen = _Generator(geom, params, DriveSpec.exponential(0.0, 0.0, plaquette=0))
    assert gen.diag.dtype == complex
    assert np.array_equal(gen.diag, sum((c for m, c in kept if m == 0), np.zeros(dim)))
    idx_rows = _index_rows(gen)
    off = [(mask, coeff) for mask, coeff in kept if mask != 0]
    assert len(idx_rows) == len(off)
    for idx, (mask, coeff) in zip(idx_rows, off):
        assert np.array_equal(idx % dim, k ^ mask)
        assert np.array_equal(gen.scales[idx // dim, 0], coeff)
    # one block per signed scale that occurs, each used
    scales = gen.scales[:, 0]
    assert len(set(scales.tolist())) == len(scales)
    assert set((idx_rows // dim).ravel().tolist()) == set(range(len(scales)))


def _index_rows(gen):
    """The generator's index table as one row of dim entries per row."""
    chunks, rows, chunk = gen.table.shape
    return gen.table.transpose(1, 0, 2).reshape(rows, chunks * chunk)


# indices per output chunk, by dim: every index in one chunk, four
# chunks, and 256 (one chunk at 2x2, sixteen at dim 4096)
CHUNKINGS = {"one chunk": lambda dim: dim, "four chunks": lambda dim: dim // 4, "C = 256": lambda dim: 256}


def _chunked_generator(geom, params, drive, chunk):
    """A :class:`_Generator` whose budget gives output chunks of ``chunk``."""
    rows = _Generator(geom, params, drive).table.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        # the chunk buffer is (rows + 1) x chunk complex values
        mp.setattr(oracle, "_CHUNK_BYTES", (rows + 1) * chunk * 16)
        gen = _Generator(geom, params, drive)
    assert gen.chunk == chunk
    return gen


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    b_re=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    b_im=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    chunking=st.sampled_from(sorted(CHUNKINGS)),
    data=st.data(),
)
def test_grouped_kernel_matches_the_reference(shape, jx, jy, jz, b_re, b_im, chunking, data):
    geom = GEOMS[shape]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz)
    drive = DriveSpec.exponential(1.0, 0.0, plaquette=plaquette)
    dim = 2**geom.n_sites
    chunk = CHUNKINGS[chunking](dim)
    gen = _chunked_generator(geom, params, drive, chunk)

    # one row per x or y bond, and the drive row last, chunk-major
    string = drive_string(geom, plaquette)
    tiny = np.finfo(float).tiny
    bonds = [(i, j) for i, j, c in geom.bonds if c in "xy" and abs(params.j(c)) >= tiny]
    assert gen.table.shape == (dim // chunk, len(bonds) + 1, chunk)
    assert gen.buf.shape == (len(bonds) + 2, chunk)

    psi = _random_psi(rng, dim)
    b = complex(b_re, b_im)
    got = gen.apply(psi, b)
    # the drive row's index at k = 0, where every sign is +1, is the
    # string's mask in the block of scale b times the string's constant
    drive_idx = int(gen.table[0, -1, 0])
    assert drive_idx % dim == string_term(string, geom.n_sites)[0]
    assert gen.scales[drive_idx // dim, 0] == b * gen.drive_unit
    assert np.array_equal(got, reference.grouped_apply(geom, params, drive, psi, b, 16 * dim))
    ref = reference.apply_h0(geom, params, psi) + b * reference.apply_pauli_string(psi, string)
    assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


tiny_couplings = st.sampled_from([5e-324, -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny])


@settings(max_examples=60, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=st.one_of(couplings, tiny_couplings),
    jy=st.one_of(couplings, tiny_couplings),
    jz=st.one_of(couplings, tiny_couplings),
    d=amplitudes,
    drive_kind=st.sampled_from(["exponential", "custom"]),
    zero_b=st.booleans(),
    chunking=st.sampled_from(sorted(CHUNKINGS)),
    data=st.data(),
)
def test_signed_kernel_matches_the_coefficient_row_kernel_bit_for_bit(
    shape, jx, jy, jz, d, drive_kind, zero_b, chunking, data
):
    geom = GEOMS[shape]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz)
    dim = 2**geom.n_sites
    omega = data.draw(st.floats(-3.0, 3.0), label="omega")
    t = data.draw(st.floats(0.0, 3.0), label="t")
    samples = d * _random_psi(rng, 7)
    psi = _random_psi(rng, dim)
    psi[rng.integers(0, dim, 4)] = 0.0
    for plaquette in range(geom.n_plaquettes):
        if drive_kind == "custom":
            drive = DriveSpec.custom(np.linspace(0.0, 3.0, 7), samples, plaquette=plaquette)
        else:
            drive = DriveSpec.exponential(d, omega, plaquette=plaquette)
        b = 0j if zero_b else complex(drive.b_of(t))
        gen = _chunked_generator(geom, params, drive, CHUNKINGS[chunking](dim))
        # the diagonal, then the rows in bond order, as with one row per
        # group; equal as numbers: a product with a zero may differ in its
        # sign of zero
        ref = reference.grouped_apply(geom, params, drive, psi, b, 16 * dim)
        assert np.array_equal(gen.apply(psi, b), ref)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
@pytest.mark.parametrize("drive_kind", ["exponential", "custom"])
def test_dim_4096_matvecs_equal_the_64_kib_grouping_bit_for_bit(shape, drive_kind):
    # at dim 4096 a 64 KiB group held one row: the former kernel's sums
    geom = GEOMS[shape]
    dim = 2**geom.n_sites
    rng = np.random.default_rng(sum(shape) + len(drive_kind))
    params = CouplingParams(jx=1.0, jy=-0.8, jz=1.2)
    for plaquette in range(geom.n_plaquettes):
        if drive_kind == "custom":
            drive = DriveSpec.custom(np.linspace(0.0, 3.0, 7), _random_psi(rng, 7), plaquette=plaquette)
        else:
            drive = DriveSpec.exponential(0.3, 0.7, plaquette=plaquette)
        gen = _Generator(geom, params, drive)
        psi = _random_psi(rng, dim)
        b = complex(drive.b_of(1.3))
        assert np.array_equal(gen.apply(psi, b), reference.grouped_apply(geom, params, drive, psi, b, 1 << 16))


@pytest.mark.parametrize("nx", range(2, 7))
@pytest.mark.parametrize("ny", range(2, 7))
def test_no_two_bonds_share_a_site_pair(nx, ny):
    # so no two of the generator's rows share a flip mask, and its rows
    # need no merging to equal one coefficient row per mask
    pairs = {frozenset((i, j)) for i, j, _ in build_lattice(nx, ny).bonds}
    assert len(pairs) == 3 * nx * ny


def _args_2x4():
    return build_lattice(2, 4), CouplingParams(1.0, 0.8, 1.2), DriveSpec.exponential(0.02, 0.5, plaquette=0)


def _tables(gen):
    return [v for v in vars(gen).values() if isinstance(v, np.ndarray)]


def test_2x4_generator_holds_index_rows_and_ket_buffers():
    gen = _Generator(*_args_2x4())
    dim = len(gen.diag)
    rows = 16 + 1  # the x and y bonds, then the drive
    assert gen.table.shape == (dim // gen.chunk, rows, gen.chunk)
    # one source block per signed scale: +1.0 for the x bonds, +-0.8 for
    # the y bonds, +-b for the drive
    blocks = 5
    assert gen.src.shape == (blocks, dim)
    arrays = _tables(gen)
    for a in arrays:
        # no coefficient row: every float or complex table but the source
        # blocks is at most ket-sized
        assert a.dtype.kind == "i" or a is gen.src or a.size <= dim
    index_bytes = sum(a.nbytes for a in arrays if a.dtype.kind == "i")
    assert index_bytes == rows * dim * np.dtype(np.intp).itemsize
    # the complex diagonal, the source blocks, the (rows + 1) x chunk
    # buffer and the column of one scale per block
    assert sum(a.nbytes for a in arrays) - index_bytes == (1 + blocks) * 16 * dim + (rows + 1) * gen.chunk * 16 + blocks * 16


def test_2x4_compile_peaks_within_its_tables_and_one_ket(monkeypatch):
    # the index table is filled in place: stacking its rows first and then
    # copying them into chunks would hold it twice (8.9 MB at 2x4)
    args = _args_2x4()
    _Generator(*args)
    # a compile, not a hit in the cache of the last one
    monkeypatch.setattr(oracle, "_compiled", None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gen = _Generator(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= sum(a.nbytes for a in _tables(gen)) + 16 * len(gen.diag)


def _key_inputs(shape, jx, jy, jz, plaquette, driven, d=0.3, omega=0.7, kind="exponential"):
    """Fresh lattice, couplings and drive: equal inputs, never the same objects."""
    geom = build_lattice(*shape)
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d, omega=omega)
    if kind == "custom":
        drive = DriveSpec.custom(np.linspace(0.0, 3.0, 4), [d, 0.5j * d, -d, d], plaquette=plaquette)
    else:
        drive = DriveSpec.exponential(d if driven else 0.0, omega, plaquette=plaquette)
    return geom, params, drive


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=st.one_of(couplings, tiny_couplings),
    jy=st.one_of(couplings, tiny_couplings),
    jz=st.one_of(couplings, tiny_couplings),
    driven=st.booleans(),
    chunking=st.sampled_from(sorted(CHUNKINGS)),
    data=st.data(),
)
def test_a_cached_compile_equals_a_fresh_one(shape, jx, jy, jz, driven, chunking, data):
    plaquette = data.draw(st.integers(0, GEOMS[shape].n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dim = 2 ** GEOMS[shape].n_sites
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_compiled", None)
        # the chunk buffer of the largest table, 2x3's 18 + 1 rows
        mp.setattr(oracle, "_CHUNK_BYTES", 20 * CHUNKINGS[chunking](dim) * 16)
        first = _Generator(*_key_inputs(shape, jx, jy, jz, plaquette, driven))
        # equal inputs from new objects, a drive of another amplitude,
        # frequency and kind: one key
        args = _key_inputs(shape, jx, jy, jz, plaquette, driven, d=0.1, omega=-0.4,
                           kind="custom" if driven and data.draw(st.booleans(), label="custom") else "exponential")
        hit = _Generator(*args)
        assert hit.table is first.table and hit.diag is first.diag
        # what a matvec writes is each generator's own
        for name in ("scales", "src", "buf"):
            assert not np.shares_memory(getattr(hit, name), getattr(first, name))
        mp.setattr(oracle, "_compiled", None)
        fresh = _Generator(*args)
    assert fresh.table is not hit.table
    assert np.array_equal(hit.diag, fresh.diag) and np.array_equal(hit.table, fresh.table)
    assert (hit.chunk, hit.h0_bound, hit.bound) == (fresh.chunk, fresh.h0_bound, fresh.bound)
    assert np.array_equal(hit.scales, fresh.scales)
    psi = _random_psi(rng, dim)
    b = complex(args[2].b_of(1.3)) if driven else 0j
    ref = reference.grouped_apply(*args, psi, b, 16 * dim)
    assert np.array_equal(hit.apply(psi, b), ref)
    assert np.array_equal(first.apply(psi, b), ref)


@pytest.mark.parametrize(
    "change",
    [
        dict(shape=(3, 2)),  # other bonds on as many sites
        dict(plaquette=1),  # the drive on other sites
        dict(jx=0.5),
        dict(jz=0.0),
        dict(driven=False),
    ],
    ids=["bonds", "drive sites", "jx", "jz zero", "undriven"],
)
def test_any_change_of_the_key_recompiles(monkeypatch, change):
    monkeypatch.setattr(oracle, "_compiled", None)
    base = dict(shape=(2, 3), jx=1.0, jy=0.8, jz=1.2, plaquette=0, driven=True)
    first = _Generator(*_key_inputs(**base))
    second = _Generator(*_key_inputs(**{**base, **change}))
    assert second.table is not first.table
    assert oracle._compiled[1].table is second.table


def test_the_chunk_budget_is_part_of_the_key(monkeypatch):
    monkeypatch.setattr(oracle, "_compiled", None)
    args = _key_inputs((2, 3), 1.0, 0.8, 1.2, 0, True)
    first = _Generator(*args)
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", oracle._CHUNK_BYTES // 2)
    second = _Generator(*args)
    assert second.table is not first.table and second.chunk == first.chunk // 2


def test_couplings_equal_after_the_subnormal_flush_share_a_compile(monkeypatch):
    monkeypatch.setattr(oracle, "_compiled", None)
    first = _Generator(*_key_inputs((2, 2), 1.0, 0.0, 1.2, 0, True))
    second = _Generator(*_key_inputs((2, 2), 1.0, -1e-310, 1.2, 0, True))
    assert second.table is first.table


def test_the_cache_holds_one_lattice_and_its_arrays_are_read_only(monkeypatch):
    monkeypatch.setattr(oracle, "_compiled", None)
    compiling = []
    real = oracle._compile_tables

    def checked(*args):
        # the last key's tables are dropped before the next are built
        compiling.append(oracle._compiled)
        return real(*args)

    monkeypatch.setattr(oracle, "_compile_tables", checked)
    gen = _Generator(*_key_inputs((2, 2), 1.0, 0.8, 1.2, 0, True))
    with pytest.raises(ValueError, match="read-only"):
        gen.table[0, 0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        gen.diag[0] = 0.0
    assert not any(diag.flags.writeable for _, diag, _ in gen.chunks)
    # take copies read-only indices on every call, so the matvec's index
    # views are of the table's writable memory
    assert all(idx.flags.writeable and np.shares_memory(idx, gen.table) for _, _, idx in gen.chunks)
    old = weakref.ref(gen.table)
    del gen
    _Generator(*_key_inputs((2, 3), 1.0, 0.8, 1.2, 0, True))
    gc.collect()
    assert old() is None
    assert compiling == [None, None]


def test_string_term_rejects_repeated_site():
    with pytest.raises(ValueError, match="repeats a site"):
        string_term([(0, "x"), (1, "z"), (0, "y")], 3)


def test_apply_pauli_string_rejects_repeated_site():
    with pytest.raises(ValueError, match="repeats a site"):
        apply_pauli_string(np.ones(8, dtype=complex), [(2, "z"), (2, "x")])


def test_string_term_rejects_bad_site_and_component():
    with pytest.raises(ValueError, match="out of range"):
        string_term([(3, "x")], 3)
    with pytest.raises(ValueError, match="unknown Pauli component"):
        string_term([(0, "w")], 3)
