"""Two-level Bloch dynamics in the rotating frame.

State is the Bloch vector r = (u, v, w), a float array of shape (3,) or,
for a stack of trajectories, (n, 3): u, v are the coherences, w the
inversion, with w = -1 the lower level |0> and w = +1 the upper level
|1>.  Under a pulse program with Rabi frequency omega(t) and detuning
delta(t) = omega_drive - omega_atom,

    du/dt = -delta(t) v
    dv/dt =  delta(t) u - omega(t) w
    dw/dt =  omega(t) v

i.e. precession about the torque vector (omega(t), 0, delta(t)).
Population transfer to |1> is (1 + w) / 2.

The motion is a pure rotation, and it is propagated as one.  A pass of
n uniform steps samples the pulse, as arrays, at the three
Gauss-Legendre nodes of every step and forms each step's sixth-order
Magnus vector, whose commutators are cross products
(Blanes, Casas & Ros, BIT 40, 434 (2000)).  A trajectory's detuning
offset enters that vector only through a1_z, as a polynomial of degree
<= 3, so its coefficients are formed once per step for all
trajectories, and one matrix product of them with the powers of every
trajectory's offset evaluates a block of steps.  Each step becomes an
SU(2) Cayley-Klein pair (a, b); the pairs are composed by pairwise
reduction and rotate the initial vectors.  The blocks are powers of two
of at most 2^12 steps, and each block's steps are sampled in
bit-reversed order, so that every level of the reduction multiplies the
upper half of the block by the lower half: two contiguous slices,
whatever the number of trajectories.  The steps are sampled and their
coefficients formed a chunk of 2^12 steps, whole blocks, at a time.  The
chunk's samples and coefficients and the blocks' stacks lie in one
workspace that a call allocates once and all its passes share; beyond
it a pass allocates only the pulse samples and Magnus temporaries of one
chunk, a chunk's step order and per-trajectory vectors.

A trajectory may also have a time scale c: it then evolves under
c (omega(t), 0, delta(t) + offset), the pulse stretched to c times its
duration.  Every input of the Magnus vector is linear in the step width,
so a step at scale c is the step of width c h.  A call sorts its
trajectories by scale once; a pass samples each chunk once for all its
scales, forms every scale's coefficients in one evaluation and gives
each scale's contiguous columns their own matrix product.  With one
scale, as every caller but the transport curve has, a call sorts
nothing, and a scale of 1 gives the width h itself, so its passes give
the bits they gave without scales.

Each trajectory has its own step count (step doubling; Hairer, Norsett
& Wanner, Solving ODEs I, II.4).  It starts at the smallest power of
two, at least 16, that takes two steps or more per half-turn of the
trajectory (its total rotation angle over pi, from the torque at 64
points), and doubles until |r_n - r_n/2| / 63, the error estimate of
the n-step state of a sixth-order scheme, meets the tolerance
1e-12 + 1e-9 max |r|, with max |r| over the whole stack; passes of the
same step count run together.  With coarser steps the estimate was
found to miss the error by up to three orders of magnitude.  A pass may
take at most 2^20 steps; a pulse that would need more raises
IntegrationError before that pass is sampled, and so does the first
error estimate that is not finite.  A call raises IntegrationError
before any pass runs when the first passes of its trajectories at one
time scale would take more than 2^24 steps together.

``evolve_offsets`` propagates a whole family of trajectories that share
a pulse but differ by a constant detuning offset, and by a time scale, in
shared passes, which is how detuning scans and transport curves run.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import IntegrationError
from .pulses import PulseProgram

__all__ = [
    "evolve_offsets",
    "detuning_spectrum",
]

# the lower level |0>, the start of every trajectory not given one
_GROUND = np.array([0.0, 0.0, -1.0])

# Gauss-Legendre nodes of the sixth-order Magnus step, as fractions of it
_NODES = np.array([0.5 - 0.1 * math.sqrt(15.0), 0.5, 0.5 + 0.1 * math.sqrt(15.0)])
# steps x trajectories composed per vectorised block; bounds the memory
_CHUNK = 2**15
# steps sampled, and turned into Magnus coefficients, at a time; no block
# has more
_STEPS = 2**12
# real rows of _STEPS elements that one chunk of steps works in: sample
# times 3, samples 6, coefficients 12, step indices 1 (see _coefficients)
_ROWS = 22
# work budget of a pass: the most steps it may take
_MAX_STEPS = 2**20
# work budget of a call, per time scale: the most steps the first passes
# of its trajectories at one scale may take together (2^24 take about
# 1.5 s on 2 CPUs)
_MAX_MEMBER_STEPS = 2**24
# the error estimate of each returned state meets _ABS_TOL + _REL_TOL * max |r|
_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _sample(pulse: PulseProgram, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rabi and detuning at the times t into out[0] and out[1], each shaped
    like t.  Raises IntegrationError naming the earliest time at which
    either is not finite."""
    out[0] = pulse.rabi(t)
    out[1] = pulse.detuning(t)
    # the sum is finite when every value is; when finite values overflow
    # it, the closer look finds nothing
    if not np.isfinite(np.add.reduce(out, axis=None)):
        bad = ~np.isfinite(out).all(axis=0)
        if np.any(bad):
            raise IntegrationError(f"non-finite pulse values at t = {t[bad].min()}")
    return out


def _need(pulse: PulseProgram, offsets: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Work each trajectory asks, in steps of at most half a turn: its
    total rotation angle over pi (from the torque at 64 points), times its
    time scale."""
    t = (np.arange(64) + 0.5) * (pulse.duration / 64)
    om, de = _sample(pulse, t, np.empty((2, 64)))
    n = offsets.size
    angle = np.empty(n)
    # at most _STEPS trajectories at a time, so that the torque table stays
    # within 2 MB; equal parts, since numpy would sum a lone trajectory's
    # column pairwise instead of row by row
    parts = max(1, -(-n // _STEPS))
    part = max(1, -(-n // parts))
    table = np.empty(64 * part)
    for lo in range(0, n, part):
        cols = offsets[lo : lo + part]
        torque = np.add(de[:, None], cols, out=table[: 64 * cols.size].reshape(64, -1))
        np.hypot(om[:, None], torque, out=torque)
        # row by row, in sample order
        np.add.reduce(torque, axis=0, out=angle[lo : lo + part])
    # a very long pulse or a very large scale overflows to inf, which the
    # budgets refuse
    with np.errstate(over="ignore"):
        angle *= pulse.duration / (64 * math.pi)
        angle *= scales
    return angle


def _initial_steps(need: np.ndarray) -> np.ndarray:
    """First step count of each trajectory: the smallest power of two
    >= 16 that takes two steps or more per half-turn of it.  Raises
    IntegrationError when a step-doubling pair would exceed the budget."""
    most = max(16.0, 2.0 * float(np.max(need)))
    if not 2.0 * most <= _MAX_STEPS:
        raise IntegrationError(
            f"step budget exceeded: the pulse needs about {most:.3g} "
            f"steps, more than {_MAX_STEPS // 2}"
        )
    return 2 ** np.ceil(np.log2(np.maximum(16.0, 2.0 * need))).astype(int)


def _magnus6(ax, az, bx, bz, cx, cz, out):
    """Sixth-order Magnus vector of each step, as polynomials in x.

    From the Gauss-node terms

        a1 = h T(t_2),  a2 = sqrt(15) h / 3 (T_3 - T_1),
        a3 = 10 h / 3 (T_3 - 2 T_2 + T_1),

    here (ax, 0, az + x), (bx, 0, bz) and (cx, 0, cz), where x = h * offset
    is the member's share of a1_z (the offset cancels from a2 and a3),

        C1 = a1 x a2,  C2 = -a1 x (2 a3 + C1) / 60,
        theta = a1 + a3 / 12 + (-20 a1 - a3 + C1) x (a2 + C2) / 240.

    Writes the coefficients of theta_x (degree 2, zero cubic), theta_y and
    theta_z (degree 3) in x, lowest power first, into out, a (3, steps, 4)
    array: out[i, s] @ (1, x, x^2, x^3) is theta_i of step s.
    """
    g0 = az * bx - ax * bz  # C1_y = g0 + bx x
    s0 = (ax * cz - az * cx) / 30.0  # C2_y = s0 - cx / 30 x
    f0 = bz - ax * g0 / 60.0  # (a2 + C2)_z = f0 + f1 x
    f1 = -ax * bx / 60.0
    p0 = bx + az * g0 / 60.0  # (a2 + C2)_x = p0 + p1 x + p2 x^2
    p1 = (az * bx + g0) / 60.0
    p2 = bx / 60.0
    e0 = -20.0 * az - cz  # (-20 a1 - a3 + C1)_z = e0 - 20 x
    ex = -20.0 * ax - cx
    theta_x, theta_y, theta_z = out.transpose(0, 2, 1)
    theta_x[0] = ax + cx / 12.0 + (g0 * f0 - e0 * s0) / 240.0
    theta_x[1] = (g0 * f1 + bx * f0 + e0 * cx / 30.0 + 20.0 * s0) / 240.0
    theta_x[2] = (bx * f1 - 2.0 * cx / 3.0) / 240.0
    theta_x[3] = 0.0
    theta_y[0] = (e0 * p0 - ex * f0) / 240.0
    theta_y[1] = (e0 * p1 - 20.0 * p0 - ex * f1) / 240.0
    theta_y[2] = (e0 * p2 - 20.0 * p1) / 240.0
    theta_y[3] = -20.0 * p2 / 240.0
    theta_z[0] = az + cz / 12.0 + (ex * s0 - g0 * p0) / 240.0
    theta_z[1] = 1.0 - (ex * cx / 30.0 + g0 * p1 + bx * p0) / 240.0
    theta_z[2] = -(g0 * p2 + bx * p1) / 240.0
    theta_z[3] = -bx * p2 / 240.0


def _cayley_klein(q, out, scratch):
    """SU(2) pairs (a, b) of the rotations by |theta| about theta = 4 q.

    U = [[a, b], [-b*, a*]] = cos(phi/2) - i sin(phi/2) n.sigma, so for the
    unit quaternion (w, x, y, z) of the rotation a = w - i z, b = -y - i x.
    With r = phi/4 and t = tan(r), cos(2r) = (1 - t^2) / (1 + t^2) and
    sin(2r) = 2t / (1 + t^2): one tangent instead of a sine and a cosine,
    and |a|^2 + |b|^2 = 1 whatever the rounding of t.  q is (3, ...), the
    pairs go to out (2, ...) and scratch is three contiguous real arrays
    shaped like q[0]: every intermediate stays in them, and the strided
    real and imaginary parts of out are only written, once each.
    """
    r, t, u = scratch
    a, b = out
    # |q|^2, summed over the components in order; for a single element
    # einsum would take a dot product, which sums in another order
    if r.size > 1:
        np.einsum("i...,i...->...", q, q, out=r)
    else:
        np.add(q[0] * q[0] + q[1] * q[1], q[2] * q[2], out=r)
    np.sqrt(r, out=r)
    np.tan(r, out=t)
    np.multiply(t, t, out=u)
    u += 1.0
    np.divide(-2.0, u, out=u)
    # k = -sin(2r) / r in t; q = 0 where r = 0, so any finite value will do
    t *= u
    t /= np.maximum(r, 1e-300, out=r)
    np.subtract(-1.0, u, out=a.real)
    np.multiply(t, q[2], out=a.imag)
    np.multiply(t, q[1], out=b.real)
    np.multiply(t, q[0], out=b.imag)


def _ck_mul(a1, b1, a2, b2, out, tmp):
    """Product U1 U2 of SU(2) pairs, the rotation U2 followed by U1, into
    out[0], out[1]; tmp is scratch shaped like them."""
    np.multiply(a1, a2, out=out[0])
    np.multiply(b1, np.conjugate(b2, out=tmp), out=tmp)
    out[0] -= tmp
    np.multiply(a1, b2, out=out[1])
    np.multiply(b1, np.conjugate(a2, out=tmp), out=tmp)
    out[1] += tmp


def _bit_reversed(k: int) -> np.ndarray:
    """The bit-reversal permutation of range(k), k a power of two <= 2^16:
    the bits of each 16-bit index, last first, shifted down."""
    bits = np.unpackbits(np.arange(k, dtype="<u2").view(np.uint8), bitorder="little")
    perm = np.packbits(bits, bitorder="big").view(">u2") >> (17 - k.bit_length())
    return perm.astype(np.intp)


def _compose(pairs):
    """Product U[k-1] ... U[0] of k = 2^p steps by pairwise reduction.

    (pairs[0], pairs[1]) are (k, m) stacks holding step _bit_reversed(k)[i]
    in row i.  In that order the pairs of steps (2j, 2j + 1) sit in rows i
    and i + k/2, and their products again come out in bit-reversed order
    of j: every level multiplies the upper half of the stack by the lower
    half, two contiguous slices, and the tree is that of multiplying
    neighbours in step order.  pairs[2:4] is scratch, and each level's
    temporary is the half of it that the level does not write.  Returns
    views into pairs.
    """
    src, dst = pairs[0:2], pairs[2:4]
    k = pairs.shape[1]
    while k > 1:
        h = k // 2
        _ck_mul(src[0, h:k], src[1, h:k], src[0, :h], src[1, :h], dst[:, :h], dst[0, h:k])
        src, dst = dst, src
        k = h
    return src[0, 0], src[1, 0]


def _rotate(a, b, r):
    """Rotate the rows of r (m, 3) by the SU(2) pairs (a, b) of shape (m,)."""
    norm = np.sqrt(a.real**2 + a.imag**2 + b.real**2 + b.imag**2)
    w, x, y, z = a.real / norm, -b.imag / norm, -b.real / norm, -a.imag / norm
    ru, rv, rw = r.T
    tu = 2.0 * (y * rw - z * rv)
    tv = 2.0 * (z * ru - x * rw)
    tw = 2.0 * (x * rv - y * ru)
    out = np.empty_like(r)
    out[:, 0] = ru + w * tu + y * tw - z * tv
    out[:, 1] = rv + w * tv + z * tu - x * tw
    out[:, 2] = rw + w * tw + x * tv - y * tu
    return out


def _workspace(m: int):
    """Buffers for every pass over at most m members: _ROWS real rows of
    _STEPS elements for a chunk of steps, and six real and four complex
    rows of max(_CHUNK, m) elements for a block.  One set serves a whole
    call, so its passes fault in no fresh pages; it is one allocation, so
    that malloc keeps it, once freed, for the next call.  Each part starts
    on a 64-byte cache line, wherever malloc placed the allocation: on the
    heap it may start on any 16-byte boundary, and a fit's passes ran 4-8%
    slower on a workspace 16, 32 or 48 bytes past a line.  A pass's Magnus
    temporaries, each a row of one chunk, stay outside it."""
    size = -(-max(_CHUNK, m) // 8) * 8
    a = _ROWS * _STEPS
    b = a + 6 * size
    raw = np.empty(b + 8 * size + 8)
    skip = -raw.ctypes.data % 64 // 8
    buf = raw[skip : skip + b + 8 * size]
    return buf[:a].reshape(_ROWS, _STEPS), buf[a:b], buf[b:].view(complex)


def _blocks(n: int, m: int) -> list[int]:
    """Sizes of the blocks of a pass of n steps over m members, in step
    order: the largest power of two with at most _STEPS steps and at most
    _CHUNK steps x members (or one step) as often as n holds it, then one
    block for each set bit of the rest.  Every block is a power of two
    that divides _STEPS, and none is larger than the one before, so no
    block crosses a multiple of _STEPS."""
    block = 1 << (min(n, _STEPS, max(1, _CHUNK // m)).bit_length() - 1)
    rest = n % block
    return [block] * (n // block) + [
        1 << j for j in reversed(range(block.bit_length() - 1)) if rest >> j & 1
    ]


def _step_order(sizes: list[int]) -> np.ndarray:
    """Step index of each row of a pass taken in blocks of these sizes:
    block after block, each block's steps in bit-reversed order."""
    block = sizes[0]
    perm = _bit_reversed(block)
    lo = sizes.count(block) * block
    parts = [(np.arange(0, lo, block)[:, None] + perm).ravel()]
    for k in sizes[lo // block :]:
        # the first k entries of perm are _bit_reversed(k) times block / k
        parts.append(lo + perm[:k] // (block // k))
        lo += k
    return np.concatenate(parts)


def _coefficients(pulse: PulseProgram, steps: np.ndarray, h: float, rows: np.ndarray,
                  scales) -> np.ndarray:
    """Magnus coefficients (see _magnus6) of the steps of width h whose
    indices, as floats, are steps, at each of the time scales, formed in
    rows, the chunk rows of a _workspace.  At time scale c a step is c h
    wide, and every input of _magnus6 is linear in that width; a scale of
    1 gives the bits of the width h itself.  The steps of all scales run
    through _magnus6 as one flat row.  Returns a (3, len(scales),
    steps.size, 4) array, a view into rows where it fits there."""
    c = steps.size
    t = rows[0:3].reshape(-1)[: 3 * c].reshape(c, 3)
    np.add(steps[:, None], _NODES, out=t)
    t *= h
    # rabi and detuning at the three nodes of every step
    om, de = _sample(pulse, t, rows[3:9].reshape(-1)[: 6 * c].reshape(2, c, 3))
    # each scale's step width, and the weights of a2 and a3, as columns
    hs = h * np.array(scales)[:, None]
    k2 = math.sqrt(15.0) * hs / 3.0
    k3 = 10.0 * hs / 3.0
    terms = (
        hs * om[:, 1],
        hs * de[:, 1],
        k2 * (om[:, 2] - om[:, 0]),
        k2 * (de[:, 2] - de[:, 0]),
        k3 * (om[:, 2] - 2.0 * om[:, 1] + om[:, 0]),
        k3 * (de[:, 2] - 2.0 * de[:, 1] + de[:, 0]),
    )
    size = 12 * len(scales) * c
    free = rows[9:21].reshape(-1)
    coef = (free[:size] if size <= free.size else np.empty(size)).reshape(3, -1, 4)
    _magnus6(*(x.reshape(-1) for x in terms), coef)
    return coef.reshape(3, len(scales), c, 4)


def _rotation_pass(pulse: PulseProgram, offsets: np.ndarray, states: np.ndarray, n: int,
                   work, groups) -> np.ndarray:
    """Final states after n uniform sixth-order Magnus steps.

    groups is a sequence of (scale, count): count consecutive members at
    that time scale.  The pass runs in blocks of steps (_blocks), each one
    stack of every member's steps in bit-reversed order, so that every
    level of _compose multiplies the upper half of the stack by the lower
    half.  The steps are sampled and turned into every group's
    coefficients a chunk of whole blocks, at most _STEPS rows for all
    groups together, at a time; each group's columns of a block take their
    own matrix product.  The block products multiply the state in step
    order.  Everything runs in work, a _workspace for at least
    offsets.size members, which the caller makes once per call and shares
    among its passes.
    """
    m = offsets.size
    h = pulse.duration / n
    chunk, real, pairs = work
    scales = [scale for scale, _ in groups]
    # each group's columns and its rows x^0..x^3, with the quarter of theta
    # folded in
    cols, powers, lo = [], [], 0
    for scale, count in groups:
        cols.append(slice(lo, lo + count))
        powers.append(0.25 * (scale * h * offsets[lo : lo + count]) ** np.arange(4.0)[:, None])
        lo += count
    # the product of the blocks so far, a spare for the next and scratch
    running = np.zeros((5, m), dtype=complex)
    acc, nxt, tmp = running[0:2], running[2:4], running[4]
    acc[0] = 1.0
    sizes = _blocks(n, m)
    per_chunk = max(1, _STEPS // (sizes[0] * len(groups)))
    key, start = None, 0
    for i in range(0, len(sizes), per_chunk):
        blocks = sizes[i : i + per_chunk]
        if blocks != key:
            key, order = blocks, _step_order(blocks)
        steps = np.add(order, start, out=chunk[-1, : order.size])
        coefs = _coefficients(pulse, steps, h, chunk, scales)
        start += order.size
        lo = 0
        for k in blocks:
            stack = real[: 6 * k * m].reshape(6, k, m)
            for g, (col, power) in enumerate(zip(cols, powers)):
                np.matmul(coefs[:, g, lo : lo + k], power, out=stack[:3, :, col])
            lo += k
            prods = pairs[: 4 * k * m].reshape(4, k, m)
            _cayley_klein(stack[:3], prods[:2], stack[3:])
            _ck_mul(*_compose(prods), *acc, nxt, tmp)
            acc, nxt = nxt, acc
    return _rotate(*acc, states)


def _rotate_adaptive(pulse: PulseProgram, offsets: np.ndarray, states: np.ndarray,
                     first: np.ndarray, levels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each trajectory runs passes of n, 2n, 4n, ... steps from its own
    first step count (first) until its own error estimate meets the
    tolerance, and keeps the last of them.

    counts[g] consecutive trajectories have time scale levels[g].  Passes
    of the same step count run together, their members in trajectory
    order when there is more than one scale, so that each scale's stay
    contiguous.  The tolerance scale max |r| is taken over the whole
    stack; rotations keep every |r|, so it is that of the initial states.
    """
    tol = _ABS_TOL + _REL_TOL * float(np.max(np.linalg.norm(states, axis=1)))
    work = _workspace(offsets.size)
    out = np.empty_like(states)
    # each trajectory's group, where there is more than one
    group_of = np.repeat(np.arange(levels.size), counts) if levels.size > 1 else None
    active = np.empty(0, dtype=int)  # trajectories with a coarse state
    coarse = np.empty((0, 3))
    n = int(first.min())
    while True:
        members = np.concatenate([active, np.flatnonzero(first == n)])
        if members.size:
            if group_of is None:
                fine = _rotation_pass(pulse, offsets[members], states[members], n, work,
                                      ((levels[0], members.size),))
            else:
                order = np.argsort(members)
                ranked = members[order]
                per_level = np.bincount(group_of[ranked], minlength=levels.size)
                fine = np.empty((members.size, 3))
                fine[order] = _rotation_pass(
                    pulse, offsets[ranked], states[ranked], n, work,
                    [(levels[g], per_level[g]) for g in np.flatnonzero(per_level)],
                )
            # a sixth-order error falls 2^6-fold per halving of the step,
            # so the n-step error is about |r_n - r_n/2| / 63
            err = np.linalg.norm(fine[: active.size] - coarse, axis=1) / 63.0
            if not np.all(np.isfinite(err)):
                raise IntegrationError(
                    f"error estimate is not finite after a pass of {n} steps"
                )
            done = np.concatenate([err <= tol, np.zeros(members.size - active.size, bool)])
            out[members[done]] = fine[done]
            active, coarse = members[~done], fine[~done]
        if not active.size and n >= first.max():
            return out
        n *= 2
        if n > _MAX_STEPS:
            raise IntegrationError(
                f"step budget of {_MAX_STEPS} steps reached with error "
                f"estimate {float(np.max(err)):.2e} > {tol:.2e}"
            )


def evolve_offsets(
    pulse: PulseProgram,
    delta_offsets,
    initial_states=None,
    scales=None,
) -> np.ndarray:
    """Propagate one trajectory per detuning offset, as a stacked system.

    Trajectory i sees the torque scales[i] * (rabi(t), 0, detuning(t) +
    delta_offsets[i]) for t in [0, pulse.duration], which is the pulse
    stretched to scales[i] * pulse.duration; the trajectories run in one
    rotation pass per step count (see the module docstring).

    Parameters
    ----------
    delta_offsets : array of shape (n,)
        Constant additions to the pulse detuning, rad/s.
    initial_states : array of shape (n, 3) or (3,), optional
        Per-trajectory start vectors; defaults to the ground state.
    scales : array of shape (n,), optional
        Per-trajectory time scales, finite and positive; default 1.

    Returns
    -------
    ndarray of shape (n, 3), final Bloch vectors.
    """
    offsets = np.atleast_1d(np.asarray(delta_offsets, dtype=float))
    if not np.all(np.isfinite(offsets)):
        raise ValueError("detuning offsets must be finite")
    n = offsets.size
    if initial_states is None:
        states = np.tile(_GROUND, (n, 1))
    else:
        states = np.asarray(initial_states, dtype=float)
        if states.shape == (3,):
            states = np.tile(states, (n, 1))
        if states.shape != (n, 3):
            raise ValueError(f"initial_states must have shape ({n}, 3)")
    if scales is None:
        scale = np.ones(n)
    else:
        scale = np.asarray(scales, dtype=float)
        if scale.shape != (n,):
            raise ValueError(f"scales must have shape ({n},)")
        if not np.all((scale > 0.0) & (scale < np.inf)):
            raise ValueError("time scales must be finite and positive")
    if n == 0:
        return states
    # trajectories grouped by time scale, once for the whole call
    order = None
    if np.all(scale == scale[0]):
        levels, counts = scale[:1], np.array([n])
    else:
        order = np.argsort(scale, kind="stable")
        offsets, states, scale = offsets[order], states[order], scale[order]
        starts = np.flatnonzero(np.r_[True, scale[1:] != scale[:-1]])
        levels, counts = scale[starts], np.diff(np.r_[starts, n])
    first = _initial_steps(_need(pulse, offsets, scale))
    # the budget holds for each time scale on its own
    totals = np.add.reduceat(first, np.cumsum(counts) - counts)
    for level, count, total in zip(levels, counts, totals):
        if total > _MAX_MEMBER_STEPS:
            at = f" at time scale {level:.6g}" if levels.size > 1 else ""
            raise IntegrationError(
                f"work budget exceeded: the first passes of the {count} trajectories{at} "
                f"take {total} steps together, more than {_MAX_MEMBER_STEPS}"
            )
    final = _rotate_adaptive(pulse, offsets, states, first, levels, counts)
    if order is None:
        return final
    out = np.empty_like(final)
    out[order] = final
    return out


def detuning_spectrum(pulse, delta_c_values) -> np.ndarray:
    """Transfer probability versus central detuning (rad/s), ground start.

    The pulse must be a dataclass with a delta_c field (the swept passage
    pulse is); each grid value replaces it.  The pulse runs with delta_c =
    0 and the grid values are its trajectories' offsets, so its own
    delta_c never enters.  Returns P1 with the grid's shape.
    """
    grid = np.asarray(delta_c_values, dtype=float)
    final = evolve_offsets(replace(pulse, delta_c=0.0), np.atleast_1d(grid))
    p1 = 0.5 * (1.0 + final[:, 2])
    return p1.reshape(grid.shape) if grid.ndim else float(p1[0])
