"""Dormand-Prince 8(5,3) stepper with dense output and terminal events.

``integrate`` is the explicit Runge-Kutta pair DOP853 of Hairer, Norsett
& Wanner, *Solving Ordinary Differential Equations I* (2nd ed.), Sec. II.5
(the method and its 7th-order continuous extension) and Sec. II.10 (the
dense output), driven exactly as ``scipy.integrate.solve_ivp`` drives it
with ``method="DOP853"``: the same initial-step rule, the same step
controller and error norm, the same step floor, and the same dense output.
A shot therefore takes the same steps and makes the same right-hand-side
calls with or without scipy installed.

The state is a coupled leading block followed by a trailing quadrature
block of running integrals, whose derivatives read only t and the
leading block and feed nothing back.  The leading block's right-hand side
writes each stage's derivative in place into its row of the stage matrix;
the quadrature block's derivatives are evaluated for all of a step's
stages in one call after the stage loop, from the stage states kept in a
(16, n) buffer.  A run without quadratures is the same loop with a
zero-width block.

The leading block may itself be second order, positions x and velocities
v with x' = v: the stepper then copies each stage's x' from that stage
state's v, and the right-hand side reads only x and writes only v'.  The
steps and their bits are those of the same leading block evaluated whole.

The stepper integrates forward only (t1 > t0) and supports terminal events
with direction -1, read as bounds (``solve_ivp`` reads them as crossings
only): a start where an event g reads <= 0 is the whole run.  Otherwise
g, which then reads > 0, is read once per accepted step and fires on the
first step at whose end it reads <= 0; its root, bisected on the step's
dense output to 4 machine epsilons on the side where g has not fired, is
the run's last sample.

The step loop evaluates no interpolant.  A step that holds samples or
an event forms the three extra stages of its 7th-order interpolant (Sec.
II.6) as it goes and records what the interpolant reads; after the run
every sample is evaluated in one elementwise batch, with the bits of its
own step's interpolant evaluated alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# DOP853 tableau: 12 stages, 16 with the dense-output extension, interpolant
# power 7.
# Copied from SciPy, scipy/integrate/_ivp/dop853_coefficients.py, under the
# SciPy licence:
#
#   Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions
#   are met:
#
#   1. Redistributions of source code must retain the above copyright
#      notice, this list of conditions and the following disclaimer.
#
#   2. Redistributions in binary form must reproduce the above
#      copyright notice, this list of conditions and the following
#      disclaimer in the documentation and/or other materials provided
#      with the distribution.
#
#   3. Neither the name of the copyright holder nor the names of its
#      contributors may be used to endorse or promote products derived
#      from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
# ---------------------------------------------------------------------------

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# end of the copied tableau
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps

SAFETY = 0.9  # multiplies the asymptotically optimal step factor
MIN_FACTOR = 0.2  # largest step decrease after a rejected step
MAX_FACTOR = 10.0  # largest step increase after an accepted step
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order 7 + 1)

FINISHED = "finished"
EVENT = "event"
STEP_UNDERFLOW = "step_underflow"

_MESSAGES = {
    FINISHED: "The solver successfully reached the end of the integration interval.",
    EVENT: "A termination event occurred.",
    STEP_UNDERFLOW: "Required step size is less than spacing between numbers.",
}

_N_EXTRA = N_STAGES_EXTENDED - N_STAGES - 1  # rhs calls a dense output adds

# tableau rows as (stage, row, node): stage s combines stages 0..s-1
_STAGES = [(s, A[s, :s], float(C[s])) for s in range(1, N_STAGES)]
_EXTRA_STAGES = [
    (s, A[s, :s], float(C[s])) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)
]


@dataclass(frozen=True)
class SolverStats:
    """What one integration cost and why it stopped.  Equality and hash
    leave out ``wall_s``, which varies from run to run."""

    nfev: int  # right-hand-side evaluations, dense-output stages included
    n_accepted: int  # accepted steps
    n_rejected: int  # rejected trial steps
    message: str
    # wall-clock seconds the integration took
    wall_s: float = field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        """The counts only, so payloads that embed them stay reproducible
        (``wall_s`` varies from run to run)."""
        return {
            "nfev": self.nfev,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
        }


@dataclass
class Solution:
    """Samples at the requested times plus how the integration ended.

    ``y[:, k]`` is the state at ``t[k]``; ``t`` holds the ``t_eval`` points
    up to where the integration stopped, in an array of its own; the
    samples are evaluated after the run, in one batch.  When a terminal
    event fired, ``event`` is its index and the last column its root and
    state.
    """

    t: np.ndarray
    y: np.ndarray
    status: str  # FINISHED | EVENT | STEP_UNDERFLOW
    event: Optional[int]
    stats: SolverStats


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t1, rtol, atol) -> float:
    """Starting step of Hairer, Norsett & Wanner, Sec. II.4 (one rhs call)."""
    interval_length = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, interval_length)


def _error_norm(KT: np.ndarray, h: float, scale: np.ndarray) -> float:
    """RMS norm of the blended 5th/3rd-order error estimate, Sec. II.10,
    from the transposed stages 0..12, KT (n, 13)."""
    err5 = KT.dot(E5)
    err5 /= scale
    err3 = KT.dot(E3)
    err3 /= scale
    # squared through sqrt, rounding as scipy's np.linalg.norm(...)**2 does
    n5 = math.sqrt(err5.dot(err5))
    n3 = math.sqrt(err3.dot(err3))
    err5_norm_2 = n5 * n5
    err3_norm_2 = n3 * n3
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


def _no_quadrature(ts, ys, out) -> None:
    """The right-hand side of a zero-width quadrature block."""


class _Stages:
    """The stage matrix K of one run, and the stage states its quadrature
    block is evaluated from.

    Row s of K is stage s's derivative.  Its leading m columns are written
    as the stage is formed: the first p (x' = v) copied from the stage
    state's v, the rest by ``fun``.  Its trailing columns are written by
    one ``quad`` call per group of stages, once the group's states are in
    ``Z``.  While a group is formed, the trailing columns of its earlier
    rows are those of an earlier step, so only the leading block of a
    stage state in ``Z`` is that stage's; the trailing block is never read.
    """

    def __init__(self, fun, quad, n: int, m: int, p: int):
        self.fun, self.quad, self.m, self.p = fun, quad, m, p
        # zeros, not empty: a stale trailing entry is read into a stage
        # state's unread trailing block, and should be a number
        self.K = K = np.zeros((N_STAGES_EXTENDED, n))
        # KT[s] @ a combines stages < s
        self.KT = KT = [K[:s].T for s in range(N_STAGES_EXTENDED)]
        Z = np.zeros((N_STAGES_EXTENDED, n))
        # per stage: what fun reads (x, or the whole state when p = 0) and
        # writes, and the x' columns with the v they copy
        rows = [(a, c, KT[s], Z[s], Z[s, :p] if p else Z[s], K[s, p:m],
                 K[s, :p], Z[s, p:2 * p])
                for s, a, c in (*_STAGES, *_EXTRA_STAGES)]
        k, e = len(_STAGES), N_STAGES + 1
        self.step = (rows[:k], Z[1:N_STAGES], K[1:N_STAGES, m:])  # stages 1..11
        self.dense = (rows[k:], Z[e:], K[e:, m:])  # the dense output's 13..15

    def derivative(self, t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The derivative at (t, y), written into ``out`` and returned."""
        p, m = self.p, self.m
        out[:p] = y[p : 2 * p]
        self.fun(t, y[:p] if p else y, out[p:m])
        self.quad([t], y[None], out[None, m:])
        return out

    def fill(self, group, t: float, h: float, y: np.ndarray) -> None:
        """Form the stages of ``group`` (``step`` or ``dense``) from the
        state y at t, with step h."""
        rows, Z, KQ = group
        fun, p = self.fun, self.p
        ts = []
        for a, c, KTs, z, x, out, dx, v in rows:
            # z = y + h (K^T a), formed in place with the same roundings
            KTs.dot(a, z)
            z *= h
            z += y
            tz = t + c * h
            if p:
                dx[...] = v
            fun(tz, x, out)
            ts.append(tz)
        self.quad(ts, Z, KQ)


def _dense_step(stages: _Stages, t_old, t, y_old, y):
    """What the 7th-order interpolant over the accepted step [t_old, t]
    reads: (t_old, h, y_old, y, f at both ends (2, n), D K (4, n)).  The
    step's three extra stages are formed here, in K."""
    h = t - t_old
    stages.fill(stages.dense, t_old, h, y_old)
    K = stages.K
    return t_old, h, y_old, y, K[[0, N_STAGES]], np.dot(D, K)


def _interpolant(steps: list):
    """The interpolants of the recorded steps, as (t_old, h, y_old, F):
    step k's coefficient rows F[k] (7, n) in evaluation order."""
    t_old, h, y_old, y, f, DK = map(np.array, zip(*steps))
    hc = h[:, None]
    delta_y = y - y_old
    F = np.empty((len(h), INTERPOLATOR_POWER, y.shape[1]))
    F[:, 0] = delta_y
    F[:, 1] = hc * f[:, 0] - delta_y
    F[:, 2] = 2 * delta_y - hc * (f[:, 1] + f[:, 0])
    F[:, 3:] = hc[:, :, None] * DK
    return t_old, h, y_old, F[:, ::-1]


def _evaluate(dense, k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """States (len(t), n) at the times t, t[j] on recorded step k[j].  Each
    state is formed elementwise, with the bits of its own step's
    interpolant evaluated alone."""
    t_old, h, y_old, F = dense
    x = ((t - t_old[k]) / h[k])[:, None]
    x1 = 1 - x
    y = np.zeros((len(t), y_old.shape[1]))
    for i in range(INTERPOLATOR_POWER):
        y += F[k, i]
        y *= x if i % 2 == 0 else x1
    y += y_old[k]
    return y


def _bisect(f, xa: float, xb: float) -> float:
    """The root of f(xa) > 0 >= f(xb) that ``integrate`` documents (f(xa)
    is g at the last step's end, as the interpolant returns y_old bit for
    bit, so it is > 0)."""
    while xb - xa > 4 * EPS * (1 + abs(xa)):
        xm = (xa + xb) / 2
        if f(xm) > 0:
            xa = xm
        else:
            xb = xm
    return xa


def integrate(
    fun: Callable[[float, np.ndarray, np.ndarray], None],
    t0: float,
    t1: float,
    y0: np.ndarray,
    rtol: float,
    atol: float,
    t_eval: np.ndarray,
    events: Sequence[Callable[[float, np.ndarray], float]] = (),
    quad: Callable[[list, np.ndarray, np.ndarray], None] = _no_quadrature,
    n_quad: int = 0,
    n_pos: int = 0,
) -> Solution:
    """Integrate y' = f(t, y) from t0 to t1 > t0, sampling at ``t_eval``.

    The state y (n,) is a coupled leading block of n - ``n_quad`` entries
    followed by a quadrature block of ``n_quad`` entries, 0 <= n_quad <= n.
    ``fun(t, y, out)`` writes the leading block of f(t, y) into ``out``
    (n - n_quad,), a view it must not keep, and reads only the leading
    block of y.  ``n_pos`` is 0 or (n - n_quad) / 2; when it is not 0 the
    leading block is second order, positions x = y[:n_pos] followed by
    velocities v with x' = v: the stepper writes x' = v itself, and
    ``fun(t, x, out)`` reads only x (a view it must not keep) and writes
    only v' into ``out`` (n_pos,).  ``quad(ts, ys, out)`` writes the
    quadrature block's derivatives at k states at once: ``ts`` is a list
    of k times, ``ys`` the states (k, n), of which it reads only the
    leading block, and ``out`` the (k, n_quad) block to write.  Nothing
    reads the quadrature block back, so the steps are those of the same f
    evaluated whole, and a run without quadratures passes only ``fun``.

    ``t_eval`` is increasing and inside [t0, t1].  Every event is terminal
    with direction -1.  Where some event reads <= 0 at (t0, y0), the run is
    that one column, with the lowest such index and no rhs call.  Else
    each event is read once at the end of each accepted step, and fires
    on the first step at whose end it reads <= 0.  Its root is the last
    point that bisection of the step's dense output finds with g > 0, to
    4 eps (1 + |t|), with no rhs call; it is the last column, and a sample
    less than 1e-12 before it gives way.
    The interpolant's three extra stages are computed only for steps that
    hold ``t_eval`` points or an event, in the step loop; the samples are
    evaluated after the run, in one batch, each with the bits of its own
    step's interpolant.  ``nfev`` counts the evaluations of f, each of
    which is one ``fun`` call and a share of a ``quad`` call.
    """
    if not t1 > t0:
        raise ValueError("integrate needs t1 > t0")
    start = time.perf_counter()
    y = np.array(y0, dtype=float)
    n = y.size
    if not 0 <= n_quad <= n:
        raise ValueError(f"quadrature width {n_quad!r} is outside [0, {n}]")
    if n_quad and quad is _no_quadrature:
        raise ValueError(f"a quadrature block of width {n_quad} needs its quad")
    m = n - n_quad
    if n_pos != 0 and 2 * n_pos != m:
        raise ValueError(f"second-order width {n_pos!r} is neither 0 nor half "
                         f"of the {m} leading entries")
    rtol = max(rtol, 100 * EPS)
    t_eval = np.asarray(t_eval, dtype=float)
    n_eval = t_eval.size

    t, t1 = float(t0), float(t1)
    event = next((i for i, ev in enumerate(events) if ev(t, y) <= 0), None)
    if event is not None:
        stats = SolverStats(0, 0, 0, _MESSAGES[EVENT], time.perf_counter() - start)
        return Solution(np.array([t]), y[:, None], EVENT, event, stats)
    stages = _Stages(fun, quad, n, m, n_pos)
    K, KT = stages.K, stages.KT
    # K[N_STAGES] holds f at the last accepted state; each step copies it
    # to K[0], the first stage of every trial
    f = stages.derivative(t, y, K[N_STAGES])
    h_abs = float(_initial_step(lambda s, z: stages.derivative(s, z, np.empty(n)),
                                t, y, f, t1, rtol, atol))
    nfev, n_accepted, n_rejected = 2, 0, 0
    # the steps that hold samples, and their sample counts
    steps: list[tuple] = []
    counts: list[int] = []
    i_eval = 0
    status = None
    # the error scale atol + max(|y|, |y_new|) rtol, formed in place, with
    # |y| carried over from the last accepted step
    abs_y, abs_new, scale = np.abs(y), np.empty(n), np.empty(n)

    while status is None:
        K[0] = K[N_STAGES]
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # written to catch a NaN step too, which no rejection can shrink
            if not h_abs >= min_step:
                status = STEP_UNDERFLOW
                break
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)

            stages.fill(stages.step, t, h, y)
            y_new = KT[N_STAGES].dot(B)
            y_new *= h
            y_new += y
            stages.derivative(t_new, y_new, K[N_STAGES])
            nfev += N_STAGES

            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            error_norm = _error_norm(KT[N_STAGES + 1], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            # a nan error norm (overflowing trial step) shrinks by MIN_FACTOR
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        if status is not None:
            break
        n_accepted += 1
        t_old, y_old = t, y
        t, y = t_new, y_new
        abs_y, abs_new = abs_new, abs_y
        if t >= t1:
            status = FINISHED

        step = None
        if events:
            active = [i for i, ev in enumerate(events) if ev(t, y) <= 0]
            if active:
                step = _dense_step(stages, t_old, t, y_old, y)
                nfev += _N_EXTRA
                dense, k0 = _interpolant([step]), np.zeros(1, dtype=int)

                def at(s):
                    return _evaluate(dense, k0, np.array([s]))[0]

                roots = [_bisect(lambda s, ev=events[i]: ev(s, at(s)), t_old, t)
                         for i in active]
                k = min(range(len(roots)), key=roots.__getitem__)
                event, t = active[k], roots[k]
                y = at(t)
                status = EVENT

        if i_eval < n_eval and t_eval[i_eval] <= t:
            i_new = int(np.searchsorted(t_eval, t, side="right"))
            if step is None:
                step = _dense_step(stages, t_old, t_new, y_old, y_new)
                nfev += _N_EXTRA
            steps.append(step)
            counts.append(i_new - i_eval)
            i_eval = i_new

    # a copy: the caller's t_eval may change after the run
    t_out = t_eval[:i_eval].copy()
    k = np.repeat(np.arange(len(steps)), counts)
    y_out = _evaluate(_interpolant(steps), k, t_out) if steps else np.empty((0, n))
    if status == EVENT:
        if t_out.size and t <= t_out[-1] + 1e-12:
            t_out, y_out = t_out[:-1], y_out[:-1]
        t_out, y_out = np.append(t_out, t), np.vstack([y_out, y])
    stats = SolverStats(nfev, n_accepted, n_rejected, _MESSAGES[status],
                        time.perf_counter() - start)
    return Solution(t_out, y_out.T, status, event, stats)
