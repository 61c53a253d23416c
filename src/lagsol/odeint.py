"""Adaptive embedded Runge-Kutta integration with conservation monitoring.

The stepper is the 8(5,3) pair of Hairer, Norsett and Wanner ("DOP853",
*Solving Ordinary Differential Equations I*, sec. II.10): 12 stages with the
last one evaluated at the step's end (FSAL), the combined 5th/3rd-order
error estimate and a PI step-size controller.  Beyond the embedded error
estimate, a step is also rejected when the caller's conserved functional
drifts by more than ``DRIFT_FACTOR`` times the local tolerance across the
step; the soliton ODEs carry an exact first integral, and enforcing it at
step granularity is what keeps long trajectories honest.

Every integration runs at the one tolerance pair ``RTOL, ATOL`` of this
module.  It is that tight because the FD oracle of geometry differentiates
the integrated curve twice: it divides state errors by h^2.

States are Python float lists.  The right-hand side takes ``(s, y)`` with y
a list and returns a sequence of len(y) floats; at the state sizes used here,
numpy's per-call overhead outweighs the arithmetic.  The step is generated
for each state size as one straight-line function whose state components
and stage slopes are locals (see codegen), bit-identical to the loop form
over the tableau rows that the tests keep as its reference.

Targets strictly inside an accepted step are read from the pair's 7th-order
continuous extension (3 more stages, evaluated once per step that contains
targets), so the accepted steps do not depend on the targets.  The
integration end is always reached by a step.

Out-of-domain states are handled by NaN propagation: the right-hand side
returns NaN outside the admissible band, and a step with a non-finite stage
(extension stages included) is rejected and halved.  Because of the FSAL
evaluation at the step endpoint, every accepted state has a finite
right-hand side, hence lies strictly inside the domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codegen import compiled
from .errors import DomainEscape, ToleranceFailure, ValidationError

# DOP853 tableau (Hairer's dop853.f, as also transcribed by scipy): the
# non-zero (j, a_ij) pairs of each row.  Rows 1-11 are the step stages, row
# 12 the solution weights (its stage is the FSAL slope at the step's end),
# rows 13-15 the extension stages of the continuous output.
_C = (0.0,
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
      0.777777777777777777777777777778)
_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    ((0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
     (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
     (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
     (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2)),
    ((0, 5.61675022830479523392909219681e-2), (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1), (8, -1.24191423263816360469010140626e-1),
     (9, 1.5329179827876569731206322685e-1), (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3), (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2), (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2), (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4), (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4), (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1), (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878), (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1), (12, -1.39902416515901462129418009734e-3),
     (13, 2.9475147891527723389556272149), (14, -9.15095847217987001081870187138)),
)
# error rows over the stages of the solution weights (0, 5, 6, ..., 11): the
# 5th-order E5 and the 3rd-order E3 = b - bhat
_E_STAGES = tuple(j for j, _ in _A[12])
_E5 = (0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
       -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
       -0.3503288487499736816886487290, 0.3341791187130174790297318841,
       0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_E3 = tuple(b - d for (_, b), d in zip(_A[12], (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)))
# continuous extension: coefficient rows of x^3 .. x^6 terms over the 16 stages
_D = (
    ((0, -0.84289382761090128651353491142e+1), (5, 0.56671495351937776962531783590),
     (6, -0.30689499459498916912797304727e+1), (7, 0.23846676565120698287728149680e+1),
     (8, 0.21170345824450282767155149946e+1), (9, -0.87139158377797299206789907490),
     (10, 0.22404374302607882758541771650e+1), (11, 0.63157877876946881815570249290),
     (12, -0.88990336451333310820698117400e-1), (13, 0.18148505520854727256656404962e+2),
     (14, -0.91946323924783554000451984436e+1), (15, -0.44360363875948939664310572000e+1)),
    ((0, 0.10427508642579134603413151009e+2), (5, 0.24228349177525818288430175319e+3),
     (6, 0.16520045171727028198505394887e+3), (7, -0.37454675472269020279518312152e+3),
     (8, -0.22113666853125306036270938578e+2), (9, 0.77334326684722638389603898808e+1),
     (10, -0.30674084731089398182061213626e+2), (11, -0.93321305264302278729567221706e+1),
     (12, 0.15697238121770843886131091075e+2), (13, -0.31139403219565177677282850411e+2),
     (14, -0.93529243588444783865713862664e+1), (15, 0.35816841486394083752465898540e+2)),
    ((0, 0.19985053242002433820987653617e+2), (5, -0.38703730874935176555105901742e+3),
     (6, -0.18917813819516756882830838328e+3), (7, 0.52780815920542364900561016686e+3),
     (8, -0.11573902539959630126141871134e+2), (9, 0.68812326946963000169666922661e+1),
     (10, -0.10006050966910838403183860980e+1), (11, 0.77771377980534432092869265740),
     (12, -0.27782057523535084065932004339e+1), (13, -0.60196695231264120758267380846e+2),
     (14, 0.84320405506677161018159903784e+2), (15, 0.11992291136182789328035130030e+2)),
    ((0, -0.25693933462703749003312586129e+2), (5, -0.15418974869023643374053993627e+3),
     (6, -0.23152937917604549567536039109e+3), (7, 0.35763911791061412378285349910e+3),
     (8, 0.93405324183624310003907691704e+2), (9, -0.37458323136451633156875139351e+2),
     (10, 0.10409964950896230045147246184e+3), (11, 0.29840293426660503123344363579e+2),
     (12, -0.43533456590011143754432175058e+2), (13, 0.96324553959188282948394950600e+2),
     (14, -0.39177261675615439165231486172e+2), (15, -0.14972683625798562581422125276e+3)),
)


# the stages the continuous extension reads besides its own three, which the
# step hands on: the first slope and those of the solution weights
_KEPT = (0, *range(5, 13))


def _dot(row, m):
    """Source of sum(a k_j) over the (j, a) of a tableau row, component m:
    added left to right from 0.0, as CPython 3.11's sum() adds floats."""
    return "".join(["0.0", *(f" + {a!r}*k{j}_{m}" for j, a in row)])


def _generate(d):
    """Source of the straight-line step and extension for d-component states.

    step(rhs, s, hd, s_new, y, f, rtol, atol) runs stages 1-11 and the FSAL
    stage at s_new, and returns (y_new, f_new, error norm, kept stages flat)
    or None at the first non-finite stage.  extend(rhs, s, hd, y, y_new, ks)
    runs stages 13-15 and returns the interpolant's coefficients per
    component, or None likewise.  Stage i's state is y + hd sum(a_ij k_j) and
    its slope k_i; ks holds the slopes of the _KEPT stages, stage by stage.
    """
    M = range(d)

    def names(fmt):
        # one name per component, each followed by a comma so d = 1 unpacks
        return "".join(fmt.format(m=m) + ", " for m in M)

    def finite(i):
        return [f"    if not ({' and '.join(f'isfinite(k{i}_{m})' for m in M)}):",
                "        return None"]

    def stage(i):
        state = ", ".join(f"y{m} + hd*({_dot(_A[i], m)})" for m in M)
        return [f"    {names(f'k{i}_{{m}}')}= rhs(s + {_C[i]!r}*hd, [{state}])", *finite(i)]

    kept = "".join(names(f"k{j}_{{m}}") for j in _KEPT)
    e5 = " + ".join(f"(({_dot(zip(_E_STAGES, _E5), m)}) / sc{m}) ** 2" for m in M)
    e3 = " + ".join(f"(({_dot(zip(_E_STAGES, _E3), m)}) / sc{m}) ** 2" for m in M)
    lines = [
        "def step(rhs, s, hd, s_new, y, f, rtol, atol):",
        f"    {names('y{m}')}= y",
        f"    {names('k0_{m}')}= f",
        *[ln for i in range(1, 12) for ln in stage(i)],
        f"    y_new = [{', '.join(f'y{m} + hd*({_dot(_A[12], m)})' for m in M)}]",
        f"    {names('yn{m}')}= y_new",
        "    f_new = rhs(s_new, y_new)",
        f"    {names('k12_{m}')}= f_new",
        *finite(12),
        # Hairer's combined estimate, scaled by atol + rtol max(|y|, |y_new|)
        *[f"    a = abs(y{m}); b = abs(yn{m}); sc{m} = atol + rtol*(a if a >= b else b)"
          for m in M],
        f"    e5 = 0.0 + {e5}",
        f"    e3 = 0.0 + {e3}",
        f"    err = 0.0 if e5 == 0.0 and e3 == 0.0 else abs(hd)*e5 / sqrt({d}*(e5 + 0.01*e3))",
        f"    return y_new, f_new, err, ({kept})",
        "",
        "def extend(rhs, s, hd, y, y_new, ks):",
        f"    {names('y{m}')}= y",
        f"    {names('yn{m}')}= y_new",
        f"    {kept}= ks",
        *[ln for i in range(13, 16) for ln in stage(i)],
        *[f"    d{m} = yn{m} - y{m}" for m in M],
        "    return [" + ", ".join(
            f"(d{m}, hd*k0_{m} - d{m}, 2.0*d{m} - hd*(k0_{m} + k12_{m}), "
            + ", ".join(f"0.0 + hd*({_dot(row, m)})" for row in _D) + ")"
            for m in M) + "]",
    ]
    return "\n".join(lines) + "\n"


def _stepper(d):
    """The (step, extend) pair for d-component states."""
    ns = compiled(_generate, d)
    return ns["step"], ns["extend"]


_ORDER_EXP = 1 / 8  # the combined error estimate is O(h^8)
_PI_ALPHA = 0.7 / 8
_PI_BETA = 0.4 / 8
_SAFETY = 0.9
_MIN_FACTOR = 0.333
_MAX_FACTOR = 6.0

RTOL, ATOL = 1e-11, 1e-13    # stepper tolerances: the FD oracle divides state errors by h^2
DRIFT_FACTOR = 10.0  # allowed first-integral change per step, in local tolerances
MAX_STEPS = 2_000_000  # step attempts per integration


@dataclass
class OdeResult:
    """Samples of one integration run, in step order."""

    s: np.ndarray
    y: np.ndarray
    n_accepted: int
    n_rejected_error: int
    n_rejected_drift: int
    max_drift: float


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _rms(v, scale):
    return math.sqrt(sum((a / b) ** 2 for a, b in zip(v, scale)) / len(v))


def _initial_step(rhs, s0, y0, f0, direction, rtol, atol):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = [v + h0 * direction * f for v, f in zip(y0, f0)]
    f1 = rhs(s0 + h0 * direction, y1)
    if _finite(f1):
        d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    else:
        d2 = 2.0 / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1)


def _interpolant(s, hd, y, cols):
    """The 7th-order continuous extension over the step [s, s + hd], from the
    coefficients extend returns."""
    def at(t):
        x = (t - s) / hd
        x1 = 1.0 - x
        return [v + x * (c0 + x1 * (c1 + x * (c2 + x1 * (c3 + x * (c4 + x1 * (c5 + x * c6))))))
                for v, (c0, c1, c2, c3, c4, c5, c6) in zip(y, cols)]

    return at


def _float_range_fails(integrate):
    """integrate raising ToleranceFailure for an ArithmeticError: an initial
    step, error norm or conserved value out of the float range."""
    @functools.wraps(integrate)
    def guarded(*args, **kwargs):
        try:
            return integrate(*args, **kwargs)
        except ArithmeticError as exc:
            raise ToleranceFailure(f"step control left the float range ({exc})") from exc
    return guarded


@_float_range_fails
def integrate(
    rhs,
    s0: float,
    y0,
    s_end: float,
    *,
    conserved,
    near_escape,
    targets=(),
) -> OdeResult:
    """Integrate dy/ds = rhs(s, y) from s0 to s_end adaptively at RTOL,
    ATOL; a non-finite s0, s_end or target raises ValidationError.

    The rows run from the start to a row at s_end, which is not repeated
    when it is the last target or s0.  In between come, with targets, one row
    per target (one within 1e-14 of s0 gets the start state) and, without
    targets, every accepted step.

    Parameters
    ----------
    conserved : callable
        Scalar functional of the state; steps changing it by more than
        ``DRIFT_FACTOR * (ATOL + RTOL |I|)`` are rejected and retried.
    near_escape : callable
        Predicate on the state; consulted on step-size underflow to decide
        between DomainEscape (state hugging the domain boundary) and
        ToleranceFailure.
    targets : sequence of floats
        Parameter values from s0 to s_end, monotone in the direction of
        integration.  Those strictly inside a step are read from the
        continuous extension; s_end is always a step's end.
    """
    y = [float(v) for v in y0]
    s = float(s0)
    s_end = float(s_end)
    tgt = [float(t) for t in targets]
    if not _finite([s, s_end, *tgt]):
        raise ValidationError("integration bounds and targets must be finite")
    direction = 1.0 if s_end >= s else -1.0
    for a, b in zip(tgt, tgt[1:]):
        if (b - a) * direction < 0:
            raise ValueError("targets must be monotone in the integration direction")
    ti = 0      # targets within 1e-14 of the start take the start state
    while ti < len(tgt) and (tgt[ti] - s) * direction <= 1e-14 * max(1.0, abs(s)):
        ti += 1
    out_s, out_y = [s, *tgt[:ti]], [y] * (ti + 1)

    f = rhs(s, y)
    if not _finite(f):
        raise DomainEscape(s, "initial state is outside the admissible domain")
    I_prev = float(conserved(y))
    rtol, atol = RTOL, ATOL

    h = min(_initial_step(rhs, s, y, f, direction, rtol, atol), abs(s_end - s))
    err_prev = 1.0
    step, extend = _stepper(len(y))
    steps = accepted = rejected_error = rejected_drift = 0
    max_drift = 0.0

    while (s_end - s) * direction > 1e-14 * max(1.0, abs(s_end)):
        if steps >= MAX_STEPS:
            raise ToleranceFailure(f"step budget exhausted near s = {s:.6g}")
        steps += 1

        last = h >= abs(s_end - s)
        if last:
            h = abs(s_end - s)
        if h < 1e-14 * max(1.0, abs(s)):
            if near_escape(y):
                raise DomainEscape(s)
            raise ToleranceFailure(f"step size underflow near s = {s:.6g}")

        hd = h * direction
        s_new = s_end if last else s + hd
        out = step(rhs, s, hd, s_new, y, f, rtol, atol)
        bad = out is None
        if not bad:
            y_new, f_new, err_norm, kept = out
            if not err_norm <= 1.0:
                rejected_error += 1
                h *= (max(_MIN_FACTOR, _SAFETY * max(err_norm, 1e-10) ** -_ORDER_EXP)
                      if math.isfinite(err_norm) else 0.5)
                continue
            I_new = float(conserved(y_new))
            drift = abs(I_new - I_prev)
            if drift > DRIFT_FACTOR * (atol + rtol * abs(I_prev)):
                rejected_drift += 1
                h *= 0.5
                continue
            # targets short of the step's end need the extension stages
            inner = ti < len(tgt) and (tgt[ti] - s_new) * direction < 0
            if inner:
                cols = extend(rhs, s, hd, y, y_new, kept)
                bad = cols is None
        if bad:
            rejected_error += 1
            h *= 0.5
            err_prev = 1.0
            # tangential boundary approach: the state is already inside the
            # escape collar and repeated halvings make no headway
            if h < 1e-9 * max(1.0, abs(s)) and near_escape(y):
                raise DomainEscape(s)
            continue

        # accepted
        max_drift = max(max_drift, drift)
        I_prev = I_new
        if inner:
            at = _interpolant(s, hd, y, cols)
            while ti < len(tgt) and (tgt[ti] - s_new) * direction < 0:
                out_s.append(tgt[ti])
                out_y.append(at(tgt[ti]))
                ti += 1
        s, y, f = s_new, y_new, f_new
        accepted += 1
        if (s_end - s) * direction <= 1e-14 * max(1.0, abs(s_end)):
            s = s_end
        landed = ti < len(tgt) and tgt[ti] == s
        ti += landed
        if not tgt or landed or s == s_end:
            out_s.append(s)
            out_y.append(y)

        err_norm = max(err_norm, 1e-10)  # exactly-resolved steps still bound growth
        factor = _SAFETY * err_norm ** -_PI_ALPHA * err_prev ** _PI_BETA
        err_prev = err_norm
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    if not accepted:        # the end, and so every target, is within 1e-14 of the start
        out_s, out_y = [s, *tgt], [y] * (len(tgt) + 1)
    if out_s[-1] != s_end:
        out_s.append(s_end)
        out_y.append(y)
    return OdeResult(np.array(out_s), np.array(out_y), accepted, rejected_error,
                     rejected_drift, max_drift)
