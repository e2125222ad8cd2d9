"""Certification harness: verdicts, norm-ratio studies, kernel probe suites.

Every check produces a Verdict whose ``provenance`` field records where the
expected value comes from (a closed form, an independent discretization, an
exact identity).  The schema refuses verdicts without one, so no expectation
can enter a report untagged.  A verdict passes or fails; a run's verdicts are
a plain list, which ``to_json`` and ``table`` render.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .grid import MultiIndex, SpaceGrid, TimeGrid, space_quadrature_weights
from .holder import FieldSample, estimate_norm
from .kernel import (
    LEVEL_RATIO,
    DiffusionCoefficient,
    HeatKernel,
    probe_integral_estimates,
    probe_pointwise_bound,
    probe_sup_kernel_integrability,
)
from .scenarios import get_scenario
from .solver import _degenerate_paths, _jsonable, _masked_grid
from .solver import integral_form_defect, localize, shift_steps, time_shift_norms
from .stochastic import DataFunctional, SpaceFactor

STATUSES = ("pass", "fail")


@dataclass
class Verdict:
    """One certified measurement with its tolerance and expectation source."""

    check_id: str
    status: str
    measured: dict
    tolerance: dict
    provenance: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InvalidArgument(f"verdict status must be one of {STATUSES}")
        if not str(self.provenance).strip():
            raise InvalidArgument(
                "every verdict must state where its expected value comes from"
            )

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "measured": _jsonable(self.measured),
            "tolerance": _jsonable(self.tolerance),
            "provenance": self.provenance,
            "details": _jsonable(self.details),
        }


def _sorted(verdicts) -> list:
    return sorted(verdicts, key=lambda v: v.check_id)


def to_json(verdicts) -> str:
    """The verdicts as the JSON a run writes, sorted by check id."""
    return json.dumps([v.to_dict() for v in _sorted(verdicts)],
                      sort_keys=True, indent=2) + "\n"


def table(verdicts) -> str:
    """The verdicts as a console table, sorted by check id, with counts."""
    width = max([len(v.check_id) for v in verdicts] + [8])
    lines = [f"{'check':<{width}}  status    measured"]
    for v in _sorted(verdicts):
        meas = ", ".join(f"{k}={_fmt(val)}" for k, val in
                         sorted(_jsonable(v.measured).items()))
        lines.append(f"{v.check_id:<{width}}  {v.status:<8}  {meas}")
    failed = sum(v.status == "fail" for v in verdicts)
    lines.append(f"{len(verdicts) - failed} pass, {failed} fail")
    return "\n".join(lines)


def _fmt(val):
    if isinstance(val, float):
        return f"{val:.4g}"
    return str(val)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# -- residual certification -------------------------------------------------

def run_residual_check(solution, coeffs, tolerance: float, paths, *,
                       check_id: str) -> Verdict:
    """Certify the integral-form defect of a solution, measured on the
    ``paths`` it was solved on (None for deterministic data), as ``check_id``."""
    rms, worst = integral_form_defect(solution, coeffs, paths=paths)
    return Verdict(
        check_id=check_id,
        status=_status(rms <= tolerance),
        measured={"rms": rms, "worst": worst},
        tolerance={"rms": tolerance},
        provenance="discrete time integral of the equation the solver was fed",
    )


_ORACLE_PATHS = 512  # paths a stochastic oracle is built and compared on
_ORACLE_CHUNK = 16  # paths per oracle call and per chunk of the comparison


def run_oracle_check(spec, solution, paths) -> Verdict:
    """Compare a solved field with the scenario's independent oracle.

    A stochastic oracle is called once per chunk of 16 of the first 512
    paths, and the solution is evaluated on the same chunk and on the
    trusted columns only, so no (512, K+1, J) cube is built.  An oracle
    that returns one deterministic (K+1, J) field is called once.
    """
    n = 0 if paths is None else min(paths.num_paths, _ORACLE_PATHS)
    chunks = [slice(start, min(start + _ORACLE_CHUNK, n))
              for start in range(0, n, _ORACLE_CHUNK)]
    u_exact, v_exact = spec.oracle(spec, solution,
                                   None if paths is None else paths.subset(chunks[0]))
    mask = solution.trusted
    if u_exact.ndim == 2:
        measured = {"sup": _restricted_sup(spec, solution, u_exact)}
        ok = measured["sup"] <= spec.sup_tolerance
    else:
        field, tsel = solution.restrict(mask), _time_window(spec, solution.time_grid)
        # the layout of u[:, tsel][..., mask] (Fortran order), so the mean
        # sums in the order of a comparison over all n paths at once
        diff = np.empty((n, int(tsel.sum()), int(mask.sum())), order="F")

        def rms(dense, exact):
            # the oracle's chunk is cut to the trusted columns before the
            # time window, so the copy holds those columns only
            for rows in chunks:
                np.subtract(dense(np.arange(rows.start, rows.stop))[:, tsel],
                            exact(rows)[..., mask][:, tsel], out=diff[rows])
            return float(np.sqrt(np.mean(np.square(diff, out=diff))))

        def u_chunk(rows):
            nonlocal u_exact
            # the first chunk is compared once, then dropped: keeping it
            # raised `ensemble` peak RSS from 59.8 to 63.8 MB (2 vCPUs)
            if rows.start == 0:
                first, u_exact = u_exact, None
                return first
            return spec.oracle(spec, solution, paths.subset(rows))[0]

        measured = {"rms": rms(lambda idx: field.u_dense(0, path_idx=idx), u_chunk)}
        if v_exact is not None:
            measured["v_rms"] = rms(lambda idx: field.v_dense(0, 0, path_idx=idx),
                                    lambda rows: v_exact[None])
        ok = all(m <= spec.sup_tolerance for m in measured.values())
    return Verdict(
        check_id=f"oracle.{spec.scenario_id}",
        status=_status(ok),
        measured=measured,
        tolerance={"sup": spec.sup_tolerance},
        provenance=spec.provenance,
        details={"trusted_points": int(mask.sum())},
    )


# -- a priori norm-ratio study ---------------------------------------------

_ALPHA = 0.5  # Holder exponent of the a priori norms
_NORM_PATHS = 128  # paths the a priori study solves and measures norms on
_SHIFT_PATHS = 64  # paths the time-shift study solves and measures norms on
_RATIO_SPREAD = 1.3  # allowed max/min of the norm ratio over the lattice
_EQUIVARIANCE_TOL = 1e-10  # allowed relative deviation from linearity in the data
_SCALINGS = (1.0, 10.0)  # data scalings of the a priori lattice, unscaled first
_APRIORI_STEPS = (50, 100)  # time steps of the a priori lattice
_APRIORI_POINTS = (129, 257)  # points per axis of the a priori lattice


def solution_norm_lhs(sol, alpha: float) -> dict:
    """The three-norm sum measured on the trusted region of a solution."""
    field = sol.restrict(sol.trusted)
    sub = field.space_grid
    u0, u1, u2 = (field.u_dense(o) for o in range(3))
    low = estimate_norm(FieldSample(u0, sub, "S2", sol.time_grid), 0, alpha).total
    fh = FieldSample(u0, sub, "L2", sol.time_grid)
    fh.attach_derivative(1, u1)
    fh.attach_derivative(2, u2)
    high = estimate_norm(fh, 2, alpha).total
    v0 = field.v_dense(0, 0)
    v_norm = estimate_norm(FieldSample(v0, sub, "L2", sol.time_grid), 0, alpha).total
    return {"u_low": low, "u_high": high, "v": v_norm,
            "total": low + high + v_norm}


def data_norm_rhs(coeffs, sol, paths, alpha: float) -> dict:
    """Norms of the problem data on the same trusted region, on ``paths``."""
    if paths is None and not coeffs.is_deterministic():
        raise InvalidArgument("stochastic data is measured on the paths it was solved on")
    mask = sol.trusted
    sub = _masked_grid(sol.space_grid, mask)
    x = sol.space_grid.axis[mask]
    p = paths if paths is not None else _degenerate_paths(sol.time_grid, 1)
    if p.num_paths > _NORM_PATHS:
        raise InvalidArgument("subsample the ensemble before measuring data norms")
    phi = coeffs.terminal.terminal_values(p, x)[:, None, :]
    f_phi = FieldSample(phi, sub, "L2Omega")
    n_phi = estimate_norm(f_phi, 1, alpha).total
    n_f = 0.0
    if coeffs.forcing is not None:
        fv = coeffs.forcing.dense(p, x)
        n_f = estimate_norm(FieldSample(fv, sub, "L2", sol.time_grid), 0, alpha).total
    return {"terminal": n_phi, "forcing": n_f, "total": n_phi + n_f}


def _scale_factor(h: SpaceFactor, kappa: float) -> SpaceFactor:
    return SpaceFactor(
        fn=lambda x, f=h.fn: kappa * f(x),
        d1=lambda x, f=h.d1: kappa * f(x),
        d2=lambda x, f=h.d2: kappa * f(x),
        d3=lambda x, f=h.d3: kappa * f(x),
    )


def scaled_coefficients(coeffs, kappa: float):
    """The same problem with terminal and forcing data multiplied by kappa."""
    term = DataFunctional(terms=tuple(
        (_scale_factor(h, kappa), p) for h, p in coeffs.terminal.terms
    ))
    forcing = coeffs.forcing
    if forcing is not None:
        forcing = DataFunctional(terms=tuple(
            (_scale_factor(h, kappa), p) for h, p in forcing.terms
        ))
    return dataclasses.replace(coeffs, terminal=term, forcing=forcing)


def run_apriori_study(specs) -> list:
    """Norm ratio LHS/RHS across grid refinement and data scaling, per spec.

    A stable ratio across the lattice is the empirical counterpart of the
    a priori bound: the solution norms are controlled by the data norms with
    a constant that does not blow up under refinement.  Linearity of the
    solve makes the ratio exactly invariant under data scaling, which is the
    equivariance check.  Each problem is solved through ``spec.solve``, so
    the spec's own knobs (beta among them) reach every solve.
    """
    verdicts = []
    for spec in specs:
        sid = spec.scenario_id
        base = spec.build_coeffs()
        problems = {kappa: spec if kappa == 1.0 else dataclasses.replace(
            spec, build_coeffs=functools.partial(scaled_coefficients, base, kappa))
            for kappa in _SCALINGS}
        ratios = {}
        lin_dev = 0.0
        for K in _APRIORI_STEPS:
            for J in _APRIORI_POINTS:
                sols = {}
                for kappa in _SCALINGS:
                    sol, coeffs, paths = problems[kappa].solve(
                        num_paths=min(spec.num_paths, _NORM_PATHS),
                        time_grid=TimeGrid(spec.horizon, K),
                        space_grid=SpaceGrid(1, spec.radius, J))
                    sols[kappa] = sol
                    lhs = solution_norm_lhs(sol, _ALPHA)["total"]
                    rhs = data_norm_rhs(coeffs, sol, paths, _ALPHA)["total"]
                    ratios[(K, J, kappa)] = lhs / rhs
                mask = sols[_SCALINGS[0]].trusted
                base_sol = sols[_SCALINGS[0]].restrict(mask)
                for kappa in _SCALINGS[1:]:
                    rel = kappa / _SCALINGS[0]
                    scaled = sols[kappa].restrict(mask)
                    fields = [(scaled.u_dense(o), base_sol.u_dense(o)) for o in range(3)]
                    scale = max(max(float(np.max(np.abs(ua)))
                                    for ua, ub in fields), 1e-300)
                    for ua, ub in fields:
                        lin_dev = max(lin_dev, float(
                            np.max(np.abs(ua - rel * ub)) / scale))
        vals = list(ratios.values())
        spread = max(vals) / min(vals)
        verdicts.append(Verdict(
            check_id=f"apriori.ratio_spread.{sid}",
            status=_status(spread <= _RATIO_SPREAD),
            measured={"spread": spread, "min_ratio": min(vals),
                      "max_ratio": max(vals)},
            tolerance={"spread": _RATIO_SPREAD},
            provenance="refinement lattice over steps x points x scaling",
            details={"ratios": {f"K{K}_J{J}_k{int(k)}": r
                                for (K, J, k), r in ratios.items()}},
        ))
        k0, k1 = _SCALINGS[0], _SCALINGS[-1]
        ratio_dev = max(
            abs(ratios[(K, J, k1)] / ratios[(K, J, k0)] - 1.0)
            for K in _APRIORI_STEPS for J in _APRIORI_POINTS
        )
        verdicts.append(Verdict(
            check_id=f"apriori.scaling_equivariance.{sid}",
            status=_status(lin_dev <= _EQUIVARIANCE_TOL),
            measured={"max_relative_deviation": lin_dev},
            tolerance={"max_relative_deviation": _EQUIVARIANCE_TOL},
            provenance="linearity of the solve in the data",
            details={"ratio_deviation": ratio_dev},
        ))
    return verdicts


# -- kernel suite -----------------------------------------------------------

def _suite_diffusions():
    return [
        ("iso1", DiffusionCoefficient.isotropic(1.0)),
        ("scaled1", DiffusionCoefficient.time_scaled(
            lambda t: 1.0 + t, dim=1, lam=1.0, Lam=2.0)),
        ("aniso2", DiffusionCoefficient.constant(np.diag([1.0, 2.0]))),
    ]


def _mass_grid(dim: int, Lam: float, horizon: float) -> SpaceGrid:
    R = 6.5 * np.sqrt(2.0 * Lam * horizon) + 1.0
    return SpaceGrid(dim, R, 513 if dim == 1 else 161)


_KERNEL_HORIZON = 1.0
_MASS_TOL = 1e-6  # kernel mass and derivative mass
_IDENTITY_TOL = 1e-3  # relative error of the derivative identities
_SEMIGROUP_TOL = 1e-4  # sup error of the two-hop composition
# output rows of the two-hop sum formed at once; all 1025 at once raised
# `certify` peak RSS from 40.7 to 69.5 MB (2 vCPUs)
_SEMIGROUP_ROWS = 64
_EXPONENT_WINDOW = 0.3  # fitted vs predicted damping exponent
# (t, s, x) probes of the derivative identities: t uniform on [0, 0.4), s on
# [t + 0.3, _KERNEL_HORIZON), x on [-2, 2), drawn once, in that order, from
# numpy.random.default_rng(0).  A table, so that no run without a path
# ensemble imports numpy.random, and the verdict does not depend on a
# generator stream numpy does not promise to keep across releases.
_IDENTITY_PROBES = (
    (0.25478467492858176, 0.674897854396913, -1.8361059042552212),
    (0.006611054211411638, 0.8705236480117216, 1.6510223091108869),
    (0.24265431030687196, 0.8762864181188638, 0.17449996586169148),
    (0.37402896951510733, 0.9399735932768654, -1.9890459993194076),
    (0.3429617106350278, 0.6549530469894292, 0.9186217857197763),
    (0.0702622482410236, 0.9138386021673772, 0.16584488099636685),
    (0.11988475621495392, 0.6650920565848573, -1.8867213154181481),
    (0.04971331059982558, 0.7858114410618762, 0.5887580462970003),
    (0.24615404459250156, 0.7202845507748983, 1.988839743156844),
    (0.39233413551049207, 0.9032520028095978, 0.6018371050712652),
    (0.275378692228376, 0.7405230158987853, -1.4596139799103551),
    (0.2885953360776327, 0.8047285545559217, -0.7590324977641774),
    (0.19433414353271564, 0.9441177711060328, 1.7361740638249987),
    (0.1431180786836281, 0.7613927089100382, -0.7125224356962314),
    (0.23772001207987872, 0.6939296093253897, -0.4335239978873551),
    (0.35610974080191693, 0.7342270245209237, 0.49274857874416966),
    (0.03360613743295393, 0.8884750871315474, 1.1483932299547335),
    (0.09574777719718086, 0.9253653219161677, -1.7657278607792226),
    (0.13444682421826415, 0.5194378539754266, -0.1986425334028521),
    (0.3185297081149177, 0.7065128589007827, -1.7919147957423616),
    (0.1618207359286113, 0.5686563401311732, -1.6369878175235124),
    (0.23213295439474027, 0.6718830315904458, 0.6879795118254375),
    (0.07980617758728532, 0.9640989087374424, -0.5395593270206858),
    (0.042198111828091814, 0.7560266417752515, 1.7086182122714697),
    (0.1761508618863136, 0.9762122692577246, -0.0004167452494119317),
    (0.1700914499396302, 0.7987478610250358, 1.9803860209412965),
    (0.37957746997510616, 0.8269862974381814, 1.0309153812331657),
    (0.1989690781950476, 0.7641708377410061, 1.14314280285523),
    (0.16586233974226833, 0.858177676275242, 0.8445715119589994),
    (0.3728238746453513, 0.7104270882790046, 0.9160604683052376),
    (0.370969571449824, 0.9894467405256695, -1.9411747801385228),
    (0.34545603609823033, 0.9933328149641077, 1.8288407184438542),
    (0.059505604892999164, 0.9824689086661724, 1.5597422228820825),
    (0.3289495310172282, 0.8070492752521913, -1.0705083214427846),
    (0.3207522314873232, 0.9709989837393599, -0.9354789108308297),
    (0.21557376304887477, 0.7300548498884722, 1.72406926392462),
    (0.016204284475373854, 0.8167469848028113, 0.45749298779598657),
    (0.011346146045408423, 0.806639614442889, -1.936033081905712),
    (0.30318040094257126, 0.8066531119206282, 1.7164168831880247),
    (0.026432998689629894, 0.8931165558687411, -1.7332399649315944),
    (0.13772399152165007, 0.6796706449745732, 1.8642483231362807),
    (0.2248927368913828, 0.6478811852685501, -1.0332971436226202),
    (0.35524732826367195, 0.7331164171741018, -1.501781176658866),
    (0.11533230280303104, 0.7580195253811213, 0.21636200869307132),
    (0.3238843103651111, 0.8346881095776886, -0.846315142275158),
    (0.1651585370723571, 0.9027235540382226, 0.506025849679014),
    (0.38363105707897693, 0.8004991401264151, 0.21044604208514883),
    (0.23756968064526732, 0.9298452549937153, -1.418105847253873),
    (0.16260413469925067, 0.9516123182899321, -1.8277324457271833),
    (0.3290825120726008, 0.7831557157394764, 1.319215941112411),
    (0.003981824322916783, 0.558060585083757, -1.6854798513374405),
    (0.2610458305346554, 0.6812530341692573, 0.8106082826391452),
    (0.3775205707768363, 0.7184164775297791, 1.4591131816030964),
    (0.02378566064013539, 0.5812681383653033, -0.28090375528569345),
    (0.19553981873338572, 0.9881261786572618, 1.1027647524073134),
    (0.12354294508770441, 0.5790922637644965, 1.4524808167572711),
    (0.35252286909507596, 0.8299817003758615, -0.622817076150699),
    (0.39796693926436716, 0.7933923352914409, -1.2691504842937502),
    (0.35203924852162793, 0.9347000841009024, 0.6715576222854049),
    (0.3833654527111808, 0.9764786687861289, 0.9929940132070163),
    (0.34428056381907113, 0.7321954629404057, -1.4350137723958736),
    (0.2680247397259744, 0.8767222680940545, -1.3317882848709113),
    (0.1582229092419504, 0.9513786301082239, 0.24560307020089178),
    (0.23133436597050908, 0.622316319066374, 0.10408899447150066),
    (0.209373890957968, 0.5530080380871583, 1.927770772506825),
    (0.22855824018230977, 0.5315796551040373, 1.0905968049015544),
    (0.3913062855360583, 0.873395455629403, -0.72127345486934),
    (0.07500308629111396, 0.795330156876183, -1.21957040617278),
    (0.2310751570071437, 0.8134800682351069, 1.849692372497524),
    (0.02890610621195071, 0.6644348152292188, 0.976389917130593),
    (0.07089069618986353, 0.6150270876546974, -1.7484180061801147),
    (0.2903523455103107, 0.6263062544608511, -0.41963316656812966),
    (0.3494090524482929, 0.8149932750384699, 1.6504877345635425),
    (0.30636684709554896, 0.9666687034433313, -1.4903879638043747),
    (0.029425162132252814, 0.3765841782172773, 1.4754171773892772),
    (0.2536279917389773, 0.7752836959455489, -1.345826335214079),
    (0.2694933750909095, 0.7064019673948092, 0.8435194530637795),
    (0.18414213154692993, 0.7459244521116064, 1.1586629298394815),
    (0.0370981902093523, 0.7207582494942287, -1.2110602108165258),
    (0.3232547007254273, 0.8074251469061339, 1.9547813334712787),
    (0.0731773298702875, 0.9768195586690005, 1.203668146434436),
    (0.19250419863010745, 0.9053693204726572, 0.41139562096446536),
    (0.2620484255965521, 0.9622007336421402, -1.7389183343548344),
    (0.3339952815833602, 0.7737412926122147, -0.6978175355971823),
    (0.3976107084839937, 0.933834350945903, -0.05785944488164896),
    (0.1690513585699125, 0.9349741389581737, -1.6527405111404234),
    (0.2833675027655464, 0.9121549643439368, 1.1967855188644592),
    (0.12891468989593272, 0.883863624615514, -1.0986862324973394),
    (0.14492318019382763, 0.676638950750325, 0.16563993452065828),
    (0.04504546621622288, 0.6115777732582731, -1.9987972395723084),
    (0.29775229053895963, 0.9404174249802237, -1.4442732835192098),
    (0.28151430770671915, 0.9251342020977005, 1.9273132914871751),
    (0.33751622494749073, 0.7912479448154885, 1.918754834038626),
    (0.3895937619409421, 0.8459382382515441, 1.0137861543356208),
    (0.3655350670692652, 0.82478956556046, 1.4551449643883396),
    (0.28062742642474914, 0.7038911980889901, 1.0706090799338943),
    (0.22827391434379965, 0.5725431212306987, -0.43447829478134325),
    (0.02949640535912237, 0.6487680658453485, -0.2858415674283048),
    (0.16949497718817896, 0.7805302596444368, -1.5092373592957062),
    (0.3735075639827371, 0.8968448611334549, 1.2951254335710867),
)


def run_kernel_suite() -> list:
    """Normalization, derivative identities, semigroup property, and the
    empirical constants of the kernel estimates."""
    verdicts = []
    horizon = _KERNEL_HORIZON

    for label, diff in _suite_diffusions():
        k = HeatKernel(diff, horizon=horizon)
        g = _mass_grid(diff.dim, diff.Lam, horizon)
        w = space_quadrature_weights(g).ravel()
        nodes = g.nodes()
        worst = 0.0
        for gap in (0.1, horizon):
            worst = max(worst, abs(float(np.sum(w * k(0.0, gap, nodes))) - 1.0))
        verdicts.append(Verdict(
            check_id=f"kernel.normalization.{label}",
            status=_status(worst <= _MASS_TOL),
            measured={"mass_error": worst}, tolerance={"mass_error": _MASS_TOL},
            provenance="a probability density integrates to one",
        ))
        gammas = [(1,), (2,)] if diff.dim == 1 else [(1, 0), (1, 1), (2, 0)]
        worst_d = 0.0
        for gcomp in gammas:
            for gap in (0.1, horizon):
                m = float(np.sum(w * k.derivative(0.0, gap, nodes, MultiIndex(gcomp))))
                worst_d = max(worst_d, abs(m))
        verdicts.append(Verdict(
            check_id=f"kernel.derivative_mass.{label}",
            status=_status(worst_d <= _MASS_TOL),
            measured={"mass_error": worst_d}, tolerance={"mass_error": _MASS_TOL},
            provenance="derivatives of a unit-mass density integrate to zero",
        ))

    # forward and backward derivative identities against finite differences
    scaled = DiffusionCoefficient.time_scaled(lambda t: 1.0 + 0.5 * t,
                                              dim=1, lam=1.0, Lam=1.5)
    k = HeatKernel(scaled, horizon=horizon)
    eps = 1e-5
    tv, sv, xv = (np.array(col) for col in zip(*_IDENTITY_PROBES))
    xv = xv[:, None, None]  # one point per probe row
    d2s = k.derivative(tv, sv, xv, MultiIndex((2,)))[:, 0]
    dss = (k(tv, sv + eps, xv) - k(tv, sv - eps, xv))[:, 0] / (2 * eps)
    dts = (k(tv + eps, sv, xv) - k(tv - eps, sv, xv))[:, 0] / (2 * eps)
    worst = 0.0
    for (t, s, _), d2, ds, dt in zip(_IDENTITY_PROBES, d2s.tolist(), dss.tolist(),
                                     dts.tolist()):
        fwd = float(scaled(s)[0, 0]) * d2
        bwd = -float(scaled(t)[0, 0]) * d2
        scale = max(abs(fwd), 1e-3)
        worst = max(worst, abs(ds - fwd) / scale, abs(dt - bwd) / scale)
    verdicts.append(Verdict(
        check_id="kernel.derivative_identities",
        status=_status(worst <= _IDENTITY_TOL),
        measured={"relative_error": worst},
        tolerance={"relative_error": _IDENTITY_TOL},
        provenance="central finite differences in t and s at random probes",
    ))

    # semigroup property: convolving two short hops reproduces the long hop
    iso = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=horizon)
    g = SpaceGrid(1, 8.0, 1025)
    nodes = g.nodes().ravel()
    w = space_quadrature_weights(g)
    t, r, s = 0.0, 0.3, 0.8
    inner = iso(t, r, nodes[None, :, None])
    conv = np.concatenate([
        np.sum(w[None, :] * iso(r, s, (nodes[lo:lo + _SEMIGROUP_ROWS, None]
                                       - nodes[None, :])[..., None]) * inner, axis=1)
        for lo in range(0, len(nodes), _SEMIGROUP_ROWS)])
    direct = iso(t, s, nodes[:, None])
    err = float(np.max(np.abs(conv - direct)))
    verdicts.append(Verdict(
        check_id="kernel.semigroup",
        status=_status(err <= _SEMIGROUP_TOL),
        measured={"sup_error": err}, tolerance={"sup_error": _SEMIGROUP_TOL},
        provenance="two-step composition of the transition density",
    ))

    # pointwise Gaussian-envelope constants for derivative orders 0..3
    for order in range(4):
        rep = probe_pointwise_bound(iso, MultiIndex((order,)))
        verdicts.append(Verdict(
            check_id=f"kernel.pointwise_bound.d{order}",
            status=_status(bool(np.isfinite(rep.empirical_C)) and rep.stable),
            measured={"empirical_C": float(rep.empirical_C),
                      "stable": bool(rep.stable)},
            tolerance={"level_ratio": LEVEL_RATIO},
            provenance="probe lattice refinement of the envelope ratio",
        ))

    # integral-estimate constants and the damping exponent fit
    klong = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=4.0)
    reports = probe_integral_estimates(klong, MultiIndex((2,)), 0.5)
    all_ok = all(np.isfinite(rep.empirical_C) and rep.stable
                 for rep in reports.values())
    verdicts.append(Verdict(
        check_id="kernel.integral_estimates",
        status=_status(all_ok),
        measured={key: float(rep.empirical_C) for key, rep in reports.items()},
        tolerance={"level_ratio": LEVEL_RATIO},
        provenance="grid refinement of each integral probe",
    ))
    ex = reports["beta_damped_moment"].extras
    dev = abs(ex["fitted_exponent"] - ex["predicted_exponent"])
    verdicts.append(Verdict(
        check_id="kernel.beta_exponent",
        status=_status(dev <= _EXPONENT_WINDOW),
        measured={"fitted": float(ex["fitted_exponent"]),
                  "predicted": float(ex["predicted_exponent"])},
        tolerance={"deviation": _EXPONENT_WINDOW},
        provenance="log-log fit of the damped moment across a beta sweep",
    ))

    probe = probe_sup_kernel_integrability(iso, 0.5, horizon / 4.0)
    verdicts.append(Verdict(
        check_id="kernel.sup_integrability",
        status=_status(bool(np.isfinite(probe.value)) and probe.warning is None),
        measured={"value": float(probe.value)},
        tolerance={"finite": 1.0},
        provenance="windowed supremum under the moment weight",
    ))
    return verdicts


# -- convergence studies ----------------------------------------------------

_POINTS_SWEEP = (65, 129, 257)  # lattice sizes of the h study
_H_ORDER = 2.0  # expected order of the h study
_ORDER_WINDOW = 0.3  # allowed deviation of the fitted order
_BETAS = (0.0, 5.0, 20.0)  # damping sweep of the beta study


def run_convergence_study(spec, axis: str) -> Verdict:
    """Refinement behavior of a scenario along one axis: h or beta.

    The h study fits the order of the sup error against the scenario's
    oracle; the beta study checks that damping shrinks the Picard
    contraction factor.
    """
    if axis == "h":
        return _h_study(spec)
    if axis == "beta":
        return _beta_study(spec)
    raise InvalidArgument("axis must be one of 'h', 'beta'")


def _time_window(spec, tgrid):
    """Time nodes an oracle comparison covers: all, or t <= extras["t_max"]."""
    if "t_max" in spec.extras:
        return tgrid.nodes <= spec.extras["t_max"] + 1e-12
    return np.ones(len(tgrid), dtype=bool)


def _restricted_sup(spec, sol, u_exact):
    """Sup error of path 0 against a deterministic oracle on the trusted window."""
    tsel, mask = _time_window(spec, sol.time_grid), sol.trusted
    u = sol.u_dense(0, path_idx=[0])[0]
    return float(np.max(np.abs(u[np.ix_(tsel, mask)] - u_exact[np.ix_(tsel, mask)])))


def _h_study(spec) -> Verdict:
    rows = []
    for J in _POINTS_SWEEP:
        sol, coeffs, paths = spec.solve(space_grid=SpaceGrid(1, spec.radius, J))
        u_exact, _ = spec.oracle(spec, sol, paths)
        rows.append({"points": J, "h": sol.space_grid.h,
                     "error": _restricted_sup(spec, sol, u_exact)})
    order = float(np.polyfit(np.log([r["h"] for r in rows]),
                             np.log([r["error"] for r in rows]), 1)[0])
    return Verdict(
        check_id=f"convergence.h.{spec.scenario_id}",
        status=_status(abs(order - _H_ORDER) <= _ORDER_WINDOW),
        measured={"fitted_order": order},
        tolerance={"expected_order": _H_ORDER, "window": _ORDER_WINDOW},
        provenance=spec.provenance,
        details={"rows": rows},
    )


def _beta_study(spec) -> Verdict:
    rows = []
    for beta in _BETAS:
        sol, _coeffs, _paths = spec.solve(beta=beta, max_iter=60)
        rows.append({
            "beta": beta,
            "contraction_factor": float(sol.info["contraction_factor"]),
            "iterations": int(sol.info["iterations"]),
        })
    factors = [r["contraction_factor"] for r in rows]
    monotone = all(b < a for a, b in zip(factors, factors[1:]))
    return Verdict(
        check_id=f"convergence.beta.{spec.scenario_id}",
        status=_status(monotone),
        measured={"factors": factors},
        tolerance={"ordering": "strictly decreasing in beta"},
        provenance="damping shrinks the fixed-point map's Lipschitz constant",
        details={"rows": rows},
    )


# -- time continuity --------------------------------------------------------

_TAUS = (0.2, 0.1, 0.05, 0.025)
_SHIFT_STEPS = 200  # time steps of the solve the shift norms are measured on
_SHIFT_SLACK = 0.2  # allowed relative growth of shift_norm / sqrt(tau)


def shift_grid(spec) -> TimeGrid:
    """The time grid the shift study solves this spec on; InvalidShift unless
    every shift of _TAUS is a whole number of its steps below the horizon."""
    tgrid = TimeGrid(spec.horizon, _SHIFT_STEPS)
    for tau in _TAUS:
        shift_steps(tgrid, tau)
    return tgrid


def run_time_shift_study(specs) -> list:
    """Shift-norm over sqrt(tau) must not grow as tau shrinks, per spec.

    The one-sided bound predicts shift_norm <= C sqrt(tau); the ratio is
    allowed a relative wobble of 20% to absorb sampling noise.
    """
    verdicts = []
    for spec in specs:
        sid = spec.scenario_id
        sol, coeffs, paths = spec.solve(time_grid=shift_grid(spec),
                                        num_paths=min(spec.num_paths, _SHIFT_PATHS))
        rows = [{"tau": tau, "shift_norm": norm, "ratio": norm / np.sqrt(tau)}
                for tau, norm in zip(_TAUS, time_shift_norms(sol, _TAUS))]
        ratios = [r["ratio"] for r in rows]
        ok = all(ratios[i + 1] <= ratios[i] * (1.0 + _SHIFT_SLACK)
                 for i in range(len(ratios) - 1))
        verdicts.append(Verdict(
            check_id=f"time_shift.sqrt_rate.{sid}",
            status=_status(ok),
            measured={"ratios": ratios},
            tolerance={"relative_growth": _SHIFT_SLACK},
            provenance="square-root modulus of continuity in time",
            details={"rows": rows},
        ))
    return verdicts


# -- scenario orchestration -------------------------------------------------

def _targets(spec):
    """What a study check runs on: the catalog entries named in
    extras["scenarios"], else the scenario itself, overrides included."""
    if "scenarios" not in spec.extras:
        return [spec]
    return [get_scenario(sid) for sid in spec.extras["scenarios"]]


def _plot_stems(spec, check) -> list:
    """Stems of the plot-data CSVs one check writes, in verdict order."""
    if check == "h_convergence":
        return ["error_vs_h"]
    if check == "beta_sweep":
        return ["contraction_vs_beta"]
    if check == "time_shift":
        return ["norm_vs_tau" if t is spec else f"norm_vs_tau_{t.scenario_id}"
                for t in _targets(spec)]
    return []


def artifact_files(spec) -> list:
    """The files a run of this scenario writes, relative to the run
    directory and in write order: verdicts.json, then for each artifact stem
    of ``run_scenario`` in sorted order its plot-data CSV, or the solution
    CSV and summary."""
    stems = [stem for check in spec.checks for stem in _plot_stems(spec, check)]
    if spec.kind == "solve":
        stems.append("solution")
    files = ["verdicts.json"]
    for stem in sorted(stems):
        files += ["solution.csv", "summary.json"] if stem == "solution" else [f"{stem}.csv"]
    return [f"{spec.scenario_id}/{name}" for name in files]


def run_scenario(spec, seed: int | None):
    """Run every check of one scenario on the spec as given, overrides
    included; a "solve" scenario is solved and its integral-form defect
    measured once first.

    Returns (verdicts, artifacts): a list of Verdict, and a map from file
    stems to a SolutionField (exported as CSV), its measured defect {"rms",
    "worst"} (exported with the solve's summary), or a list of row dicts
    (exported as a plot-data CSV).  ``artifact_files`` lists the files they
    become.  A scenario whose checks read its oracle but that has none
    raises InvalidArgument before anything runs.
    """
    if spec.oracle is None and {"oracle", "h_convergence"} & set(spec.checks):
        raise InvalidArgument(
            f"scenario {spec.scenario_id} checks against an oracle it does not have")
    verdicts = []
    artifacts = {}

    def add_plot(check, study):
        for stem, v in zip(_plot_stems(spec, check), study, strict=True):
            verdicts.append(v)
            artifacts[stem] = v.details["rows"]

    sol = coeffs = paths = residual = None
    if spec.kind == "solve":
        sol, coeffs, paths = spec.solve(seed=seed)
        residual = run_residual_check(sol, coeffs, spec.residual_tolerance, paths=paths,
                                      check_id=f"residual.{spec.scenario_id}")
        artifacts["solution"] = sol
        artifacts["summary"] = residual.measured
    for check in spec.checks:
        if check == "residual":
            verdicts.append(residual)
        elif check == "oracle":
            verdicts.append(run_oracle_check(spec, sol, paths))
        elif check == "h_convergence":
            add_plot(check, [run_convergence_study(spec, "h")])
        elif check == "beta_sweep":
            add_plot(check, [run_convergence_study(spec, "beta")])
        elif check == "time_shift":
            add_plot(check, run_time_shift_study(_targets(spec)))
        elif check == "picard":
            hist = sol.info.get("history", [])
            factor = sol.info.get("contraction_factor")
            ok = factor is not None and factor < 1.0
            verdicts.append(Verdict(
                check_id=f"picard.contraction.{spec.scenario_id}",
                status=_status(bool(ok)),
                measured={"contraction_factor": float(factor)
                          if factor is not None else float("nan"),
                          "iterations": len(hist)},
                tolerance={"contraction_factor": 1.0},
                provenance="successive-difference ratios of the iteration",
            ))
        elif check == "localization":
            loc = localize(sol, coeffs, z=0.0, theta=2.0, paths=paths)
            cov = loc.covering
            verdicts.append(Verdict(
                check_id=f"localization.covering.{spec.scenario_id}",
                status=_status(cov["slack"] >= -1e-9),
                measured={"slack": float(cov["slack"]),
                          "C": float(cov["C"]),
                          "localized_residual": float(loc.residual_rms)},
                tolerance={"slack": -1e-9},
                provenance="cutoff covering of the norm by windowed pieces",
            ))
        elif check == "kernel":
            verdicts.extend(run_kernel_suite())
        elif check == "apriori":
            verdicts.extend(run_apriori_study(_targets(spec)))
        else:
            raise InvalidArgument(
                f"unknown check {check!r} in scenario {spec.scenario_id}")
    return verdicts, artifacts
