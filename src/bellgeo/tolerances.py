"""Every fixed tolerance of bellgeo, each with the reason for its value.

The modules that use these names import them from here, so a value is
changed in one place.  ``DEFAULT_TOL`` is also importable from
``behavior``, ``RESIDUAL_PASS`` from ``selftest``, ``SUPPORT_CUTOFF`` from
``realization``, and ``ROOT_SEPARATION`` and ``RANK_TOL`` from ``qbell``.
"""

from __future__ import annotations

import math

#: Default tolerance of the validity, locality, branch and gap tests, and of
#: the CLI's ``--tol``: simulated behaviors are exact to about 1e-15, which
#: leaves six orders of magnitude for rounding along the pipeline.
DEFAULT_TOL = 1e-9

#: Tolerance of the gaps that decide which ``counterexample --format csv``
#: curves get a row: none.  Their closed-form lower ends are the exact
#: feasible edge.  A tolerance e would admit scaled correlators up to
#: 1 + sqrt(e) at a curve's ends, and with them rows whose range is empty.
BOUNDARY_TOL = 0.0

#: Residual below which a self-testing operator identity or an
#: added-measurement correlator counts as certified; the protocols' default
#: ``tol``.  Exact realizations leave residuals near 1e-10 or below.
RESIDUAL_PASS = 1e-7

#: Slack of the constructors' range checks (|correlator| <= 1, biases in
#: [0, 1], Hermitian involutive observables, unit-norm psi): JSON input and
#: simulated values carry rounding.
VALIDATE_TOL = 1e-9

#: Slack of the chi range [0, pi/4]: a chi recovered as asin(.)/2 from a
#: rounded value can land a few ulps outside it.
CHI_RANGE_SLACK = 1e-12

#: Slack of the Hermiticity and involution checks of an added observable;
#: tighter than ``VALIDATE_TOL`` because the observable enters operator
#: identities that must hold to ``RESIDUAL_PASS``.
ADDED_OBSERVABLE_TOL = 1e-12

#: The bias formula leaves out a pair of reduced-state eigenvalues whose sum
#: is at or below this value: its term 2|a_kk'|^2 / (m_k + m_k') is at most
#: (m_k + m_k') / 2, since |a_kk'|^2 <= m_k m_k', and its division is unsafe.
#: A pair with one null eigenvalue stays, so the cross terms of an eigenvalue
#: near sin^2(chi) ~ 1e-12 are kept.  The oracle's support is the
#: eigenvalues above this value.
SUPPORT_CUTOFF = 1e-12

#: |sin(theta_0 - theta_1)| below this means the two observables of a side
#: coincide: the derived operators and the hyperplane construction divide
#: by it.
DEGENERATE_SIN = 1e-12

#: |sin(theta_B2 - theta_B0)| below this means the added observable repeats
#: B_0, so the paired reconstruction certifies nothing new.
COINCIDENT_SIN = 1e-9

#: A value this small is zero up to double rounding of order-one inputs;
#: it breaks sign ties and detects vanishing orientation products.
ROUNDING_ZERO = 1e-15

#: A squared norm below this is a zero vector: (1e-12)^2, rounding of
#: unit-norm arithmetic.
ZERO_NORM_SQUARED = 1e-24

#: A branch value within this of 1 is chi = pi/4: cos(2 chi) = sqrt(1 - value)
#: is then below 1e-6 and the marginals no longer carry the angles.
MAX_ENTANGLED_SLACK = 1e-12

#: ``reconstruct`` accepts marginals, bias coordinates and the correlator
#: model within this multiple of its ``tol``: they are rebuilt through square
#: roots and arccos of the inputs, which carry an input error of tol into
#: them at a few times tol.
MODEL_FIT_FACTOR = 10.0

#: Slack of the nonnegativity of the hyperplane coefficients a^2 and b^2:
#: ratios of rounded sine products go a few ulps negative at a boundary
#: orientation.
ORIENTATION_SLACK = 1e-12

#: A uniqueness ratio whose reference value is below this is refused: the
#: normalization would amplify double rounding (1e-16) to ``ROOT_SEPARATION``.
RATIO_DENOMINATOR_MIN = 1e-10

#: Row-relative residual max_k |m_k.t - r_k| / (|m_k| |t| + |r_k|) at or below
#: which a uniqueness candidate t solves its own sign system m t = r.  Over 20 000
#: conforming draws the reference root leaves <= 6.3e-13, any other candidate >= 5.4e-5.
ROOT_RESIDUAL = 1e-9

#: Two roots of the uniqueness system closer than this in both cosines are
#: one root, and a root this close to the reference cosines is the trivial one.
ROOT_SEPARATION = 1e-6

#: A sign pattern whose smaller singular value is below this fraction of the
#: larger one has a rank-1 system: its solutions, if any, form a line.
RANK_TOL = 1e-9


def root_tol(tol: float) -> float:
    """The tolerance sqrt(tol) for quantities that meet zero like a square root.

    Boundary gaps, angles from arccos near 0 or pi, fidelities and the
    behaviors they rebuild move by about sqrt(e) when the input moves by e,
    so a test at ``tol`` on the input is a test at sqrt(tol) on them.  The
    self-testing protocols and ``extremal_criterion`` therefore reconstruct
    at ``root_tol(tol)``: at plain ``tol`` = 1e-7 the paired protocol
    rejects the realization thetaA = (0, 1.5707963), thetaB = (0.05,
    -0.7853982), chi = 0.2617994 with thetaB2 = -pi/2, whose extended
    behavior has saturation gaps 2.1e-7 and 2.3e-7.
    """
    return math.sqrt(tol)
