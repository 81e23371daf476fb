"""Laplace-domain verification of Theorem 6.1 (paper appendix).

The appendix proves convergence for two subdomains by showing the wave
loop-gain has no singularity in the closed right half-plane and then
applying the final-value theorem.  This module makes that argument
*executable* for concrete systems:

* interiors are eliminated so each subdomain becomes a port-space
  operator ``Â_j`` (the appendix assumes "no inner vertex"; Schur
  elimination realises that reduction exactly);
* the per-subdomain **scattering matrix** is
  ``R_j = (I + Z̃Â_j)^{-1}(I − Z̃Â_j)``, whose Z-weighted spectrum is
  ``λ_i = (1 − t_i)/(1 + t_i)`` with ``t_i`` the eigenvalues of
  ``√Z̃ Â_j √Z̃`` (the appendix's Lemma A.2) — |λ| < 1 for SPD, ≤ 1
  for SNND subgraphs;
* the loop gain ``L(s) = E_σ(s) R_2 E_τ(s) R_1`` (E = diagonal delay
  factors) is scanned over the closed right half-plane: ρ(L(s)) < 1
  everywhere ⇒ ``(I − L)^{-1}`` has no RHP pole;
* the final-value limit ``s → 0`` must reproduce ``A^{-1} b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import ValidationError
from ..graph.evs import SplitResult
from ..utils.validation import require


# ----------------------------------------------------------------------
# port-space reduction
# ----------------------------------------------------------------------
def port_operator(subdomain) -> np.ndarray:
    """Schur complement of a subdomain onto its ports.

    Â = C − E D⁻¹ F (ports-first block ordering of (4.3)); when the
    subdomain has no interior this is just its matrix.
    """
    m = subdomain.matrix.to_dense()
    p = subdomain.n_ports
    if subdomain.n_inner == 0:
        return m
    C = m[:p, :p]
    E = m[:p, p:]
    F = m[p:, :p]
    D = m[p:, p:]
    return C - E @ cho_solve(cho_factor(D), F)


def port_source(subdomain) -> np.ndarray:
    """Reduced source f − E D⁻¹ g on the ports."""
    m = subdomain.matrix.to_dense()
    p = subdomain.n_ports
    f = subdomain.rhs[:p]
    if subdomain.n_inner == 0:
        return f.copy()
    E = m[:p, p:]
    D = m[p:, p:]
    g = subdomain.rhs[p:]
    return f - E @ cho_solve(cho_factor(D), g)


@dataclass
class TwoDomainLaplace:
    """Laplace-domain model of a level-one, two-subdomain split.

    Ports of the two subdomains are aligned by split vertex, so the
    DTLPs connect port *k* of side 1 to port *k* of side 2 with
    impedance ``z[k]`` and directed delays ``tau[k]`` (1→2) and
    ``sigma[k]`` (2→1).
    """

    a1: np.ndarray
    a2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    z: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray

    @property
    def r(self) -> int:
        return int(self.z.size)

    # ---- scattering ---------------------------------------------------
    def scattering(self, which: int) -> np.ndarray:
        """R_j = (I + Z̃Â_j)^{-1} (I − Z̃Â_j)."""
        a = self.a1 if which == 1 else self.a2
        za = np.diag(self.z) @ a
        eye = np.eye(self.r)
        return np.linalg.solve(eye + za, eye - za)

    def scattering_spectrum(self, which: int) -> np.ndarray:
        """Weighted-similarity spectrum λ = (1 − t)/(1 + t) (Lemma A.2)."""
        a = self.a1 if which == 1 else self.a2
        sz = np.sqrt(self.z)
        t = np.linalg.eigvalsh(sz[:, None] * a * sz[None, :])
        return (1.0 - t) / (1.0 + t)

    # ---- loop gain ----------------------------------------------------
    def loop_gain(self, s: complex) -> np.ndarray:
        """L(s) = E_σ(s) R₂ E_τ(s) R₁ — the wave round-trip operator."""
        e_tau = np.exp(-s * self.tau)
        e_sigma = np.exp(-s * self.sigma)
        return (e_sigma[:, None] * self.scattering(2)
                * e_tau[None, :]) @ self.scattering(1)

    def loop_spectral_radius(self, s: complex) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.loop_gain(s)))))

    def rhp_scan(self, *, sigma_max: float = 2.0, omega_max: float = 20.0,
                 n_sigma: int = 5, n_omega: int = 40) -> float:
        """Max ρ(L(s)) over a closed-RHP grid (< 1 ⇒ no RHP pole).

        The grid covers Re(s) ∈ [0, sigma_max] × Im(s) ∈
        [−omega_max, omega_max]; by the maximum modulus behaviour of the
        delay factors the imaginary axis (Re s = 0) is the worst case,
        so a modest grid suffices as a certificate check.
        """
        worst = 0.0
        for re in np.linspace(0.0, sigma_max, n_sigma):
            for im in np.linspace(-omega_max, omega_max, n_omega):
                worst = max(worst, self.loop_spectral_radius(
                    complex(re, im)))
        return worst

    # ---- final value --------------------------------------------------
    def steady_state_ports(self) -> tuple[np.ndarray, np.ndarray]:
        """Port potentials at s → 0 via the fixed point of the loop.

        Solves the DC wave fixed point and returns (u1, u2); Theorem 6.1
        says both equal the restriction of A⁻¹b to the split vertices.
        """
        eye = np.eye(self.r)
        zd = np.diag(self.z)
        # DC waves: a1 = R2 a2 + g2, a2 = R1 a1 + g1 with
        # g_j = 2 (I + Z̃Â_j)^{-1} Z̃ f_j
        g1 = 2.0 * np.linalg.solve(eye + zd @ self.a1, zd @ self.f1)
        g2 = 2.0 * np.linalg.solve(eye + zd @ self.a2, zd @ self.f2)
        l0 = self.loop_gain(0.0)
        a1_wave = np.linalg.solve(eye - l0,
                                  self.scattering(2) @ g1 + g2)
        a2_wave = self.scattering(1) @ a1_wave + g1
        u1 = np.linalg.solve(eye + zd @ self.a1,
                             a1_wave + zd @ self.f1)
        u2 = np.linalg.solve(eye + zd @ self.a2,
                             a2_wave + zd @ self.f2)
        return u1, u2


def two_domain_model(split: SplitResult, impedance=1.0,
                     delays: tuple[float, float] | dict | None = None
                     ) -> TwoDomainLaplace:
    """Build the appendix's two-subdomain model from an EVS split.

    Requires exactly two subdomains whose ports pair one-to-one (every
    split vertex has exactly two copies — level-one tearing).
    """
    require(split.n_parts == 2,
            "the appendix model covers exactly two subdomains")
    for v, parts in split.copies.items():
        if len(parts) != 2:
            raise ValidationError(
                f"vertex {v} has {len(parts)} copies; the two-domain model "
                "needs level-one splits only")
    sub1, sub2 = split.subdomains
    require(sub1.n_ports == sub2.n_ports, "port counts must match")
    # align side-2 ports to side-1 vertex order
    order2 = [sub2.local_index_of(int(v)) for v in sub1.port_vertices]
    a1 = port_operator(sub1)
    a2_raw = port_operator(sub2)
    a2 = a2_raw[np.ix_(order2, order2)]
    f1 = port_source(sub1)
    f2 = port_source(sub2)[order2]

    from ..core.impedance import as_impedance_strategy

    z_links = as_impedance_strategy(impedance).assign(split)
    z = np.empty(sub1.n_ports)
    tau = np.empty(sub1.n_ports)
    sigma = np.empty(sub1.n_ports)
    if delays is None:
        d12 = d21 = 1.0
    elif isinstance(delays, dict):
        d12, d21 = delays[(0, 1)], delays[(1, 0)]
    else:
        d12, d21 = delays
    vertex_rank = {int(v): k for k, v in enumerate(sub1.port_vertices)}
    for link, zval in zip(split.twin_links, z_links):
        k = vertex_rank[link.vertex]
        z[k] = zval
        tau[k] = d12
        sigma[k] = d21
    return TwoDomainLaplace(a1=a1, a2=a2, f1=f1, f2=f2, z=z,
                            tau=tau, sigma=sigma)


@dataclass
class ConvergenceCertificate:
    """Executable form of Theorem 6.1 for a two-subdomain split."""

    scattering_radius_1: float
    scattering_radius_2: float
    rhp_worst_gain: float
    final_value_error: float

    @property
    def holds(self) -> bool:
        """All three appendix conditions verified numerically."""
        return (min(self.scattering_radius_1, self.scattering_radius_2)
                < 1.0 - 1e-12
                and max(self.scattering_radius_1,
                        self.scattering_radius_2) <= 1.0 + 1e-9
                and self.rhp_worst_gain < 1.0
                and self.final_value_error < 1e-6)


def verify_theorem_6_1(split: SplitResult, impedance=1.0,
                       delays=None) -> ConvergenceCertificate:
    """Check the appendix's three conditions on a concrete split.

    1. scattering spectra: at least one side strictly inside the unit
       disc (SPD), the other within it (SNND);
    2. loop gain < 1 over a closed-RHP grid (no pole);
    3. the s→0 fixed point reproduces the direct solution on the split
       vertices (final-value theorem).
    """
    model = two_domain_model(split, impedance, delays)
    rad1 = float(np.max(np.abs(model.scattering_spectrum(1))))
    rad2 = float(np.max(np.abs(model.scattering_spectrum(2))))
    worst = model.rhp_scan()
    u1, u2 = model.steady_state_ports()
    a, b = split.graph.to_system()
    from ..linalg.iterative import direct_reference_solution

    exact = direct_reference_solution(a, b)
    exact_ports = exact[split.subdomains[0].port_vertices]
    err = float(max(np.max(np.abs(u1 - exact_ports)),
                    np.max(np.abs(u2 - exact_ports))))
    return ConvergenceCertificate(
        scattering_radius_1=rad1, scattering_radius_2=rad2,
        rhp_worst_gain=worst, final_value_error=err)
