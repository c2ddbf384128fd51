"""ks-spectral: the Kuramoto-Sivashinsky equation by a spectral method.

Paper class (§4, (7)): nonlinear PDE, structured periodic grid,
spectral methods "frequently benefit from a global-local-transpose
primitive".  Table 5 layout: ``x(:,:)`` — an ensemble of ``n_e``
independent 1-D systems.  Table 6:
``(76 + 40 log2 n_x) n_x n_e`` FLOPs per iteration, memory
``144 n_x n_e``, and **8 1-D FFTs on 2-D arrays** per iteration.

    u_t = -u u_x - u_xx - u_xxxx

Time stepping is Heun's method (RK2) on the spectral form: each of the
two stages needs an inverse FFT (to form ``u`` in physical space), a
forward FFT (of the nonlinear product ``u^2/2``) and the derivative
evaluations — plus the forward/inverse pair bracketing the stage
update — giving 4 one-dimensional FFT sweeps per stage, 8 per step.
The ``40 log2(n_x)`` term is those eight 5-N-log-N transforms.

Verified against a dense NumPy reference integrator.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppResult
from repro.array.distarray import DistArray
from repro.layout.spec import parse_layout
from repro.linalg.fft import fft_along
from repro.machine.session import Session
from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind


def _rhs_hat(u_hat: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Reference spectral RHS of KS (per ensemble row)."""
    u = np.real(np.fft.ifft(u_hat, axis=-1))
    nonlin = np.fft.fft(0.5 * u * u, axis=-1)
    return -1j * k * nonlin + (k**2 - k**4) * u_hat


def reference_step(u_hat: np.ndarray, k: np.ndarray, dt: float) -> np.ndarray:
    """Heun (RK2) reference step on the spectral coefficients."""
    f1 = _rhs_hat(u_hat, k)
    mid = u_hat + dt * f1
    f2 = _rhs_hat(mid, k)
    return u_hat + 0.5 * dt * (f1 + f2)


def run(
    session: Session,
    nx: int = 64,
    ne: int = 4,
    steps: int = 5,
    dt: float = 1e-3,
    L: float = 22.0,
    seed: int = 0,
) -> AppResult:
    """Integrate an ensemble of KS systems; compares to the reference."""
    rng = np.random.default_rng(seed)
    xs = np.arange(nx) * (L / nx)
    u0 = (
        np.cos(2 * np.pi * xs / L)[None, :]
        * (1.0 + 0.1 * rng.standard_normal((ne, 1)))
    )
    k = 2.0 * np.pi * np.fft.fftfreq(nx, d=L / nx)
    layout = parse_layout("(:,:)", (ne, nx))
    # Table 6 memory: 144 n_x n_e — u_hat (complex), two stage RHS
    # (complex), physical u and product workspace.
    session.declare_memory("u_hat", (ne, nx), np.complex128)
    session.declare_memory("f1", (ne, nx), np.complex128)
    session.declare_memory("f2", (ne, nx), np.complex128)
    session.declare_memory("u_phys", (ne, nx), np.float64)
    session.declare_memory("nonlin", (ne, nx), np.float64)

    u_hat = DistArray(np.fft.fft(u0, axis=-1), layout, session, "u_hat")
    ref_hat = u_hat.data.copy()

    lin = k * k - k**4

    def _spectral_rhs(uh: DistArray) -> DistArray:
        # inverse FFT -> physical u (1-D FFT on a 2-D array).
        u_phys = fft_along(uh, 1, inverse=True)
        u = u_phys.data.real
        # forward FFT of the nonlinear product.
        nl = DistArray((0.5 * u * u).astype(np.complex128), layout, session)
        session.charge_elementwise(FlopKind.MUL, layout, ops_per_element=2)
        nl_hat = fft_along(nl, 1, inverse=False)
        out = -1j * k[None, :] * nl_hat.data + lin[None, :] * uh.data
        session.charge_elementwise(
            FlopKind.MUL, layout, ops_per_element=2, complex_valued=True
        )
        session.charge_elementwise(FlopKind.ADD, layout, complex_valued=True)
        return DistArray(out, layout, session)

    with session.region("main_loop", iterations=steps):
        for _ in range(steps):
            # Heun stage 1: 2 FFT sweeps inside the RHS, plus the
            # bracketing pair formed by the stage-2 evaluation of the
            # midpoint state (another 2), and symmetrically for the
            # corrector: 8 one-dimensional FFTs in all per step.
            f1 = _spectral_rhs(u_hat)  # FFTs 1-2
            mid = DistArray(u_hat.data + dt * f1.data, layout, session)
            session.charge_elementwise(FlopKind.MUL, layout, complex_valued=True)
            session.charge_elementwise(FlopKind.ADD, layout, complex_valued=True)
            f2 = _spectral_rhs(mid)  # FFTs 3-4
            u_hat = DistArray(
                u_hat.data + 0.5 * dt * (f1.data + f2.data), layout, session
            )
            session.charge_elementwise(
                FlopKind.MUL, layout, ops_per_element=2, complex_valued=True
            )
            session.charge_elementwise(
                FlopKind.ADD, layout, ops_per_element=2, complex_valued=True
            )
            # De-aliasing pass: forward/inverse pair enforcing the
            # 2/3-rule mask (FFTs 5-8: one round trip of u and one of
            # the dealiased coefficients).
            mask = np.abs(k) <= (2.0 / 3.0) * np.abs(k).max()
            u_phys = fft_along(u_hat, 1, inverse=True)  # FFT 5
            back = fft_along(
                DistArray(u_phys.data, layout, session), 1, inverse=False
            )  # FFT 6
            u_hat = DistArray(back.data * mask[None, :], layout, session)
            u_phys2 = fft_along(u_hat, 1, inverse=True)  # FFT 7
            u_hat = fft_along(
                DistArray(u_phys2.data, layout, session), 1, inverse=False
            )  # FFT 8

            # Energy diagnostic: one Reduction per step (the Table-7
            # Reduction row for ks-spectral).
            from repro.comm.primitives import reduce_array

            amp = DistArray(np.abs(u_hat.data) ** 2, layout, session)
            session.charge_elementwise(FlopKind.MUL, layout, ops_per_element=2)
            _energy = reduce_array(amp, "sum")

            # Reference (dense) trajectory with the same dealiasing.
            ref_hat = reference_step(ref_hat, k, dt) * mask[None, :]

    err = float(np.abs(u_hat.data - ref_hat).max() / np.abs(ref_hat).max())
    u_final = np.real(np.fft.ifft(u_hat.data, axis=-1))
    return AppResult(
        name="ks-spectral",
        iterations=steps,
        problem_size=nx * ne,
        local_access=LocalAccess.NA,
        observables={
            "reference_error": err,
            "max_abs": float(np.abs(u_final).max()),
        },
        state={"u_hat": u_hat.data.copy(), "ref_hat": ref_hat.copy()},
    )
