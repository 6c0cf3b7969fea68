"""The normal-inverse-Wishart hyperprior of LEO's graphical model.

The top layer of the hierarchy (paper Eq. 2) places a conjugate
normal-inverse-Wishart prior on the shared mean and covariance:

    mu, Sigma ~ N(mu | mu_0, Sigma / pi) * IW(Sigma | nu, Psi)

The paper fixes the hyper-parameters to mu_0 = 0, pi = 1, Psi = I, nu = 1
(Section 5.2).  :class:`NIWPrior` carries them and knows how they enter
the M-step; ``None`` disables the prior entirely, turning EM into pure
maximum likelihood (useful for the monotonicity property tests, since the
exact-ML M-step guarantees the observed-data likelihood never decreases).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np


@dataclasses.dataclass(frozen=True)
class NIWPrior:
    """Normal-inverse-Wishart hyper-parameters.

    Attributes:
        mu0: Prior mean of mu.  A scalar broadcasts across configurations.
        pi: Prior pseudo-count tying mu to mu0 (``pi = 0`` removes the
            pull entirely).
        psi: Prior scale matrix of Sigma.  A scalar s means ``s * I``.
        nu: Prior degrees of freedom of Sigma.
    """

    mu0: Union[float, np.ndarray] = 0.0
    pi: float = 1.0
    psi: Union[float, np.ndarray] = 1.0
    nu: float = 1.0

    def __post_init__(self) -> None:
        if self.pi < 0:
            raise ValueError(f"pi must be >= 0, got {self.pi}")
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if np.isscalar(self.psi):
            if self.psi < 0:
                raise ValueError(f"scalar psi must be >= 0, got {self.psi}")
        else:
            psi = np.asarray(self.psi, dtype=float)
            if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
                raise ValueError(f"matrix psi must be square, got {psi.shape}")
            if not np.allclose(psi, psi.T):
                raise ValueError("matrix psi must be symmetric")
            # Stored exactly symmetric, so every EM Sigma iterate is too.
            object.__setattr__(self, "psi", 0.5 * (psi + psi.T))

    @classmethod
    def paper_default(cls) -> "NIWPrior":
        """The paper's hyper-parameters: mu0=0, pi=1, Psi=I, nu=1."""
        return cls(mu0=0.0, pi=1.0, psi=1.0, nu=1.0)

    def mu0_vector(self, n: int) -> np.ndarray:
        """mu0 materialized as a length-``n`` vector."""
        if np.isscalar(self.mu0):
            return np.full(n, float(self.mu0))
        mu0 = np.asarray(self.mu0, dtype=float)
        if mu0.shape != (n,):
            raise ValueError(f"mu0 has shape {mu0.shape}, expected ({n},)")
        return mu0.copy()

    def psi_matrix(self, n: int) -> np.ndarray:
        """Psi materialized as an ``n x n`` matrix."""
        psi = np.zeros((n, n))
        self.add_psi(psi)
        return psi

    def add_psi(self, a: np.ndarray) -> None:
        """``a += Psi`` in place, for an ``n x n`` array ``a``."""
        if np.isscalar(self.psi):
            a.flat[::a.shape[0] + 1] += self.psi
        elif self.psi.shape != a.shape:
            raise ValueError(
                f"psi has shape {self.psi.shape}, expected {a.shape}")
        else:
            a += self.psi


#: Sentinel meaning "no prior": pure maximum-likelihood EM updates.
ML_PRIOR: Optional[NIWPrior] = None
