"""Gradient-step rules for the edited embedding rows."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adaptive-moment step over one parameter block."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, shape: tuple[int, ...], lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        m_hat = self.m / (1.0 - self.BETA1 ** self.t)
        v_hat = self.v / (1.0 - self.BETA2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


class Sgd:
    """Plain gradient descent."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.lr * grad

