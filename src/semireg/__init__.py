"""Semi-supervised regression with co-trained dropout networks.

Two small regressors with dropout and twin heads (target value and log
aleatoric variance) are trained jointly: labeled data through a Gaussian
heteroscedastic loss, unlabeled data through gradient-isolated pseudo-labels
obtained by averaging stochastic forward passes of both models, plus an
optional consistency penalty tying the two models' uncertainty estimates
together. Everything is deterministic given a single 64-bit seed.
"""

__version__ = "0.1.0"
