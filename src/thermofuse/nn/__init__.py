"""From-scratch neural-network primitives: layers, loss, optimizer, checks."""

from .layers import (
    BatchNormLayer,
    Conv2DLayer,
    Conv2DTransposeLayer,
    DropoutLayer,
    LeakyReLULayer,
    ReLULayer,
    SigmoidLayer,
    sigmoid,
)
from .loss import logcosh_loss
from .optim import Adam, NonFiniteGradientError
from .gradcheck import GradCheckReport, gradient_check, gradient_check_fn

__all__ = [
    "Adam",
    "BatchNormLayer",
    "Conv2DLayer",
    "Conv2DTransposeLayer",
    "DropoutLayer",
    "GradCheckReport",
    "LeakyReLULayer",
    "NonFiniteGradientError",
    "ReLULayer",
    "SigmoidLayer",
    "gradient_check",
    "gradient_check_fn",
    "logcosh_loss",
    "sigmoid",
]
