"""Variational quantum neural network toolkit.

A dense statevector simulator, symbolic parameterized circuits, small
quantum-classifier models with regression and parity heads, three
optimizers (COBYLA, SPSA, analytic-gradient descent), synthetic dataset
generators, and a CLI that bundles them into reproducible experiments.
"""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    Gate,
    Input,
    Weight,
    build_benchmark_feature_map,
    build_efm,
    build_real_amplitudes,
)
from .data import (
    Dataset,
    Sample,
    gen_linear,
    gen_sigmoid,
    gen_tanh,
    gen_two_class_usage,
    load_csv,
    normalize_minmax,
    save_csv,
    split_dataset,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    DegenerateRangeError,
    EqnnError,
    NonFiniteLossError,
    UnsupportedModelError,
    UsageError,
)
from .optim import (
    Objective,
    OptimizerConfig,
    TrainTrace,
    initial_weights,
    make_objective,
    minimize,
    parameter_shift_gradient,
)
from .qnn import (
    ClassProbs,
    QnnModel,
    Regression,
    accuracy,
    batch_loss,
    build_model,
    decide,
    forward,
    gate_summary,
    predict_probs,
    predict_regression,
    probabilities_batch,
    simplified_model,
    simulate,
)
from .statevector import StateVector
