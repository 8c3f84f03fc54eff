"""NumPy-backed reverse-mode autodiff engine.

This package replaces PyTorch's autograd for the reproduction: it provides
the :class:`Tensor` type with a dynamic computation graph, a functional ops
layer (:mod:`repro.tensor.ops`), gradient-mode switches, and numerical
gradient checking used to validate every model component.

Importing the package applies the process-wide numerics policy: one BLAS
thread per process (:mod:`repro.tensor.blas`), whatever
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` say, and allocator
thresholds that keep freed NumPy buffers in the heap between training
steps (:mod:`repro.tensor.malloc`).
"""

from .blas import BLAS_THREADS, blas_threads, pin_blas_threads
from .dtype import (DtypePolicy, accum_dtype, default_dtype, dtype_policy,
                    get_dtype_policy, set_default_dtype)
from .fused import (affine_act_fused, fused_enabled, fused_kernels,
                    gcn_propagate_fused, gru_cell_fused, lstm_cell_fused,
                    set_fused_enabled, temporal_block_fused)
from .grad_mode import (enable_grad, inference_mode, is_grad_enabled,
                        no_grad, set_grad_enabled, tape_node_count)
from .gradcheck import gradcheck, numerical_gradient
from .malloc import set_malloc_policy
from .ops import (binary_cross_entropy, conv1d, cross_entropy, dropout, elu,
                  huber_loss, l1_loss, leaky_relu, linear, log_softmax,
                  mse_loss, one_hot, relu, sigmoid, softmax, tanh)
from .sparse import (SparsePattern, SparseTensor, sddmm, sparse_gather,
                     sparse_segment_sum, spmm)
from .tensor import (Tensor, concat, einsum, ensure_tensor, maximum, stack,
                     where)

pin_blas_threads()
set_malloc_policy()

__all__ = [
    "BLAS_THREADS", "blas_threads", "pin_blas_threads", "set_malloc_policy",
    "Tensor", "concat", "stack", "where", "maximum", "einsum", "ensure_tensor",
    "DtypePolicy", "dtype_policy", "set_default_dtype", "get_dtype_policy",
    "default_dtype", "accum_dtype",
    "fused_kernels", "set_fused_enabled", "fused_enabled",
    "affine_act_fused", "lstm_cell_fused", "gru_cell_fused",
    "gcn_propagate_fused", "temporal_block_fused",
    "SparsePattern", "SparseTensor", "spmm", "sddmm", "sparse_gather",
    "sparse_segment_sum",
    "no_grad", "enable_grad", "inference_mode", "is_grad_enabled",
    "set_grad_enabled", "tape_node_count",
    "gradcheck", "numerical_gradient",
    "softmax", "log_softmax", "relu", "sigmoid", "tanh", "leaky_relu", "elu",
    "dropout", "conv1d", "linear", "one_hot",
    "mse_loss", "l1_loss", "huber_loss", "binary_cross_entropy",
    "cross_entropy",
]
