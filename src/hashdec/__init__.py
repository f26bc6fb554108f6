"""Multimodal biometric hashing with a trainable belief-propagation decoder.

Subpackages:
  autodiff    dense tensors with reverse-mode AD and Adam
  gf2m, bch   Galois fields and binary BCH codes (encode / BM+Chien decode)
  tanner      sum-product BP on Tanner graphs, AWGN channel helpers
  nnd         unrolled weighted-BP decoder, training and ground-truth voting
  mdh         two-encoder fusion + hashing network and its training protocol
  biodata     synthetic two-modality benchmark generator and file formats
  evaluation  Hamming scoring, ROC/EER, identification, latency
  config      the one settings record, validated when it loads
  pipeline    staged orchestration over a run directory
  cli         command-line entry point
"""

from .autodiff import (
    AdamState,
    GradientTape,
    Tensor,
    adam_step,
    binary_cross_entropy,
    dense,
    gradient_check,
    matmul,
    no_grad,
    outer_product,
    scaled_tanh,
    sigmoid,
    softmax_cross_entropy,
)
from .bch import BchCode, DecodeResult, brute_force_ml_decode, build_code, decode_hard, encode, extract_message, syndromes
from .biodata import DatasetDims, DistortionModel, SplitSpec, generate, load_dataset, save_dataset
from .config import ExperimentConfig
from .evaluation import (
    RocCurve,
    gar_at_far,
    hamming,
    identification_accuracy,
    roc_and_eer,
    score_protocol,
)
from .gf2m import GaloisField
from .mdh import MdhModel, total_loss, train_step1
from .nnd import (
    GroundTruthTable,
    NndModel,
    finetune_biometric,
    llr_from_activations,
    make_ground_truth,
    pretrain_awgn,
)
from .tanner import TannerGraph, awgn_llr, decode_bp_batch

__version__ = "0.1.0"
