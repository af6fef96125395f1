"""Quaternion-PCA toolkit for multichannel EEG: band-power features,
quaternion SVD, max-margin classification, channel-subset search, and 4-D
connectivity measures."""

from . import blas  # first: it decides how many threads OpenBLAS starts on
from . import (baseline, classifier, connectivity, dataset, errors, pipeline,
               qlinalg, qpca, search, spectral)
from .classifier import (ConfusionCounts, LinearSvmModel, cross_validate,
                         metrics, svm_fit, svm_predict)
from .dataset import (EegRecording, SynthSpec, load_recording, save_recording,
                      session_split_keys, synthesize_dataset)
from .pipeline import FeatureCache, PipelineParams
from .qlinalg import QSvdResult, QuaternionMatrix, qeigh, qsvd, truncate
from .qpca import ChannelQuadruple, QpcaModel
from .quaternion import Quaternion
from .spectral import BandDefinition, DEFAULT_BANDS, band_power_matrix

__version__ = "0.1.0"
