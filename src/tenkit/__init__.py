"""tenkit: tensor decompositions and tensor-network compression.

Dense N-way tensors with both multi-index conventions, the standard
multilinear product zoo, CP/Tucker/CUR-FSTD/tensor-train decompositions with
verifiable error bounds, quantized-TT compression, and exact storage
accounting, plus binary containers and a batch CLI.
"""

from .dense import (BIG_ENDIAN, LITTLE_ENDIAN, DenseTensor, UnfoldingSpec,
                    extract_subtensor, fiber, fold, fold_general,
                    frobenius_norm, linear_index, multi_index, random_tensor,
                    unfold, unfold_general, vectorize)
from .ops import (BlockMatrix, BlockTensor3, contract, hadamard, khatri_rao,
                  kron_tensor, mode_n_matrix_product, mode_n_vector_product,
                  multilinear_product, outer_product, strong_kron,
                  strong_kron_tensor3)
from .cpd import CPModel, cp_als, cp_fit, cp_reconstruct, cp_unfolded, normalize
from .tucker import (OrthogonalityReport, TuckerModel, assemble_blocks,
                     check_all_orthogonal, core_blockwise, factor_gram_sliced,
                     hosvd, hosvd_from_subtensors, partition_matrix_blocks,
                     partition_tensor, right_factor_block, tucker_from_factors,
                     tucker_reconstruct, unfolding_column_slices)
from .cur import (CURModel, FSTDModel, FiberSelection, cur_decompose, fstd,
                  select_fibers_maxmod)
from .ttrain import (DENSE_CAP, TTMatrixModel, TTModel, tt_als, tt_element,
                     tt_mals, tt_norm, tt_orthogonalize, tt_outer_sum,
                     tt_reconstruct, tt_round, tt_storage, tt_svd,
                     tt_to_strong_kron, ttm_element, ttm_reconstruct,
                     ttm_storage, ttm_svd, ttm_to_strong_kron)
from .quantize import (QuantizationScheme, detensorize, factorize_dim,
                       qtt_compress, qtt_decompress, storage_complexity,
                       tensorize)
from .blockmodels import (HOPTANode, KTDModel, hopta_reconstruct,
                          ktd_reconstruct, model_storage, reconstruct)

__version__ = "0.1.0"
