"""Anti-collusion fingerprinting codes from partially cover-free families.

Construct binary codes whose bitwise-AND collusion fingerprints identify
coalitions of up to K users, verify the combinatorial properties behind
them exhaustively (with replayable witnesses), and simulate attacks with
exact tracing.
"""

from .accs import (AndAcc, Certificate, ConditionEntry, ConstructionError,
                   ConstructionRefused, PriorComparison, acc_to_family,
                   build_h0, build_theorem1_acc, build_theorem2_acc,
                   check_theorem2_conditions, compare_prior, family_to_acc,
                   load_acc, save_acc, save_certificate)
from .arrays import (CodeBook, Lemma1Report, OACheck, ParameterError, build_U,
                     build_V, build_W, check_lemma1_bounds, load_codebook,
                     min_distance, rho, save_codebook, verify_oa)
from .collusion import (CollusionError, Fingerprint, ScanReport, TraceResult,
                        and_attack, scan_remark6, trace)
from .cwcodes import (CodeError, Condition8, ConstantWeightCode,
                      check_condition_8, export_code, family_from_code,
                      greedy_lexicode, import_code, stochastic_search,
                      verify_cw_code)
from .families import (FamilyError, SampleReport, SetFamily, Universe,
                       VerifyResult, Witness, is_k_cff, is_k_ud_code, is_k_udf,
                       is_partial_cff, load_family, replay_witness, sample_cff,
                       sample_ud_code, sample_udf, save_family, union_of)
from .gf import GF, FieldError, parse_field
from .presets import (PRESETS, PipelinePreset, PresetError, PresetResult,
                      run_preset)

__version__ = "0.1.0"
